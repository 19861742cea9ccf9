"""The benchmark's workloads: seeded inputs, pipeline calls and references.

Inputs come from ``cliquemul.cli``'s generators, seeded from the benchmark
seed.  The pipeline is reached only through its public entry points, looked
up on their modules at call time so that ``spans.instrumented`` can wrap
them.  The package is imported from the ``src`` directory next to this
benchmark, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package() -> None:
    if not (SRC / "cliquemul" / "__init__.py").is_file():
        raise ImportError(f"no cliquemul package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cliquemul
    if Path(cliquemul.__file__).resolve().parent != SRC / "cliquemul":
        raise ImportError(f"cliquemul was imported from {cliquemul.__file__}, not {SRC}")


_import_package()

import numpy as np  # noqa: E402
from cliquemul import cli, oracle  # noqa: E402
from cliquemul.engine import CliqueEngine, RoundLedger  # noqa: E402
from cliquemul.semiring import counting_semiring  # noqa: E402

smm_mod = importlib.import_module("cliquemul.smm")
triangles_mod = importlib.import_module("cliquemul.triangles")
graph_suite = importlib.import_module("cliquemul.graph_suite")


@dataclass(frozen=True)
class Call:
    """One pipeline call: ``run()`` returns its result, ``view`` the output checked,
    as plain data in a canonical order.

    ``run`` looks the entry point up when called, so that a traced run
    reaches the wrapper.
    """

    run: Callable[[], Any]
    view: Callable[[Any], Any]


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    calls: Callable[[Any], list[Call]]       # fresh engines on every use
    references: Callable[[Any], list[Any]]   # expected ``view`` of each call


def digest(view) -> str:
    """sha256 of an output's repr; views are plain, canonically ordered data."""
    return hashlib.sha256(repr(view).encode("ascii")).hexdigest()


def fingerprint(records) -> str:
    """sha256 of the ledger CSV of one call's phase records."""
    ledger = RoundLedger()
    ledger.records = list(records)
    return hashlib.sha256(ledger.to_csv().encode("ascii")).hexdigest()


# -- smm-uniform ---------------------------------------------------------------

# n=512 at density 1/8, then n=64 at full density, where fragment dealing
# and the respond load inflate rounds most.
SMM_SHAPES = ((512, 32768), (64, 4096))


def _smm(S, T):
    return smm_mod.smm(S, T, CliqueEngine(S.n))


def smm_uniform(shapes=SMM_SHAPES) -> Workload:
    def make_inputs(seed):
        sr = counting_semiring()
        return [(cli.generate_matrix(n, nz, 100 * seed + 2 * k, sr),
                 cli.generate_matrix(n, nz, 100 * seed + 2 * k + 1, sr))
                for k, (n, nz) in enumerate(shapes)]

    def calls(pairs):
        return [Call(partial(_smm, S, T), lambda res: res.product.rows) for S, T in pairs]

    def references(pairs):
        # Counting semiring: the reference takes its int64 matmul path, never
        # the n^3-memory min-plus one.
        return [oracle.dense_multiply(S, T).rows for S, T in pairs]

    return Workload(make_inputs, calls, references)


# -- triangles -----------------------------------------------------------------

def triangles(n=512, m=16000) -> Workload:
    def make_inputs(seed):
        return cli.generate_graph(n, m, 100 * seed)

    def calls(G):
        return [Call(lambda: triangles_mod.list_triangles(G, CliqueEngine(G.n)),
                     lambda res: sorted(res.triangles))]

    return Workload(make_inputs, calls, lambda G: [sorted(oracle.enumerate_triangles(G))])


# -- graph-suite ---------------------------------------------------------------

def eccentricity(G, root: int = 0) -> float:
    """Hop eccentricity of ``root``; inf when some vertex is unreachable."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in G.out_adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist.values()) if len(dist) == G.n else float("inf")


def codegree_4_cycles(G) -> int:
    """4-cycles of an undirected graph from codegrees: sum C(c, 2) / 4 over u != w.

    Each cycle u-v-w-x has two opposite pairs, each counted in both orders.
    """
    A = np.zeros((G.n, G.n), dtype=np.int64)
    for u, v in G.edges:
        A[u, v] = 1
    C = A @ A
    np.fill_diagonal(C, 0)
    return int((C * (C - 1) // 2).sum()) // 4


def graph_suite_workload(n=128, m=1536, ecc=3) -> Workload:
    """count_4_cycles then apsp on one engine, on a graph whose vertex 0 has eccentricity ``ecc``.

    apsp's multiplication count is 2*ecc(0) - 1, so fixing ecc(0) keeps the
    work, and the rounds, comparable across seeds.  At the default size
    about three seeds in four give ecc(0) = 3 at the first draw.
    """
    def make_inputs(seed):
        for k in range(1000):
            G = cli.generate_graph(n, m, 1000 * seed + k)
            if eccentricity(G) == ecc:
                return G
        raise ValueError(f"no graph with n={n}, m={m} and ecc(0)={ecc} in 1000 draws")

    def calls(G):
        engine = CliqueEngine(G.n)
        return [Call(lambda: graph_suite.count_4_cycles(G, engine), lambda res: res.count),
                Call(lambda: graph_suite.apsp(G, engine), lambda res: res.dist.to_dense())]

    return Workload(make_inputs, calls,
                    lambda G: [codegree_4_cycles(G), oracle.apsp_bfs(G)])


WORKLOADS = {
    "smm-uniform": smm_uniform(),
    "triangles": triangles(),
    "graph-suite": graph_suite_workload(),
}
