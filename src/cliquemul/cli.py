"""Command line front end: ingestion, simulation, verification, benchmarks.

Subcommands: multiply, triangles, four-cycles, apsp, bench,
verify-partitions.  multiply, triangles, four-cycles and apsp accept
--verify, which re-runs the sequential oracle and exits 1 on any
difference, and --ledger, which writes the ledger the entry point
returns; they run no randomized step, so only bench and
verify-partitions take --seed for the instances they generate.  The
entry points size their own engines: triangles on a non-cube graph runs
on the next cube of nodes.  A bad input (missing or malformed file,
mismatched operands, disconnected graph for apsp) exits 2 with a
one-line message.  Files land in --out when given, else under
$CLIQUEMUL_OUT_DIR (default ".").
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import oracle
from .engine import RoundLedger
from .graphs import DisconnectedGraphError, Graph, GraphError, load_edge_list
from .graph_suite import apsp, count_4_cycles
from .partition import avg_partition, balanced_assignment
from .semiring import Semiring, semiring_by_name
from .sparse import (DimensionError, FormatError, SparseMatrix, load_matrix_market,
                     save_matrix_market)
from .smm import smm
from .triangles import list_triangles

OUT_DIR_ENV = "CLIQUEMUL_OUT_DIR"


def _out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


# -- instance generators ----------------------------------------------------

def generate_matrix(n: int, nz_target: int, seed: int, semiring: Semiring) -> SparseMatrix:
    """Seeded uniform matrix with exactly nz_target non-omitted entries."""
    if not 0 <= nz_target <= n * n:
        raise ValueError(f"cannot place {nz_target} entries in a {n}x{n} matrix")
    rng = random.Random(seed)
    cells = rng.sample(range(n * n), nz_target)
    entries = []
    for cell in cells:
        i, j = divmod(cell, n)
        if semiring.name == "boolean":
            val = True
        elif semiring.name == "counting":
            val = rng.randint(1, 9)
        else:
            val = float(rng.randint(0, 9))
        entries.append((i, j, val))
    return SparseMatrix.from_entries(n, semiring, entries)


def generate_graph(n: int, m_target: int, seed: int, directed: bool = False) -> Graph:
    """Seeded uniform simple graph with exactly m_target (arc or edge) count."""
    rng = random.Random(seed)
    if directed:
        if not 0 <= m_target <= n * (n - 1):
            raise ValueError(f"cannot place {m_target} arcs on {n} vertices")
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        return Graph(n, rng.sample(pairs, m_target))
    if not 0 <= m_target <= n * (n - 1) // 2:
        raise ValueError(f"cannot place {m_target} edges on {n} vertices")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.undirected(n, rng.sample(pairs, m_target))


# -- benchmark driver -------------------------------------------------------

@dataclass
class BenchConfig:
    suite: str
    sizes: list[int]
    densities: list[float] | None = None
    edges: list[int] | None = None
    seed: int = 0
    out: Path = field(default_factory=lambda: Path("bench.csv"))

    def validate(self) -> None:
        if self.suite not in ("smm", "triangles"):
            raise ValueError(f"unknown suite {self.suite!r}")
        if (self.densities is None) == (self.edges is None):
            raise ValueError("exactly one of densities/edges must be given")
        if self.densities is not None:
            for d in self.densities:
                if not 0 < d <= 1:
                    raise ValueError(f"density {d} outside (0, 1]")
        if any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive")

    def targets_for(self, n: int) -> list[int]:
        if self.edges is not None:
            return list(self.edges)
        if self.suite == "smm":
            universe = n * n
        else:
            universe = n * (n - 1) // 2
        return [max(0, min(universe, round(d * universe))) for d in self.densities]


def _tri_group(label: str) -> str:
    rest = label.split(".", 1)[1]          # strip "tri."
    if rest and rest[0].isdigit():
        rest = rest.split(".", 1)[1]       # strip the half number
    return rest


def _phase_rounds(records, group=lambda label: label) -> dict[str, int]:
    """``rounds_<group>`` columns summed over the records, in order of
    first appearance."""
    cols: dict[str, int] = {}
    for rec in records:
        col = "rounds_" + group(rec.label).replace(".", "_")
        cols[col] = cols.get(col, 0) + rec.rounds
    return cols


def run_bench(config: BenchConfig) -> list[dict]:
    """One pipeline run per (n, target); returns rows and writes the CSV.

    The phase columns are the ledger's phase groups in order of first
    appearance over all rows; a row without a group reads 0 there.
    """
    config.validate()
    rows: list[dict] = []
    phase_cols: dict[str, None] = {}
    counter = 0
    for n in config.sizes:
        for target in config.targets_for(n):
            seed = config.seed + counter
            counter += 1
            if config.suite == "smm":
                row, phases = _bench_smm(n, target, seed)
            else:
                row, phases = _bench_triangles(n, target, seed)
            phase_cols.update(dict.fromkeys(phases))
            rows.append({**row, **phases})
    header = (["n", "m", "nz_lhs", "nz_rhs", "a", "b", "rounds_total"]
              + list(phase_cols) + ["bound_value", "ratio"])
    out = Path(config.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval=0)
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _bench_smm(n: int, nz_target: int, seed: int) -> tuple[dict, dict]:
    sr = semiring_by_name("count")
    S = generate_matrix(n, nz_target, seed, sr)
    T = generate_matrix(n, nz_target, seed + 1, sr)
    res = smm(S, T)
    total = res.rounds()
    row = {
        "n": n, "m": "", "nz_lhs": S.nz(), "nz_rhs": T.nz(),
        "a": res.split.a, "b": res.split.b, "rounds_total": total,
    }
    bound = (S.nz() ** (1 / 3)) * (T.nz() ** (1 / 3)) / n + 1
    row["bound_value"] = _fmt(bound)
    row["ratio"] = _fmt(total / bound)
    return row, _phase_rounds(res.records)


def _bench_triangles(n: int, m_target: int, seed: int) -> tuple[dict, dict]:
    G = generate_graph(n, m_target, seed, directed=False)
    res = list_triangles(G)
    total = res.rounds()
    n_run = res.state.n
    m_arcs = res.state.m
    row = {
        "n": n_run, "m": m_arcs, "nz_lhs": "", "nz_rhs": "",
        "a": "", "b": "", "rounds_total": total,
    }
    bound = m_arcs / n_run ** (5 / 3) + 1
    row["bound_value"] = _fmt(bound)
    row["ratio"] = _fmt(total / bound)
    return row, _phase_rounds(res.records, _tri_group)


# -- partition property suite ----------------------------------------------

def run_partition_suite(seed: int = 0) -> tuple[int, list[str]]:
    """Exhaustive small-multiset balance checks plus random sizing checks."""
    checked = 0
    failures: list[str] = []
    for n in range(1, 9):
        for weights in itertools.combinations_with_replacement(range(5), n):
            ws = list(weights)
            total = sum(ws)
            for k in range(1, n + 1):
                parts = balanced_assignment(ws, k, 4)
                checked += 1
                if sorted(i for part in parts for i in part) != list(range(n)):
                    failures.append(f"cover {ws} k={k}: not a partition")
                for part in parts:
                    if len(part) not in (n // k, -(-n // k)):
                        failures.append(f"size {ws} k={k}: |part| not n/k rounded")
                    if sum(ws[i] for i in part) > Fraction(total, k) + max(ws):
                        failures.append(f"sum {ws} k={k}: part over bound")
    rng = random.Random(seed)
    for _ in range(1000):
        n = rng.randint(1, 16)
        sizes = [rng.randint(0, 20) for _ in range(n)]
        chunks = avg_partition(sizes)
        checked += 1
        total_parts = sum(len(c) for c in chunks)
        if total_parts > 2 * n:
            failures.append(f"avg_partition {sizes}: {total_parts} > 2n")
    return checked, failures


# -- subcommand implementations ---------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--verify", action="store_true",
                    help="cross-check against the sequential oracle")
    sp.add_argument("--ledger", type=Path, default=None,
                    help="write per-phase round accounting to this CSV")


def _write_ledger(records, path: Path | None) -> None:
    if path is not None:
        ledger = RoundLedger()
        ledger.records = list(records)
        path.parent.mkdir(parents=True, exist_ok=True)
        ledger.write_csv(path)


def _cmd_multiply(args) -> int:
    sr = semiring_by_name(args.semiring)
    S = load_matrix_market(args.lhs, sr)
    T = load_matrix_market(args.rhs, sr)
    if S.n != T.n:
        raise DimensionError(f"operand sizes differ ({S.n} vs {T.n})")
    n = S.n
    padded_n = _next_pow2(n) if args.pad == "pow2" else n
    res = smm(S.padded(padded_n), T.padded(padded_n))
    product = res.product.truncated(n)
    out = args.out if args.out else _out_dir() / (Path(args.lhs).stem + ".product.mtx")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_matrix_market(product, out)
    _write_ledger(res.records, args.ledger)
    print(f"multiply: n={n} nz_lhs={S.nz()} nz_rhs={T.nz()} "
          f"split=({res.split.a},{res.split.b}) rounds={res.rounds()} "
          f"nz_out={product.nz()} -> {out}")
    if args.verify:
        want = oracle.dense_multiply(S, T)
        if product != want:
            print("verify: MISMATCH against dense oracle", file=sys.stderr)
            return 1
        print("verify: ok")
    return 0


def _canonical_undirected(tris) -> list[tuple[int, int, int]]:
    return sorted({tuple(sorted(t)) for t in tris})


def _cmd_triangles(args) -> int:
    G = load_edge_list(args.graph, directed=args.directed)
    res = list_triangles(G)
    if args.directed:
        listed = sorted(res.triangles)
    else:
        listed = _canonical_undirected(res.triangles)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.writelines(f"{u} {v} {w}\n" for u, v, w in listed)
    _write_ledger(res.records, args.ledger)
    print(f"triangles: n={G.n} m={G.m} count={len(listed)} rounds={res.rounds()}"
          + (f" -> {args.out}" if args.out else ""))
    if args.verify:
        want = oracle.enumerate_triangles(G)
        want_listed = sorted(want) if args.directed else _canonical_undirected(want)
        if listed != want_listed:
            print("verify: MISMATCH against oracle enumeration", file=sys.stderr)
            return 1
        print("verify: ok")
    return 0


def _cmd_four_cycles(args) -> int:
    G = load_edge_list(args.graph, directed=False)
    res = count_4_cycles(G)
    _write_ledger(res.records, args.ledger)
    print(f"four-cycles: n={G.n} m={G.m // 2} count={res.count} "
          f"rounds={sum(r.rounds for r in res.records)}")
    if args.verify:
        want = oracle.enumerate_4_cycles(G)
        if res.count != want:
            print(f"verify: MISMATCH (got {res.count}, oracle {want})",
                  file=sys.stderr)
            return 1
        print("verify: ok")
    return 0


def _cmd_apsp(args) -> int:
    G = load_edge_list(args.graph, directed=False)
    res = apsp(G)
    out = args.out if args.out else _out_dir() / (Path(args.graph).stem + ".dist.mtx")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_matrix_market(res.dist, out)
    _write_ledger(res.records, args.ledger)
    print(f"apsp: n={G.n} m={G.m // 2} diameter={res.diameter} "
          f"multiplications={res.multiplications} "
          f"rounds={sum(r.rounds for r in res.records)} -> {out}")
    if args.verify:
        want = oracle.apsp_bfs(G)
        got = res.dist.to_dense()
        if got != want:
            print("verify: MISMATCH against BFS oracle", file=sys.stderr)
            return 1
        print("verify: ok")
    return 0


def _cmd_bench(args) -> int:
    out = args.out if args.out else _out_dir() / f"bench-{args.suite}.csv"
    config = BenchConfig(suite=args.suite, sizes=args.sizes,
                         densities=args.densities, edges=args.edges,
                         seed=args.seed, out=out)
    try:
        rows = run_bench(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"bench: suite={args.suite} rows={len(rows)} -> {out}")
    return 0


def _cmd_verify_partitions(args) -> int:
    checked, failures = run_partition_suite(args.seed)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        print(f"verify-partitions: {len(failures)} failures / {checked} checks",
              file=sys.stderr)
        return 1
    print(f"verify-partitions: ok ({checked} checks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cliquemul",
        description="Sparse semiring matrix multiplication and graph "
                    "algorithms on a simulated congested clique.")
    sub = ap.add_subparsers(dest="command", required=True)

    mp = sub.add_parser("multiply", help="multiply two Matrix Market matrices")
    mp.add_argument("--lhs", type=Path, required=True)
    mp.add_argument("--rhs", type=Path, required=True)
    mp.add_argument("--semiring", choices=["bool", "count", "minplus"],
                    required=True)
    mp.add_argument("--pad", choices=["none", "pow2"], default="none",
                    help="pad to the next power of two first; a split (a, b) "
                         "needs ab to divide n, so a prime n can only split "
                         "(1, 1), (1, n) or (n, 1) and costs many more rounds "
                         "(n=127, 16000 nonzeros: 139 rounds, 25 padded)")
    mp.add_argument("--out", type=Path, default=None)
    _add_common(mp)
    mp.set_defaults(func=_cmd_multiply)

    tp = sub.add_parser("triangles", help="list all triangles of a graph")
    tp.add_argument("--graph", type=Path, required=True)
    tp.add_argument("--directed", action="store_true")
    tp.add_argument("--out", type=Path, default=None)
    _add_common(tp)
    tp.set_defaults(func=_cmd_triangles)

    fp = sub.add_parser("four-cycles", help="count 4-cycles of an undirected graph")
    fp.add_argument("--graph", type=Path, required=True)
    _add_common(fp)
    fp.set_defaults(func=_cmd_four_cycles)

    app = sub.add_parser("apsp", help="all-pairs shortest paths (unweighted)")
    app.add_argument("--graph", type=Path, required=True)
    app.add_argument("--out", type=Path, default=None)
    _add_common(app)
    app.set_defaults(func=_cmd_apsp)

    bp = sub.add_parser("bench", help="round-complexity benchmark sweep")
    bp.add_argument("--suite", choices=["smm", "triangles"], required=True)
    bp.add_argument("--sizes", type=int, nargs="+", required=True)
    group = bp.add_mutually_exclusive_group(required=True)
    group.add_argument("--densities", type=float, nargs="+")
    group.add_argument("--edges", type=int, nargs="+")
    bp.add_argument("--out", type=Path, default=None)
    bp.add_argument("--seed", type=int, default=0)
    bp.set_defaults(func=_cmd_bench)

    vp = sub.add_parser("verify-partitions",
                        help="run the partition property suite standalone")
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(func=_cmd_verify_partitions)
    return ap


# Faults of the input, not of the program; both readers take ASCII only.
_INPUT_ERRORS = (OSError, UnicodeDecodeError, FormatError, GraphError,
                 DimensionError, DisconnectedGraphError)


def main(argv=None) -> int:
    """Run one subcommand; exit 1 is a verification mismatch, 2 bad input."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
