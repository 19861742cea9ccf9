"""Pinned per-phase ledgers of the protocol pipelines.

Each case runs one pipeline on a fresh engine and compares the ledger CSV
byte for byte with ``tests/golden/<case>.csv``.  A refactor that moves,
adds or drops a single message changes some phase's load or message count
and fails here, even when the output stays correct.

Loads and rounds do not show what a message carries, so each case's
deliveries are pinned too: ``tests/golden/deliveries.json`` holds one
sha256 per case over every phase's label, header columns (dtype and
bytes), value column (dtype and ``tolist()`` repr) and mailbox bounds;
a broadcast, which lays out no mailbox, is hashed as its words sent as
n - 1 ordinary batches.
A refactor that keeps every load but changes a mailbox fails there.

The same per-phase digests pin smm's symmetric entry (``row_counts``) to
its general path: on symmetric operands its ledger and deliveries are the
general ones without the ``distribute`` and ``stats`` phases.

Run as a script, ``python3 tests/test_golden_ledgers.py`` prints, per
case, the golden rows that differ from a fresh run, the rounds before
and after, and whether the deliveries still match; a case with no
golden CSV yet is printed as "no golden" with its full ledger and
delivery digest, so it can be reviewed before it is recorded.  It
writes no file.
"""

import difflib
import hashlib
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cliquemul import oracle
from cliquemul.cli import generate_graph, generate_matrix
from cliquemul.engine import CliqueEngine
from cliquemul.graph_suite import apsp, count_4_cycles
from cliquemul.graphs import Graph
from cliquemul.semiring import semiring_by_name
from cliquemul.smm import smm
from cliquemul.sparse import DimensionError
from cliquemul.triangles import list_triangles

GOLDEN = Path(__file__).parent / "golden"
COUNT = semiring_by_name("count")
MIN_PLUS = semiring_by_name("minplus")


def _operands(n, nz, seed):
    return generate_matrix(n, nz, seed, COUNT), generate_matrix(n, nz, seed + 1, COUNT)


def smm_sparse(engine):
    smm(*_operands(16, round(0.3 * 16 * 16), 1), engine)


def smm_uneven(engine):
    # 23 nodes split (4, 5): bands of 5 or 6 rows and 4 or 5 columns, and
    # 20 groups, 17 of one node and 3 of two.
    smm(*_operands(23, round(0.3 * 23 * 23), 1), engine)


def smm_full(engine):
    smm(*_operands(16, 16 * 16, 3), engine)


def triangles_27(engine):
    list_triangles(generate_graph(27, 120, 5, directed=True), engine)


def triangles_64(engine):
    list_triangles(generate_graph(64, 400, 6), engine)


def triangles_65(engine):
    # Not a cube: q = 4 classes of 16 or 17 vertices on the graph's 65 nodes.
    list_triangles(generate_graph(65, 400, 7, directed=True), engine)


def four_cycles_then_apsp(engine):
    # The first seeded graph that is connected, so apsp runs.
    G = next(G for G in (generate_graph(16, 30, seed) for seed in range(100))
             if max(oracle.apsp_bfs(G)[0]) < float("inf"))
    count_4_cycles(G, engine)
    apsp(G, engine)


CASES = {
    "smm_n16_d03": (16, smm_sparse),
    "smm_n16_full": (16, smm_full),
    "smm_n23_d03": (23, smm_uneven),
    "triangles_n27": (27, triangles_27),
    "triangles_n64": (64, triangles_64),
    "triangles_n65": (65, triangles_65),
    "four_cycles_apsp_n16": (16, four_cycles_then_apsp),
}


class DigestEngine(CliqueEngine):
    """An engine that hashes each phase's delivery as it is made.

    A broadcast lays out no mailbox, so it is hashed as the mailbox of
    its words sent as n - 1 ordinary batches on a fresh engine."""

    def __init__(self, n: int):
        super().__init__(n)
        self.digest = hashlib.sha256()

    def _hash(self, label, mail):
        h = self.digest
        h.update(label.encode())
        for column in (mail.src, mail.tag, mail.i1, mail.i2):
            h.update(column.dtype.str.encode())
            h.update(column.tobytes())
        h.update(mail.val.dtype.str.encode())
        h.update(repr(mail.val.tolist()).encode())
        h.update(repr(list(mail.bounds)).encode())

    def run_phase(self, label, handler):
        rounds = super().run_phase(label, handler)
        self._hash(label, self.inboxes)
        return rounds

    def run_broadcast(self, label, handler):
        words = super().run_broadcast(label, handler)
        n, replay = self.n, CliqueEngine(self.n)
        replay.run_phase(label, lambda v, state, inbox: (
            [u for u in range(n) if u != v], *words[v]))
        self._hash(label, replay.inboxes)
        return words


def run_case(case: str) -> DigestEngine:
    n, run = CASES[case]
    engine = DigestEngine(n)
    run(engine)
    return engine


def golden_deliveries() -> dict[str, str]:
    return json.loads((GOLDEN / "deliveries.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_ledger_matches_golden(case):
    engine = run_case(case)
    assert engine.ledger.to_csv() == (GOLDEN / f"{case}.csv").read_text(encoding="ascii")
    assert engine.digest.hexdigest() == golden_deliveries()[case]


def test_every_phase_moves_messages():
    # A phase stays only if it moves data no node can derive locally: a
    # label that sends nothing in every case where it appears is plumbing.
    moved: dict[str, bool] = {}
    for case in CASES:
        for row in (GOLDEN / f"{case}.csv").read_text(encoding="ascii").splitlines()[1:]:
            label, *_, total_msgs = row.split(",")
            moved[label] = moved.get(label, False) or int(total_msgs) > 0
    assert [label for label, any_msgs in moved.items() if not any_msgs] == []


class PhaseDigests(DigestEngine):
    """A ``DigestEngine`` that keeps one digest per phase, in ledger order."""

    def __init__(self, n: int):
        super().__init__(n)
        self.deliveries = []

    def _hash(self, label, mail):
        self.digest = hashlib.sha256()
        super()._hash(label, mail)
        self.deliveries.append(self.digest.hexdigest())


def row_sizes(M):
    return [len(M.row(v)[0]) for v in range(M.n)]


# Symmetric operands on an empty graph, a complete one, non-cube sizes
# and seeded random graphs.
SYMMETRIC_GRAPHS = {
    "K1": Graph.undirected(1, []),
    "empty9": Graph.undirected(9, []),
    "K8": Graph.undirected(8, [(u, v) for u in range(8) for v in range(u + 1, 8)]),
    "star12": Graph.undirected(12, [(0, v) for v in range(1, 12)]),
    "path10": Graph.undirected(10, [(v, v + 1) for v in range(9)]),
    "G20": generate_graph(20, 60, 3),
    "G23": generate_graph(23, 100, 4),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
def test_symmetric_entry_is_the_general_path_without_its_prologue(name):
    # Counting A*A as in count_4_cycles, min-plus M*M and M^2*M as in apsp.
    G = SYMMETRIC_GRAPHS[name]
    A = G.to_adjacency(COUNT)
    M = G.to_adjacency(MIN_PLUS, explicit_diagonal=True)
    M2 = oracle.dense_multiply(M, M)
    for S, T in ((A, A), (M, M), (M2, M)):
        runs = []
        for counts in (None, (row_sizes(S), row_sizes(T))):
            engine = PhaseDigests(G.n)
            runs.append((smm(S, T, engine, row_counts=counts), engine.deliveries))
        (general, general_digests), (symmetric, symmetric_digests) = runs
        kept = [k for k, r in enumerate(general.records)
                if r.label not in ("distribute", "stats")]
        assert [r.label for r in general.records][:2] == ["distribute", "stats"]
        assert symmetric.records == [general.records[k] for k in kept]
        assert symmetric_digests == [general_digests[k] for k in kept]
        assert symmetric.product == general.product == oracle.dense_multiply(S, T)


def test_symmetric_entry_checks_row_counts_before_any_phase():
    A = SYMMETRIC_GRAPHS["G20"].to_adjacency(COUNT)
    sizes = row_sizes(A)
    wrong = [sizes[:-1], sizes[:-1] + [sizes[-1] + 1], [0] * 20]
    for counts in [(w, sizes) for w in wrong] + [(sizes, w) for w in wrong]:
        engine = CliqueEngine(20)
        with pytest.raises(DimensionError, match="row counts"):
            smm(A, A, engine, row_counts=counts)
        assert engine.ledger.records == []


def rounds_of(rows: list[str]) -> int:
    return sum(int(row.split(",")[1]) for row in rows[1:])


def print_row_diff() -> None:
    for case in sorted(CASES):
        engine = run_case(case)
        new = engine.ledger.to_csv().splitlines()
        path = GOLDEN / f"{case}.csv"
        if not path.exists():
            print(f"{case}: no golden, {rounds_of(new)} rounds, "
                  f"deliveries {engine.digest.hexdigest()}")
            for line in new:
                print("  " + line)
            continue
        old = path.read_text(encoding="ascii").splitlines()
        same = engine.digest.hexdigest() == golden_deliveries().get(case)
        print(f"{case}: {rounds_of(old)} -> {rounds_of(new)} rounds, deliveries "
              f"{'match' if same else 'differ'}")
        for line in difflib.unified_diff(old, new, lineterm="", n=0):
            if line[:1] in "+-" and line[:3] not in ("+++", "---"):
                print("  " + line)


if __name__ == "__main__":
    print_row_diff()
