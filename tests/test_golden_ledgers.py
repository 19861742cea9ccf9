"""Pinned per-phase ledgers of the protocol pipelines.

Each case runs one pipeline on a fresh engine and compares the ledger CSV
byte for byte with ``tests/golden/<case>.csv``.  A refactor that moves,
adds or drops a single message changes some phase's load or message count
and fails here, even when the output stays correct.

Run as a script, ``python3 tests/test_golden_ledgers.py`` prints, per
case, the golden rows that differ from a fresh run and the rounds before
and after; it writes no file.
"""

import difflib
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cliquemul import oracle
from cliquemul.cli import generate_graph, generate_matrix
from cliquemul.engine import CliqueEngine
from cliquemul.graph_suite import apsp, count_4_cycles
from cliquemul.semiring import semiring_by_name
from cliquemul.smm import smm
from cliquemul.triangles import list_triangles

GOLDEN = Path(__file__).parent / "golden"
COUNT = semiring_by_name("count")


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


def four_cycles_then_apsp(engine):
    # The first seeded graph that is connected, so apsp runs.
    G = next(G for G in (generate_graph(16, 30, seed) for seed in range(100))
             if max(oracle.apsp_bfs_row(G, 0)) < float("inf"))
    count_4_cycles(G, engine)
    apsp(G, engine)


CASES = {
    "smm_n16_d03": (16, smm_sparse),
    "smm_n16_full": (16, smm_full),
    "smm_n23_d03": (23, smm_uneven),
    "triangles_n27": (27, triangles_27),
    "triangles_n64": (64, triangles_64),
    "four_cycles_apsp_n16": (16, four_cycles_then_apsp),
}


def ledger_csv(case: str) -> str:
    n, run = CASES[case]
    engine = CliqueEngine(n)
    run(engine)
    return engine.ledger.to_csv()


@pytest.mark.parametrize("case", sorted(CASES))
def test_ledger_matches_golden(case):
    assert ledger_csv(case) == (GOLDEN / f"{case}.csv").read_text(encoding="ascii")


def test_every_phase_moves_messages():
    # A phase stays only if it moves data no node can derive locally: a
    # label that sends nothing in every case where it appears is plumbing.
    moved: dict[str, bool] = {}
    for case in CASES:
        for row in (GOLDEN / f"{case}.csv").read_text(encoding="ascii").splitlines()[1:]:
            label, *_, total_msgs = row.split(",")
            moved[label] = moved.get(label, False) or int(total_msgs) > 0
    assert [label for label, any_msgs in moved.items() if not any_msgs] == []


def print_row_diff() -> None:
    for case in sorted(CASES):
        old = (GOLDEN / f"{case}.csv").read_text(encoding="ascii").splitlines()
        new = ledger_csv(case).splitlines()
        before, after = (sum(int(row.split(",")[1]) for row in rows[1:])
                         for rows in (old, new))
        print(f"{case}: {before} -> {after} rounds")
        for line in difflib.unified_diff(old, new, lineterm="", n=0):
            if line[:1] in "+-" and line[:3] not in ("+++", "---"):
                print("  " + line)


if __name__ == "__main__":
    print_row_diff()
