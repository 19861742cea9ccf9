import math
import random

import pytest

from cliquemul import oracle
from cliquemul.cli import generate_matrix
from cliquemul.graphs import Graph
from cliquemul.semiring import (INT64_MAX, boolean_semiring, counting_semiring,
                                min_plus_semiring)
from cliquemul.sparse import DimensionError, SparseMatrix
from test_smm import MAX_MIN

COUNT = counting_semiring()
MINPLUS = min_plus_semiring()
BOOL = boolean_semiring()


def path4():
    return Graph.undirected(4, [(0, 1), (1, 2), (2, 3)])


def test_identity_times_matrix():
    M = SparseMatrix.from_entries(4, COUNT, [(0, 2, 5), (3, 1, -2)])
    I = SparseMatrix.from_entries(4, COUNT, [(i, i, 1) for i in range(4)])
    assert oracle.dense_multiply(I, M) == M
    assert oracle.dense_multiply(M, I) == M


def test_min_plus_two_hop_distances_on_path():
    A = path4().to_adjacency(MINPLUS, explicit_diagonal=True)
    A2 = oracle.dense_multiply(A, A).to_dense()
    assert A2[0][0] == 0
    assert A2[0][1] == 1
    assert A2[0][2] == 2
    assert A2[0][3] == math.inf   # still out of 2-hop range
    assert A2[1][3] == 2


def test_boolean_two_step_reachability_on_dag():
    # arcs 0->1->2->3 plus 0->2; bool (A+I)^2 = reach within two steps
    G = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    B = G.to_adjacency(BOOL, explicit_diagonal=True)
    closure = oracle.dense_multiply(B, B).to_dense()
    reach2 = {(i, j) for i in range(4) for j in range(4)
              if closure[i][j] is True}
    assert reach2 == {(0, 0), (1, 1), (2, 2), (3, 3),
                      (0, 1), (1, 2), (2, 3), (0, 2),
                      (0, 3), (1, 3)}


def test_fast_path_matches_reference():
    rng = random.Random(5)
    for sr in (BOOL, COUNT, MINPLUS):
        for _ in range(4):
            n = rng.randint(2, 10)
            def rand(density):
                entries = []
                for i in range(n):
                    for j in range(n):
                        if rng.random() < density:
                            if sr.name == "boolean":
                                entries.append((i, j, True))
                            elif sr.name == "counting":
                                entries.append((i, j, rng.randint(-9, 9)))
                            else:
                                entries.append((i, j, float(rng.randint(0, 9))))
                return SparseMatrix.from_entries(n, sr, entries)
            S, T = rand(0.4), rand(0.4)
            assert oracle.dense_multiply(S, T) == oracle.dense_multiply_reference(S, T)


def test_user_semiring_takes_the_reference_loop():
    rng = random.Random(4)
    S, T = (SparseMatrix.from_entries(
        6, MAX_MIN, [(i, j, rng.randint(0, 9)) for i in range(6) for j in range(6)
                     if rng.random() < 0.4]) for _ in range(2))
    assert not oracle._fast_eligible(S, T)
    assert oracle.dense_multiply(S, T) == oracle.dense_multiply_reference(S, T)
    assert oracle.dense_multiply(S, T).nz() > 0


def test_operands_of_different_semirings_raise():
    S = SparseMatrix.from_entries(2, COUNT, [(0, 1, 2)])
    with pytest.raises(DimensionError, match="operand semirings differ"):
        oracle.dense_multiply(S, SparseMatrix.from_entries(2, MINPLUS, [(1, 0, 3)]))


def test_min_plus_fast_path_in_row_chunks(monkeypatch):
    # chunks of 2 and 3 rows (the last one short) must give the same
    # product as one whole-matrix reduction and as the triple loop
    rng = random.Random(6)
    n = 7
    def rand():
        return SparseMatrix.from_entries(n, MINPLUS, [
            (i, j, float(rng.randint(0, 9)))
            for i in range(n) for j in range(n) if rng.random() < 0.5])
    S, T = rand(), rand()
    whole = oracle.dense_multiply(S, T)
    assert whole == oracle.dense_multiply_reference(S, T)
    for rows in (2, 3):
        monkeypatch.setattr(oracle, "_MINPLUS_CHUNK_ELEMENTS", rows * n * n)
        assert oracle.dense_multiply(S, T) == whole


@pytest.mark.parametrize("sr", [BOOL, COUNT, MINPLUS], ids=lambda sr: sr.name)
def test_fast_path_has_no_size_bound(monkeypatch, sr):
    # The kernels have no size bound; the triple loop would take minutes
    # at this n.
    n = 1100
    S, T = generate_matrix(n, 4 * n, 1, sr), generate_matrix(n, 4 * n, 2, sr)

    def triple_loop(S, T):
        raise AssertionError("dense_multiply ran the triple loop")

    monkeypatch.setattr(oracle, "dense_multiply_reference", triple_loop)
    got = oracle.dense_multiply(S, T)
    # Sparse row-by-row product from the scalar definition.
    rows, want = T.rows, {}
    for i, k, a in S.entries():
        for j, b in rows[k]:
            want[i, j] = sr.add(want.get((i, j), sr.omitted), sr.mul(a, b))
    assert got == SparseMatrix.from_entries(n, sr, [(i, j, v) for (i, j), v in want.items()])


def test_counting_fast_path_up_to_the_int64_envelope(monkeypatch):
    # n * max|S| * max|T| = 7 * 7 * (INT64_MAX // 49) is INT64_MAX exactly,
    # and so is every cell: the int64 product is exact.  With one T entry
    # one larger the bound is past INT64_MAX and column 0 sums to
    # INT64_MAX + 7, which int64 wraps and the definition saturates, so
    # only the triple loop may run.
    n, b = 7, INT64_MAX // 49
    S = SparseMatrix.from_entries(n, COUNT, [(i, j, 7) for i in range(n) for j in range(n)])
    reference, calls = oracle.dense_multiply_reference, []
    monkeypatch.setattr(oracle, "dense_multiply_reference",
                        lambda S, T: calls.append(1) or reference(S, T))
    for top, triple_loop in ((b, False), (b + 1, True)):
        T = SparseMatrix.from_entries(n, COUNT, [(i, j, top if i == j == 0 else b)
                                                 for i in range(n) for j in range(n)])
        calls.clear()
        got = oracle.dense_multiply(S, T)
        assert bool(calls) is triple_loop
        assert got == reference(S, T)
        assert got.to_dense()[0][0] == INT64_MAX


def test_triangle_enumeration_k3_both_ways():
    G = Graph.undirected(3, [(0, 1), (1, 2), (0, 2)])
    tris = oracle.enumerate_triangles(G)
    assert tris == {(0, 1, 2), (0, 2, 1)}
    assert {tuple(sorted(t)) for t in tris} == {(0, 1, 2)}


def test_triangle_enumeration_k4():
    G = Graph.undirected(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    tris = oracle.enumerate_triangles(G)
    assert len({tuple(sorted(t)) for t in tris}) == 4


def test_dag_has_no_triangles():
    G = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert oracle.enumerate_triangles(G) == set()


def test_canonical_triangle_rotation():
    assert oracle.canonical_triangle(5, 1, 3) == (1, 3, 5)
    assert oracle.canonical_triangle(3, 5, 1) == (1, 3, 5)
    assert oracle.canonical_triangle(1, 5, 3) == (1, 5, 3)  # opposite orientation


def test_four_cycle_counts():
    C4 = Graph.undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    K4 = Graph.undirected(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    tree = Graph.undirected(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    K5 = Graph.undirected(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert oracle.enumerate_4_cycles(C4) == 1
    assert oracle.enumerate_4_cycles(K4) == 3
    assert oracle.enumerate_4_cycles(tree) == 0
    assert oracle.enumerate_4_cycles(K5) == 15   # C(5,4) subsets, 3 each


def test_apsp_bfs():
    d = oracle.apsp_bfs(path4())
    assert d[0][3] == 3 and d[0][0] == 0 and d[1][2] == 1
    K5 = Graph.undirected(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    dk = oracle.apsp_bfs(K5)
    assert all(dk[i][j] == 1 for i in range(5) for j in range(5) if i != j)
    two = Graph.undirected(4, [(0, 1), (2, 3)])
    assert oracle.apsp_bfs(two)[0][2] == math.inf
