"""Sequential reference implementations used to check the protocols.

Everything here is deliberately independent of the simulator: dense
arithmetic straight from the definitions, subgraph listing by explicit
enumeration, and shortest paths by breadth-first search.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .graphs import Graph
from .sparse import DimensionError, SparseMatrix

# The counting kernel is one int64 matrix product: every product and
# partial sum of a cell is at most n * max|S| * max|T| in absolute value,
# so while that is at most INT64_MAX int64 never wraps and the saturating
# definition never clamps.  Boolean products count true terms, at most n.
# Min-plus adds two values in float64, exact while |v| <= 2**20.
_INT64_MAX = 2**63 - 1
_FAST_VALUE_BOUND = 2**20
# Elements of the (rows, n, n) broadcast tensor the min-plus kernel builds
# per chunk: 2**22 float64 values is 32 MiB whatever n is.
_MINPLUS_CHUNK_ELEMENTS = 2**22


def dense_multiply_reference(S: SparseMatrix, T: SparseMatrix) -> SparseMatrix:
    """Triple-loop product over the semiring, straight from the definition."""
    if S.n != T.n:
        raise DimensionError("operand sizes differ")
    if S.semiring.name != T.semiring.name:
        raise DimensionError("operand semirings differ")
    sr = S.semiring
    add, mul, omitted = sr.add, sr.mul, sr.omitted
    n = S.n
    ds = S.to_dense()
    dt = T.to_dense()
    out = [[omitted] * n for _ in range(n)]
    for i in range(n):
        si = ds[i]
        oi = out[i]
        for j in range(n):
            acc = omitted
            for k in range(n):
                acc = add(acc, mul(si[k], dt[k][j]))
            oi[j] = acc
    return SparseMatrix.from_entries(
        n, sr, [(i, j, v) for i, row in enumerate(out) for j, v in enumerate(row)])


def _peak(M: SparseMatrix) -> int:
    """max |v| over M's stored values, and at least 1."""
    return max(1, int(M.vals.max(initial=0)), -int(M.vals.min(initial=0)))


def _fast_eligible(S: SparseMatrix, T: SparseMatrix) -> bool:
    name = S.semiring.name
    if name == "boolean":
        return True
    if name == "counting":
        return S.n * _peak(S) * _peak(T) <= _INT64_MAX
    if name == "min-plus":
        # Stored values are never the omitted one (inf).
        return all(((M.vals >= -_FAST_VALUE_BOUND) & (M.vals <= _FAST_VALUE_BOUND)).all()
                   for M in (S, T))
    return False


def _to_array(M: SparseMatrix, dtype, fill):
    arr = np.full((M.n, M.n), fill, dtype=dtype)
    arr[np.repeat(np.arange(M.n), np.diff(M.ptr)), M.cols] = M.vals
    return arr


def _fast_multiply(S: SparseMatrix, T: SparseMatrix) -> SparseMatrix:
    sr = S.semiring
    n = S.n
    if sr.name == "min-plus":
        a = _to_array(S, np.float64, np.inf)
        b = _to_array(T, np.float64, np.inf)
        prod = np.empty((n, n), dtype=np.float64)
        rows = max(1, _MINPLUS_CHUNK_ELEMENTS // (n * n))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            prod[lo:hi] = np.min(a[lo:hi, :, None] + b[None, :, :], axis=1)
    else:                               # boolean or counting
        prod = _to_array(S, np.int64, 0) @ _to_array(T, np.int64, 0)
        if sr.name == "boolean":
            prod = prod > 0
    i, j = np.nonzero(prod != sr.omitted)
    values = prod[i, j].tolist()
    if sr.name == "min-plus":
        # A sum of ints is an int, as the scalar semiring gives it.
        values = [int(v) if v == int(v) else v for v in values]
    return SparseMatrix.from_entries(n, sr, zip(i.tolist(), j.tolist(), values))


def dense_multiply(S: SparseMatrix, T: SparseMatrix) -> SparseMatrix:
    """Reference product; dispatches to a vectorized kernel when safe.

    The kernels cover the three shipped semirings, at any n, within a
    value envelope where int64/float arithmetic provably matches the
    saturating definition; everything else falls back to the triple
    loop.  The kernels themselves are cross-checked against the triple
    loop in the test suite.
    """
    if S.n != T.n:
        raise DimensionError("operand sizes differ")
    if S.semiring.name != T.semiring.name:
        raise DimensionError("operand semirings differ")
    if _fast_eligible(S, T):
        return _fast_multiply(S, T)
    return dense_multiply_reference(S, T)


def enumerate_triangles(G: Graph) -> set[tuple[int, int, int]]:
    """All directed 3-cycles, canonicalized to start at the smallest vertex."""
    found = set()
    for u in range(G.n):
        for v in G.out_adj[u]:
            for w in G.out_adj[v]:
                if w != u and G.has_edge(w, u):
                    found.add(canonical_triangle(u, v, w))
    return found


def canonical_triangle(u: int, v: int, w: int) -> tuple[int, int, int]:
    """Rotate the directed cycle u->v->w->u so the smallest vertex leads."""
    if u <= v and u <= w:
        return (u, v, w)
    if v <= u and v <= w:
        return (v, w, u)
    return (w, u, v)


def enumerate_4_cycles(G: Graph) -> int:
    """Count 4-vertex undirected cycles by checking every vertex 4-subset.

    The graph must be symmetric; each 4-subset contributes one cycle per
    perfect matching of its vertices into two opposite pairs (up to 3).
    """
    n = G.n
    cnt = 0
    # Pairings of {a,b,c,d} into a 4-cycle: opposite pairs determine it.
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for d in range(c + 1, n):
                    # opposite pairs (a,b)|(c,d): cycle a-c-b-d-a
                    if G.has_edge(a, c) and G.has_edge(c, b) and G.has_edge(b, d) and G.has_edge(d, a):
                        cnt += 1
                    # opposite pairs (a,c)|(b,d): cycle a-b-c-d-a
                    if G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d) and G.has_edge(d, a):
                        cnt += 1
                    # opposite pairs (a,d)|(b,c): cycle a-b-d-c-a
                    if G.has_edge(a, b) and G.has_edge(b, d) and G.has_edge(d, c) and G.has_edge(c, a):
                        cnt += 1
    return cnt


def apsp_bfs(G: Graph) -> list[list[float]]:
    """All-pairs hop distances by BFS from every source; inf if unreachable."""
    dist = []
    for s in range(G.n):
        row = [math.inf] * G.n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in G.out_adj[u]:
                if row[v] == math.inf:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist.append(row)
    return dist
