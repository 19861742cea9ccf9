"""Graph algorithms layered on the simulator and the multiplication pipeline.

Both rest on two facts of ``smm``.  After a product, node v holds row v
of the result, because ``sbmm.reduce`` sends each partial to its row
owner.  And every operand here is a power of one symmetric matrix, so
row v is also column v: each product takes ``smm``'s symmetric entry
(``row_counts``), which skips ``distribute`` and ``stats``, once the row
sizes are common knowledge from a broadcast these algorithms make anyway.

4-cycle counting uses the closed form (trace(A^4) - sum_v (2 d_v^2 - d_v)) / 8.
Node v broadcasts its degree (``c4.degrees``), the row sizes of A, so
every node knows the degree term.  The graph is undirected, so A^2 is
symmetric and trace(A^4) = sum_v sum_u A^2[v][u]^2: after ``smm(A, A)``
node v broadcasts its row's sum of squares (``c4.terms``).

Unweighted all-pairs shortest paths multiplies the min-plus adjacency
matrix M, zero diagonal explicit, into successive powers, never squaring,
since powers of a sparse matrix may be dense but each step keeps one
operand sparse.  Row v of M^k holds the vertices within k hops of v, so it
is full exactly when k >= ecc(v).  Before the first product and after
each one, node v broadcasts a status word (``apsp.status``) from its row:
its size, its largest distance and whether it grew.  All rows full ends
the loop, after max(D - 1, 0) products for diameter D; a row neither full
nor growing means the graph is disconnected.  The status sizes are the
product's row counts: M's from the first word, M^k's from the latest.
M^k commutes with M, so it is symmetric too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import CliqueEngine, PhaseRecord, engine_for
from .graphs import DisconnectedGraphError, Graph
from .semiring import counting_semiring, min_plus_semiring
from .smm import smm
from .sparse import SparseMatrix

_DEGREE, _TERMS, _STATUS = 99, 100, 101


@dataclass
class FourCycleResult:
    count: int
    trace4: int
    degree_term: int
    records: list[PhaseRecord]


def count_4_cycles(G: Graph, engine: CliqueEngine | None = None) -> FourCycleResult:
    """Number of simple 4-cycles in an undirected graph."""
    if not G.is_symmetric():
        raise ValueError("4-cycle counting expects both orientations of every edge")
    engine = engine_for(G.n, engine)
    mark = engine.ledger.mark()
    A = G.to_adjacency(counting_semiring())
    degrees = [w[1] for w in engine.run_broadcast(
        "c4.degrees", lambda v, state, inbox: (_DEGREE, G.d_out(v), 0, 0))]
    sq = smm(A, A, engine=engine, row_counts=(degrees, degrees)).product

    # Node v holds row v of A^2, so its term is local.  An entry of A^2 is
    # at most n, so its int64 sum of squares is exact.
    def terms(v, state, inbox):
        return (_TERMS, int((sq.row(v)[1] ** 2).sum()), 0, 0)

    trace4 = sum(w[1] for w in engine.run_broadcast("c4.terms", terms))
    degree_term = sum(2 * d * d - d for d in degrees)
    numerator = trace4 - degree_term
    if numerator % 8 != 0:
        raise RuntimeError(
            f"cycle formula produced non-multiple of 8: {trace4} - {degree_term}")
    return FourCycleResult(numerator // 8, trace4, degree_term, engine.ledger.since(mark))


@dataclass
class ApspResult:
    dist: SparseMatrix
    diameter: int
    multiplications: int
    records: list[PhaseRecord] = field(default_factory=list)


def apsp(G: Graph, engine: CliqueEngine | None = None) -> ApspResult:
    """Hop distances between all vertex pairs of a connected undirected graph."""
    if not G.is_symmetric():
        raise ValueError("shortest paths expect an undirected graph")
    n = G.n
    engine = engine_for(n, engine)
    mark = engine.ledger.mark()
    M = G.to_adjacency(min_plus_semiring(), explicit_diagonal=True)
    power = M
    mults = 0

    # Node v holds row v of the current power, and its own last word gives
    # the previous size (1 for M^0 = I).
    sizes, m_sizes = [1] * n, None

    def status(v, state, inbox):
        cols, vals = power.row(v)
        return (_STATUS, len(cols), int(vals.max()), int(len(cols) > sizes[v]))

    while True:
        words = engine.run_broadcast("apsp.status", status)
        if all(w[1] == n for w in words):
            break
        sizes = [w[1] for w in words]
        stalled = [v for v, w in enumerate(words) if w[1] < n and not w[3]]
        if stalled:
            raise DisconnectedGraphError(
                f"graph is disconnected: vertex {stalled[0]} reaches only "
                f"{words[stalled[0]][1]} of {n} vertices")
        m_sizes = m_sizes or sizes
        power = smm(power, M, engine=engine, row_counts=(sizes, m_sizes)).product
        mults += 1
    return ApspResult(power, max(w[2] for w in words), mults, engine.ledger.since(mark))
