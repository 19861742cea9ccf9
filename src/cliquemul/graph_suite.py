"""Graph algorithms layered on the simulator and the multiplication pipeline.

4-cycle counting uses the closed form (trace(A^4) - sum_v (2 d_v^2 - d_v)) / 8
with trace(A^4) = trace(A^2 * A^2), so only one matrix product runs at full
cost; the trace itself needs two cheap communication waves.  Unweighted
all-pairs shortest paths raises the min-plus adjacency matrix to the power
2*ecc by successive multiplications, never squaring, since powers of a
sparse matrix may be dense but each step keeps one operand sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import CliqueEngine, PhaseRecord
from .graphs import DisconnectedGraphError, Graph
from .semiring import counting_semiring, min_plus_semiring
from .smm import smm
from .sparse import DimensionError, SparseMatrix

_B_COL, _DIAG, _VISIT = 100, 101, 102


@dataclass
class TraceResult:
    value: int
    records: list[PhaseRecord]


def trace_product(A: SparseMatrix, B: SparseMatrix,
                  engine: CliqueEngine | None = None) -> TraceResult:
    """trace(A*B), known to every node after two waves.

    Wave 1 scatters B's rows so node v holds column v of B; wave 2 has
    each node broadcast its diagonal dot product; zero diagonal values
    stay silent.
    """
    if A.n != B.n:
        raise DimensionError("operand sizes differ")
    if A.semiring.name != "counting" or B.semiring.name != "counting":
        raise DimensionError("trace accumulation requires the counting semiring")
    n = A.n
    sr = A.semiring
    if engine is None:
        engine = CliqueEngine(n)
    mark = engine.ledger.mark()
    for v in range(n):
        engine.states[v]["A_row"] = A.rows[v]
        engine.states[v]["B_row"] = B.rows[v]

    def emit_cols(v, state):
        return [(c, _B_COL, v, 0, val) for c, val in state["B_row"]]

    engine.run_ingest_emit("trace.coldist", None, emit_cols)

    diag_total = 0

    def handler(v, state, inbox):
        nonlocal diag_total
        b_col = {i1: val for _, tag, i1, _, val in inbox if tag == _B_COL}
        d = sr.omitted
        for k, aval in state["A_row"]:
            bval = b_col.get(k)
            if bval is not None:
                d = sr.add(d, sr.mul(aval, bval))
        diag_total += d
        if d == 0:
            return []
        return [(u, _DIAG, 0, 0, d) for u in range(n) if u != v]

    engine.run_phase("trace.diag", handler)
    engine.drain_inboxes()
    return TraceResult(diag_total, engine.ledger.since(mark))


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
    n = G.n
    if engine is None:
        engine = CliqueEngine(n)
    mark = engine.ledger.mark()

    # Degrees become common knowledge in one broadcast wave.
    def degree_word(v, state):
        return (_DIAG, G.d_out(v), 0, 0)

    engine.run_broadcast("deg.bcast", degree_word)
    engine.drain_inboxes()
    degree_term = sum(2 * d * d - d for d in (G.d_out(v) for v in range(n)))

    A = G.to_adjacency(counting_semiring())
    sq = smm(A, A, engine=engine)
    tr = trace_product(sq.product, sq.product, engine=engine)
    numerator = tr.value - degree_term
    if numerator % 8 != 0:
        raise RuntimeError(
            f"cycle formula produced non-multiple of 8: {tr.value} - {degree_term}")
    return FourCycleResult(numerator // 8, tr.value, degree_term,
                           engine.ledger.since(mark))


def bfs_ecc(G: Graph, root: int, engine: CliqueEngine | None = None) -> int:
    """Eccentricity of root by synchronous flooding, one round per level.

    The stop test is global knowledge the ledger does not charge: after
    each wave the driver reads ``engine.inboxes`` to count the nodes the
    wave newly reached, and ends the loop once every node is reached (or
    raises once a wave reaches none).  A node-local stop would cost one
    broadcast round per level, so the recorded rounds are the flooding
    waves alone.
    """
    if not G.is_symmetric():
        raise ValueError("eccentricity expects an undirected graph")
    n = G.n
    if engine is None:
        engine = CliqueEngine(n)
    for v in range(n):
        engine.states[v]["dist"] = 0 if v == root else None
    if n == 1:
        return 0
    reached = 1
    level = 0
    while reached < n:
        level += 1

        def handler(v, state, inbox, lvl=level):
            # Flood messages sent in wave lvl-1 arrive at this boundary.
            if state["dist"] is None and inbox:
                state["dist"] = lvl - 1
            if state["dist"] == lvl - 1:
                return [(u, _VISIT, 0, 0, 0) for u in G.out_adj[v]]
            return []

        engine.run_phase(f"bfs.wave{level}", handler)
        newly = sum(1 for v in range(n)
                    if engine.states[v]["dist"] is None and engine.inboxes[v])
        if newly == 0:
            raise DisconnectedGraphError(
                f"graph is disconnected: {n - reached} vertices unreachable from {root}")
        reached += newly
    # Zero-message closing phase: the deepest nodes ingest their pending
    # flood words; charges no rounds.
    def closing(v, state, inbox):
        if state["dist"] is None and inbox:
            state["dist"] = level
        return []

    engine.run_phase("bfs.final", closing)
    return level


@dataclass
class ApspResult:
    dist: SparseMatrix
    ecc: int
    multiplications: int
    records: list[PhaseRecord] = field(default_factory=list)


def apsp(G: Graph, engine: CliqueEngine | None = None) -> ApspResult:
    """Hop distances between all vertex pairs of a connected undirected graph."""
    if not G.is_symmetric():
        raise ValueError("shortest paths expect an undirected graph")
    n = G.n
    if engine is None:
        engine = CliqueEngine(n)
    mark = engine.ledger.mark()
    ecc = bfs_ecc(G, 0, engine=engine)
    M = G.to_adjacency(min_plus_semiring(), explicit_diagonal=True)
    power = M
    mults = 0
    for _ in range(2 * ecc - 1):
        power = smm(power, M, engine=engine).product
        mults += 1
    return ApspResult(power, ecc, mults, engine.ledger.since(mark))
