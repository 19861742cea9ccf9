"""Deterministic distributed triangle listing.

The vertex set is cut three ways (n must be a perfect cube, q = n^(1/3)):

* V-partition: q degree-balanced vertex classes;
* D-partition: n^(2/3) fixed consecutive blocks of q nodes, the worker
  teams;
* N-sets: each (V_i, V_j) class pair is split into node groups whose
  outgoing edge mass into V_j is bounded by beta = m/n^(2/3) + n.

Every triangle (x, y, z) with x in some N-set assigned to team D_k and
y in the matching V_j is found by the team member responsible for the
path part containing z: LearnEdges ships E(N, V_j) to the whole team,
LearnPaths ships E(V_j, P) and E(P, V_i) to the responsible member, and
a local scan closes the cycle.  The N-sets are processed in two halves
so each team handles at most one N-set per half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import CliqueEngine, PhaseRecord, SimulationError
from .graphs import Graph
from .oracle import canonical_triangle
from .partition import balanced_assignment, padded_balanced_groups
from .smm import _SUB_S, _SUB_T, compute_sending

_VC, _NC, _LOAD, _PKT, _EDGE, _PSUM, _REQ_S, _REQ_T, _ES, _ET = range(200, 210)


def cube_root(n: int) -> int | None:
    q = round(n ** (1 / 3))
    for cand in (q - 1, q, q + 1):
        if cand >= 1 and cand ** 3 == n:
            return cand
    return None


def next_cube(n: int) -> int:
    q = 1
    while q ** 3 < n:
        q += 1
    return q ** 3


def packet_allocation(loads: list[int]) -> tuple[int, list[int]]:
    """Consecutive-chunk assignment of the global packet sequence.

    Node v's packets occupy global positions [starts[v], starts[v] +
    loads[v]); the packet at position p goes to node p // cap with cap =
    ceil(total/n).  Every node receives at most cap <= total/n + 1
    packets, uniform loads map each node onto its own packets, and a
    single hot sender is spread over ceil(total/cap) nodes.
    """
    n = len(loads)
    total = sum(loads)
    cap = -(-total // n) if total else 1
    starts = []
    acc = 0
    for t in loads:
        starts.append(acc)
        acc += t
    return cap, starts


@dataclass
class TriplePartitionState:
    """Audit view of every partition the protocol agreed on."""

    n: int
    m: int
    q: int                               # n^(1/3)
    alpha: Fraction                      # m/n^(1/3) + n
    beta: Fraction                       # m/n^(2/3) + n
    v_sets: list[list[int]]              # q degree-balanced classes
    v_of: list[int]                      # vertex -> class index
    n_sets: dict[tuple[int, int], list[list[int]]]   # (i, j) -> node groups
    n_ids: list[tuple[int, int, int]]    # lex-ordered (i, j, ell)
    halves: list[list[tuple[int, int, int]]]
    assignments: list[list[tuple[int, int, int] | None]]  # half -> team -> N-id
    p_parts: list[dict[int, list[list[int]]]] = field(default_factory=list)


@dataclass
class TriangleResult:
    triangles: set[tuple[int, int, int]]
    state: TriplePartitionState
    records: list[PhaseRecord]

    def rounds(self) -> int:
        return sum(r.rounds for r in self.records)


def _phase(engine, label, ingest, emit):
    def handler(v, state, inbox):
        if ingest is not None:
            ingest(v, state, inbox)
        return emit(v, state) if emit is not None else []

    return engine.run_phase(label, handler)


def list_triangles(G: Graph, engine: CliqueEngine | None = None,
                   pad_cube: bool = False) -> TriangleResult:
    """All directed triangles of G, canonicalized and deduplicated."""
    q = cube_root(G.n)
    if q is None:
        if not pad_cube:
            raise ValueError(
                f"vertex count {G.n} is not a perfect cube; enable padding")
        G = G.padded(next_cube(G.n))
        q = cube_root(G.n)
    n = G.n
    Q = q * q                     # n^(2/3): team count and class size
    m = G.m
    if engine is None:
        engine = CliqueEngine(n)
    elif engine.n != n:
        raise ValueError("engine size does not match the (padded) graph")
    mark = engine.ledger.mark()
    alpha = Fraction(m, q) + n
    beta = Fraction(m, Q) + n

    # --- degree broadcast: the V-partition becomes common knowledge -------
    words = [None] * n

    def degree_handler(v, state, inbox):
        w = (_LOAD, G.d_in(v), G.d_out(v), 0)
        words[v] = w
        return [(u,) + w for u in range(n) if u != v]

    engine.run_phase("tri.degrees", degree_handler)
    degree_sums = [w[1] + w[2] for w in words]
    v_sets = balanced_assignment(degree_sums, q, 2 * n)
    v_of = [0] * n
    member_pos = [0] * n
    for i, members in enumerate(v_sets):
        for pos, u in enumerate(members):
            v_of[u] = i
            member_pos[u] = pos

    # --- per-class out-edge counts feed the N-set partitions --------------
    def emit_vcounts(v, state):
        counts = [0] * q
        for u in G.out_adj[v]:
            counts[v_of[u]] += 1
        # Own class only; the free self-message keeps every member's table
        # complete.
        return [(u, _VC, j, counts[j], 0)
                for u in v_sets[v_of[v]] for j in range(q)]

    _phase(engine, "tri.vcounts", None, emit_vcounts)

    # Members of one class all receive identical count tables, so the
    # class-local N-partitions are derived once from the first member's
    # mailbox.
    n_sets: dict[tuple[int, int], list[list[int]]] = {}
    for i, members in enumerate(v_sets):
        table: dict[int, list[int]] = {u: [0] * q for u in members}
        for src, tag, j, cnt, _ in engine.inboxes[members[0]]:
            if tag == _VC:
                table[src][j] = cnt
        for j in range(q):
            m_ij = sum(table[u][j] for u in members)
            if m_ij == 0:
                n_sets[(i, j)] = []
                continue
            parts = math.ceil(Fraction(m_ij * Q, m))
            n_sets[(i, j)] = padded_balanced_groups(
                members, [table[u][j] for u in members], parts)

    node_n_of: list[dict[int, int]] = [dict() for _ in range(n)]  # v -> {j: ell}
    for (i, j), groups in n_sets.items():
        for ell, grp in enumerate(groups):
            for u in grp:
                node_n_of[u][j] = ell

    # --- N-set counts cross the classes; halves and team assignment -------
    def emit_ncounts(v, state):
        i = v_of[v]
        pos = member_pos[v]
        out = []
        for tgt_class in range(q):
            tgt = v_sets[tgt_class][pos]
            out.extend((tgt, _NC, j, len(n_sets[(i, j)]), 0) for j in range(q))
        return out

    _phase(engine, "tri.ncounts", None, emit_ncounts)

    n_ids = sorted((i, j, ell)
                   for (i, j), groups in n_sets.items()
                   for ell in range(len(groups)))
    assert len(n_ids) <= 2 * Q
    first = (len(n_ids) + 1) // 2
    halves = [n_ids[:first], n_ids[first:]]
    assignments: list[list[tuple[int, int, int] | None]] = []
    team_of: dict[tuple[int, int, int], tuple[int, int]] = {}
    for t, half in enumerate(halves):
        teams: list[tuple[int, int, int] | None] = [None] * Q
        for r, nid in enumerate(half):
            teams[r] = nid
            team_of[nid] = (t, r)
        assignments.append(teams)

    state_view = TriplePartitionState(
        n=n, m=m, q=q, alpha=alpha, beta=beta, v_sets=v_sets, v_of=v_of,
        n_sets=n_sets, n_ids=n_ids, halves=halves, assignments=assignments)

    # Per-class degree profiles, reused by both halves' path-count phases.
    in_cls = [[0] * q for _ in range(n)]
    out_cls = [[0] * q for _ in range(n)]
    for v in range(n):
        for u in G.in_adj[v]:
            in_cls[v][v_of[u]] += 1
        for u in G.out_adj[v]:
            out_cls[v][v_of[u]] += 1

    found: set[tuple[int, int, int]] = set()
    for t in range(2):
        _run_half(engine, G, state_view, node_n_of, team_of,
                  in_cls, out_cls, t, found)

    return TriangleResult(found, state_view, engine.ledger.since(mark))


def _run_half(engine: CliqueEngine, G: Graph, S: TriplePartitionState,
              node_n_of: list[dict[int, int]],
              team_of: dict[tuple[int, int, int], tuple[int, int]],
              in_cls: list[list[int]], out_cls: list[list[int]],
              t: int, found: set) -> None:
    n, q, Q = S.n, S.q, S.q * S.q
    v_of = S.v_of
    teams = S.assignments[t]
    tag = f"tri.{t + 1}."

    def packets_of(v):
        """This node's information packets for the current half, edge order."""
        pkts = []
        for u in G.out_adj[v]:
            j = v_of[u]
            ell = node_n_of[v].get(j)
            if ell is None:
                continue
            owner = team_of.get((v_of[v], j, ell))
            if owner is not None and owner[0] == t:
                pkts.append((u, owner[1]))
        return pkts

    # --- LearnEdges: packet loads, allocation, team forwarding ------------
    load_words = [None] * n

    def load_handler(v, state, inbox):
        state["pkts"] = packets_of(v)
        w = (_LOAD, len(state["pkts"]), 0, 0)
        load_words[v] = w
        return [(u,) + w for u in range(n) if u != v]

    engine.run_phase(tag + "le.load", load_handler)
    loads = [w[1] for w in load_words]
    cap, starts = packet_allocation(loads)

    def emit_alloc(v, state):
        base = starts[v]
        return [((base + idx) // cap, _PKT, u, team, 0)
                for idx, (u, team) in enumerate(state.pop("pkts"))]

    _phase(engine, tag + "le.alloc", None, emit_alloc)

    def ingest_pkts(v, state, inbox):
        state["_pkts"] = [w for w in inbox if w[1] == _PKT]

    def emit_forward(v, state):
        out = []
        for src, _tagw, u, team, _ in state.pop("_pkts"):
            out.extend((member, _EDGE, src, u, 0)
                       for member in range(team * q, (team + 1) * q))
        return out

    _phase(engine, tag + "le.forward", ingest_pkts, emit_forward)

    # --- path-count scatter: every active team balances its path work -----
    def ingest_edges(v, state, inbox):
        # The word carries the edge endpoints; the sender is just the
        # allocation node that held the packet.
        state["learned1"] = [(i1, i2) for _, tagw, i1, i2, _ in inbox
                             if tagw == _EDGE]

    def emit_psums(v, state):
        out = []
        for team in range(Q):
            nid = teams[team]
            if nid is None:
                continue
            i_d, j_d, _ = nid
            s = in_cls[v][j_d] + out_cls[v][i_d]
            out.extend((member, _PSUM, team, s, 0)
                       for member in range(team * q, (team + 1) * q))
        return out

    _phase(engine, tag + "psums", ingest_edges, emit_psums)

    # Team members receive identical scalars; derive each team's path
    # partition from its first member's mailbox.
    p_parts: dict[int, list[list[int]]] = {}
    for team in range(Q):
        if teams[team] is None:
            continue
        scalars = [0] * n
        for src, tagw, tm, s, _ in engine.inboxes[team * q]:
            if tagw == _PSUM and tm == team:
                scalars[src] = s
        p_parts[team] = balanced_assignment(scalars, q, 2 * n)
    S.p_parts.append(p_parts)

    # --- LearnPaths: reuse the fragment machinery with lhs = rhs = A ------
    for v in range(n):
        row = [(u, True) for u in G.out_adj[v]]
        engine.states[v]["Sp_row"] = row
        engine.states[v]["Tp_row"] = row

    def drop_psums(v, state, inbox):
        pass  # path counts were consumed by the partition derivation above

    ownership = compute_sending(engine, tag + "lp.", drop_psums)
    side_s, side_t = ownership.s, ownership.t

    def ingest_frags(v, state, inbox):
        # Endpoints are bucketed by class, the filter every response uses.
        sub_s = {qid: [[] for _ in range(q)] for qid in side_s.owned[v]}
        sub_t = {qid: [[] for _ in range(q)] for qid in side_t.owned[v]}
        for _, tagw, qid, pos, _val in inbox:
            if tagw == _SUB_S:
                sub_s[qid][v_of[pos]].append(pos)
            elif tagw == _SUB_T:
                sub_t[qid][v_of[pos]].append(pos)
        state["sub_s"] = sub_s
        state["sub_t"] = sub_t

    def emit_requests(v, state):
        team, pos = divmod(v, q)
        if teams[team] is None:
            return []
        out = []
        for side, rtag in ((side_s, _REQ_S), (side_t, _REQ_T)):
            asked = set()
            for ell in p_parts[team][pos]:
                for qid in side.by_line[ell]:
                    u = side.owner[qid]
                    if (u, ell) not in asked:
                        asked.add((u, ell))
                        out.append((u, rtag, ell, 0, 0))
        return out

    _phase(engine, tag + "lp.request", ingest_frags, emit_requests)

    def ingest_requests(v, state, inbox):
        state["_reqs"] = list(inbox)

    def emit_responses(v, state):
        sub_s, sub_t = state["sub_s"], state["sub_t"]
        owned_s = {side_s.origin[qid] for qid in sub_s}
        owned_t = {side_t.origin[qid] for qid in sub_t}
        out = []
        for src, rtag, ell, _, _val in state.pop("_reqs"):
            nid = teams[src // q]
            if nid is None:
                raise SimulationError(f"idle team member {src} sent a request")
            i_d, j_d, _ = nid
            if rtag == _REQ_S:
                if ell not in owned_s:
                    raise SimulationError(
                        f"node {v} asked for in-edges of {ell} it does not hold")
                for qid in side_s.by_line[ell]:
                    if qid in sub_s:
                        out.extend((src, _ES, pos, ell, 0) for pos in sub_s[qid][j_d])
            else:
                if ell not in owned_t:
                    raise SimulationError(
                        f"node {v} asked for out-edges of {ell} it does not hold")
                for qid in side_t.by_line[ell]:
                    if qid in sub_t:
                        out.extend((src, _ET, ell, pos, 0) for pos in sub_t[qid][i_d])
        return out

    _phase(engine, tag + "lp.respond", ingest_requests, emit_responses)

    # --- close the cycles locally -----------------------------------------
    outputs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]

    def collect(v, state, inbox):
        into_path: dict[int, list[int]] = {}
        from_path = set()
        for _, tagw, i1, i2, _ in inbox:
            if tagw == _ES:        # edge (i1 in V_j) -> (i2 in path part)
                into_path.setdefault(i1, []).append(i2)
            elif tagw == _ET:      # edge (i1 in path part) -> (i2 in V_i)
                from_path.add((i1, i2))
        for x, y in state.pop("learned1"):
            for z in into_path.get(y, ()):
                if (z, x) in from_path:
                    outputs[v].append(canonical_triangle(x, y, z))

    _phase(engine, tag + "collect", collect, None)
    for lst in outputs:
        found.update(lst)
