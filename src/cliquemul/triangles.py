"""Deterministic distributed triangle listing.

The vertex set is cut three ways, so n must be a cube, q = n^(1/3); any
other graph runs padded with isolated vertices up to the next cube:

* V-partition: q degree-balanced vertex classes;
* D-partition: n^(2/3) fixed consecutive blocks of q nodes, the worker
  teams;
* N-sets: each (V_i, V_j) class pair is split into node groups whose
  outgoing edge mass into V_j is bounded by beta = m/n^(2/3) + n.

All three balanced splits (classes, N-sets, team path parts) are
``partition.balanced_assignment``.

Every triangle (x, y, z) with x in some N-set assigned to team D_k and
y in the matching V_j is found by the team member responsible for the
path part containing z: LearnEdges ships E(N, V_j) to the whole team,
LearnPaths ships E(V_j, P) and E(P, V_i) to the responsible member, and
a local scan of the ``lp.respond`` mailbox closes the cycle, so no phase
follows it.  The N-sets are processed in two halves of six phases each,
so each team handles at most one N-set per half.

LearnPaths is smm's fragment dealing and routing run on the adjacency
matrix, with the vertex classes as bands.  Node v holds its column and
row (its in- and out-arcs) and the degree words give their lengths, so
the fragments are dealt once, before the halves, which both request from
the same buckets.  Class count tables, the N-id table (from the
``tri.ncounts`` words) and team path partitions come from
``CliqueEngine.derive_per_group``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import CliqueEngine, PhaseRecord, SimulationError, engine_for
from .graphs import Graph
from .oracle import canonical_triangle
from .partition import balanced_assignment
from .smm import (_ENT_S, _ENT_T, bucket_fragments, deal_fragments,
                  fragment_requests, fragment_responder)

_VC, _NC, _LOAD, _PKT, _EDGE, _PSUM = range(200, 206)


def _cube_side(n: int) -> int:
    """The least q with q^3 >= n: the class count of the padded graph."""
    q = 1
    while q ** 3 < n:
        q += 1
    return q


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
    halves: list[list[tuple[int, int, int]]]  # half -> team -> N-id
    p_parts: list[dict[int, list[list[int]]]] = field(default_factory=list)


@dataclass
class TriangleResult:
    triangles: set[tuple[int, int, int]]
    state: TriplePartitionState
    records: list[PhaseRecord]

    def rounds(self) -> int:
        return sum(r.rounds for r in self.records)


def list_triangles(G: Graph, engine: CliqueEngine | None = None) -> TriangleResult:
    """All directed triangles of G, canonicalized and deduplicated.

    A graph whose vertex count is not a cube runs padded with isolated
    vertices, which lie on no triangle, up to the next cube; ``engine``
    must have that many nodes.
    """
    q = _cube_side(G.n)
    if q ** 3 != G.n:
        G = G.padded(q ** 3)
    n = G.n
    Q = q * q                     # n^(2/3): team count and class size
    m = G.m
    engine = engine_for(n, engine)
    mark = engine.ledger.mark()
    alpha = Fraction(m, q) + n
    beta = Fraction(m, Q) + n

    # --- degree broadcast: the V-partition becomes common knowledge -------
    words = engine.run_broadcast(
        "tri.degrees", lambda v, state: (_LOAD, G.d_in(v), G.d_out(v), 0))
    degrees = [w[1] + w[2] for w in words]      # in- plus out-degree
    v_sets = balanced_assignment(degrees, q, 2 * n)
    v_of = [0] * n
    member_pos = [0] * n
    for i, members in enumerate(v_sets):
        for pos, u in enumerate(members):
            v_of[u] = i
            member_pos[u] = pos

    # Per-class degree profiles: node v's arcs from and to each class.
    in_cls = [[0] * q for _ in range(n)]
    out_cls = [[0] * q for _ in range(n)]
    for v in range(n):
        for u in G.in_adj[v]:
            in_cls[v][v_of[u]] += 1
        for u in G.out_adj[v]:
            out_cls[v][v_of[u]] += 1

    # --- per-class out-edge counts feed the N-set partitions --------------
    def emit_vcounts(v, state):
        counts = out_cls[v]
        # Own class only; the free self-message keeps every member's table
        # complete.
        return [(u, _VC, j, counts[j], 0)
                for u in v_sets[v_of[v]] for j in range(q)]

    engine.run_ingest_emit("tri.vcounts", None, emit_vcounts)

    def class_n_sets(i, inbox):
        """N-partitions of class i towards every class j."""
        members = v_sets[i]
        table: dict[int, list[int]] = {u: [0] * q for u in members}
        for src, tag, j, cnt, _ in inbox:
            if tag == _VC:
                table[src][j] = cnt
        groups = []
        for j in range(q):
            m_ij = sum(table[u][j] for u in members)
            if m_ij == 0:
                groups.append([])
                continue
            parts = math.ceil(Fraction(m_ij * Q, m))
            weights = [table[u][j] for u in members]
            groups.append([[members[idx] for idx in grp]
                           for grp in balanced_assignment(weights, parts, max(weights))])
        return groups

    # Members of one class all receive the same count table.
    per_class = engine.derive_per_group(dict(enumerate(v_sets)), class_n_sets)
    n_sets: dict[tuple[int, int], list[list[int]]] = {
        (i, j): groups for i, by_j in per_class.items() for j, groups in enumerate(by_j)}

    # --- LearnPaths' fragments, dealt once for both halves ----------------
    # Column v of the adjacency matrix is v's in-arcs and row v its
    # out-arcs (both sorted); the degree words carry their lengths.
    def own_lines(v, state):
        return [(u, True) for u in G.in_adj[v]], [(u, True) for u in G.out_adj[v]]

    ownership = deal_fragments(engine, [w[1] for w in words], [w[2] for w in words],
                               "tri.lp.", own_lines)

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

    # Fragment endpoints are filed by class, the filter of every response.
    engine.run_ingest_emit("tri.ncounts", bucket_fragments(ownership, v_of, v_of),
                           emit_ncounts)

    def n_id_list(_key, inbox):
        return sorted((v_of[src], j, ell) for src, tagw, j, cnt, _ in inbox
                      if tagw == _NC for ell in range(cnt))

    # Every N-id, from the count words: position pos of every class reports
    # to position pos of every class, so all n nodes receive the same q^2.
    n_ids = engine.derive_per_group({0: range(n)}, n_id_list)[0]
    assert len(n_ids) <= 2 * Q
    first = (len(n_ids) + 1) // 2
    halves = [n_ids[:first], n_ids[first:]]
    # Team r of half t works on halves[t][r]; teams past the half's end idle.
    team_of = {nid: (t, r) for t, half in enumerate(halves) for r, nid in enumerate(half)}

    state_view = TriplePartitionState(
        n=n, m=m, q=q, alpha=alpha, beta=beta, v_sets=v_sets, v_of=v_of,
        n_sets=n_sets, n_ids=n_ids, halves=halves)

    found: set[tuple[int, int, int]] = set()
    for t, teams in enumerate(halves):
        tag = f"tri.{t + 1}."

        # --- LearnEdges: packet loads, allocation, team forwarding --------
        # Node v's packets for this half, in edge order: (head, team).
        pkts: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for v in range(n):
            for u in G.out_adj[v]:
                ell = node_n_of[v].get(v_of[u])
                owner = team_of.get((v_of[v], v_of[u], ell))
                if owner is not None and owner[0] == t:
                    pkts[v].append((u, owner[1]))

        loads = [w[1] for w in engine.run_broadcast(
            tag + "le.load", lambda v, state: (_LOAD, len(pkts[v]), 0, 0))]
        cap, starts = packet_allocation(loads)
        engine.run_ingest_emit(tag + "le.alloc", None, lambda v, state: [
            ((starts[v] + idx) // cap, _PKT, u, team, 0)
            for idx, (u, team) in enumerate(pkts[v])])
        del pkts  # sent; not kept while forwarding multiplies them q-fold

        def forward(v, state, inbox):
            out = []
            for src, tagw, u, team, _ in inbox:
                if tagw == _PKT:
                    out.extend((member, _EDGE, src, u, 0)
                               for member in range(team * q, (team + 1) * q))
            return out

        engine.run_phase(tag + "le.forward", forward)

        # --- path-count scatter: every active team balances its path work -
        learned: list[list[tuple[int, int]]] = [[] for _ in range(n)]

        def psums(v, state, inbox):
            # The word carries the edge endpoints; the sender is just the
            # allocation node that held the packet.
            learned[v] = [(i1, i2) for _, tagw, i1, i2, _ in inbox if tagw == _EDGE]
            out = []
            for team, (i_d, j_d, _) in enumerate(teams):
                s = in_cls[v][j_d] + out_cls[v][i_d]
                out.extend((member, _PSUM, team, s, 0)
                           for member in range(team * q, (team + 1) * q))
            return out

        engine.run_phase(tag + "psums", psums)

        def team_paths(team, inbox):
            """The team's path partition from its members' path counts."""
            scalars = [0] * n
            for src, tagw, tm, s, _ in inbox:
                if tagw == _PSUM and tm == team:
                    scalars[src] = s
            return balanced_assignment(scalars, q, 2 * n)

        # Members of one team all receive the same path counts.
        active = {team: range(team * q, (team + 1) * q) for team in range(len(teams))}
        p_parts = engine.derive_per_group(active, team_paths)
        state_view.p_parts.append(p_parts)

        # --- LearnPaths: request the path parts' lines from the dealt buckets
        def emit_requests(v, state):
            team, pos = divmod(v, q)
            if team >= len(teams):
                return []
            return fragment_requests(ownership, p_parts[team][pos], None)

        engine.run_ingest_emit(tag + "lp.request", None, emit_requests)

        def requester_bands(src):
            if src // q >= len(teams):
                raise SimulationError(f"idle team member {src} sent a request")
            # In-edges of the path part come from V_j, out-edges go to V_i.
            i_d, j_d, _ = teams[src // q]
            return j_d, i_d

        engine.run_phase(tag + "lp.respond", fragment_responder(ownership, requester_bands))

        # --- close the cycles locally over the delivered path edges -------
        # Learned edges are freed node by node as they are scanned.
        for inbox, edges in zip(engine.drain_inboxes(), learned):
            into_path: dict[int, list[int]] = {}
            from_path = set()
            for _, tagw, i1, i2, _ in inbox:
                if tagw == _ENT_S:     # edge (i1 in V_j) -> (i2 in path part)
                    into_path.setdefault(i1, []).append(i2)
                elif tagw == _ENT_T:   # edge (i1 in path part) -> (i2 in V_i)
                    from_path.add((i1, i2))
            for x, y in edges:
                for z in into_path.get(y, ()):
                    if (z, x) in from_path:
                        found.add(canonical_triangle(x, y, z))
            edges.clear()

    return TriangleResult(found, state_view, engine.ledger.since(mark))
