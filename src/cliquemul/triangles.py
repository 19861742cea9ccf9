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
follows it.  The N-ids are split into two halves, so each team handles
at most one N-set per half.  The halves share every phase but the
response: a word carries its half or both halves' fields, and each half
closes its cycles on its own ``lp.respond`` mailbox.

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
from functools import partial

import numpy as np

from .engine import CliqueEngine, Inbox, PhaseRecord, engine_for
from .graphs import Graph
from .oracle import canonical_triangle
from .partition import balanced_assignment
from .smm import (_ENT_S, _ENT_T, bucket_fragments, deal_fragments,
                  fragment_requests, fragment_responder)

_VC, _NC, _DEG, _PKT, _EDGE, _PSUM = range(200, 206)


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
        "tri.degrees", lambda v, state: (_DEG, G.d_in(v), G.d_out(v), 0))
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
        members = v_sets[v_of[v]]
        # Own class only; the free self-message keeps every member's table
        # complete.
        j = np.arange(len(members) * q) % q
        return np.repeat(members, q), _VC, j, np.array(out_cls[v])[j], 0

    engine.run_ingest_emit("tri.vcounts", None, emit_vcounts)

    def class_n_sets(i, inbox):
        """N-partitions of class i towards every class j."""
        members = v_sets[i]
        table: dict[int, list[int]] = {u: [0] * q for u in members}
        for src, tag, j, cnt, _ in inbox.messages():
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
        return [(np.array(adj[v], dtype=np.int64), np.ones(len(adj[v]), dtype=np.bool_))
                for adj in (G.in_adj, G.out_adj)]

    ownership = deal_fragments(engine, [w[1] for w in words], [w[2] for w in words],
                               "tri.lp.", own_lines)

    # --- N-set counts cross the classes; halves and team assignment -------
    def emit_ncounts(v, state):
        targets = [v_sets[tgt_class][member_pos[v]] for tgt_class in range(q)]
        counts = [len(n_sets[(v_of[v], j)]) for j in range(q)]
        j = np.arange(q * q) % q
        return np.repeat(targets, q), _NC, j, np.array(counts)[j], 0

    # Fragment endpoints are filed by class, the filter of every response.
    engine.run_ingest_emit("tri.ncounts", bucket_fragments(ownership, v_of, v_of),
                           emit_ncounts)

    def n_id_list(_key, inbox):
        return sorted((v_of[src], j, ell) for src, tagw, j, cnt, _ in inbox.messages()
                      if tagw == _NC for ell in range(cnt))

    # Every N-id, from the count words: position pos of every class reports
    # to position pos of every class, so all n nodes receive the same q^2.
    n_ids = engine.derive_per_group({0: range(n)}, n_id_list)[0]
    assert len(n_ids) <= 2 * Q
    first = (len(n_ids) + 1) // 2
    halves = [n_ids[:first], n_ids[first:]]
    # Team r of half t works on halves[t][r]; teams past the half's end
    # idle.  dest[v][j] is the (team, half) of v's N-set towards class j.
    dest: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    for t, half in enumerate(halves):
        for r, (i, j, ell) in enumerate(half):
            for u in n_sets[(i, j)][ell]:
                dest[u][j] = (r, t)

    state_view = TriplePartitionState(
        n=n, m=m, q=q, alpha=alpha, beta=beta, v_sets=v_sets, v_of=v_of,
        n_sets=n_sets, n_ids=n_ids, halves=halves)

    # --- LearnEdges, both halves at once: allocation, team forwarding ----
    # Arc (v, u) is a packet for the team of N-id (v_of[v], v_of[u], ell),
    # which sits in one half, so node v's packet count is d_out(v), known
    # to every node from the degree words.
    cap, starts = packet_allocation([w[2] for w in words])

    def allocate(v, state):
        out = G.out_adj[v]
        if not out:
            return None
        teams, halves_of = zip(*(dest[v][v_of[u]] for u in out))
        return ((starts[v] + np.arange(len(out))) // cap, _PKT, out, teams, list(halves_of))

    engine.run_ingest_emit("tri.le.alloc", None, allocate)

    def forward(v, state, inbox):
        pkt = inbox.tag == _PKT
        team = inbox.i2[pkt]
        member = (team * q).repeat(q) + np.arange(len(team) * q) % q
        return (member, _EDGE, inbox.src[pkt].repeat(q), inbox.i1[pkt].repeat(q),
                inbox.val[pkt].repeat(q))

    engine.run_phase("tri.le.forward", forward)

    # --- path-count scatter: every active team balances its path work -----
    # learned[t][v]: node v's learned arcs of half t, as (x, y) columns.
    learned: list[list] = [[None] * n for _ in halves]
    members = np.arange(len(halves[0]) * q)

    def psums(v, state, inbox):
        # The word carries the edge endpoints and half; the sender is just
        # the allocation node that held the packet.
        edge = inbox.tag == _EDGE
        x, y, half = inbox.i1[edge], inbox.i2[edge], inbox.val[edge]
        for t in range(len(halves)):
            learned[t][v] = (x[half == t], y[half == t])
        # One word per team member carries both halves' path counts; a team
        # past the second half's end sends 0 for it.
        s0, s1 = ([in_cls[v][j_d] + out_cls[v][i_d] for i_d, j_d, _ in teams] + [0]
                  for teams in halves)
        team = members // q
        return members, _PSUM, team, np.array(s0)[team], np.array(s1)[team]

    engine.run_phase("tri.psums", psums)

    def team_paths(t, team, inbox):
        """The team's half-t path partition from its members' path counts."""
        scalars = np.zeros(n, dtype=np.int64)
        mine = (inbox.tag == _PSUM) & (inbox.i1 == team)
        scalars[inbox.src[mine]] = (inbox.i2, inbox.val)[t][mine]
        return balanced_assignment(scalars.tolist(), q, 2 * n)

    # Members of one team all receive the same path counts.
    for t, teams in enumerate(halves):
        active = {team: range(team * q, (team + 1) * q) for team in range(len(teams))}
        state_view.p_parts.append(engine.derive_per_group(active, partial(team_paths, t)))

    # --- LearnPaths: one request word per owner asks for both halves' lines
    engine.run_ingest_emit("tri.lp.request", None, lambda v, state: fragment_requests(
        ownership, [(parts[v // q][v % q] if v // q in parts else [], None)
                    for parts in state_view.p_parts]))

    def responder(half):
        # In-edges of the path part come from V_j, out-edges go to V_i; an
        # idle team member has no band.
        bands = np.full((2, n), -1, dtype=np.int64)
        for team, (i_d, j_d, _) in enumerate(half):
            bands[:, team * q:(team + 1) * q] = [[j_d], [i_d]]
        return fragment_responder(ownership, bands[0], bands[1])

    answer = [responder(half) for half in halves]

    def words_of_half(inbox, s_mask, t_mask):
        asked = (s_mask | t_mask) != 0
        return Inbox(inbox.src[asked], inbox.tag[asked], s_mask[asked], t_mask[asked],
                     inbox.val[asked])

    def respond_first(v, state, inbox):
        # Half 1's masks, above half 0's two bits, wait for the second respond.
        state["lp_req"] = words_of_half(inbox, inbox.i1 >> 2, inbox.i2 >> 2)
        return answer[0](v, state, words_of_half(inbox, inbox.i1 & 3, inbox.i2 & 3))

    def respond_second(v, state, inbox):
        out = answer[1](v, state, state.pop("lp_req"))
        del state["buckets"]       # no later phase reads them
        return out

    # --- each half closes its cycles locally over its delivered path edges
    found: set[tuple[int, int, int]] = set()
    for t, respond in enumerate((respond_first, respond_second)):
        engine.run_phase(f"tri.{t + 1}.lp.respond", respond)
        # Learned edges are freed node by node as they are scanned.
        mail = engine.drain_inboxes()
        for v, (xs, ys) in enumerate(learned[t]):
            into_path: dict[int, list[int]] = {}
            from_path = set()
            for _, tagw, i1, i2, _ in mail[v].messages():
                if tagw == _ENT_S:     # edge (i1 in V_j) -> (i2 in path part)
                    into_path.setdefault(i1, []).append(i2)
                elif tagw == _ENT_T:   # edge (i1 in path part) -> (i2 in V_i)
                    from_path.add((i1, i2))
            for x, y in zip(xs.tolist(), ys.tolist()):
                for z in into_path.get(y, ()):
                    if (z, x) in from_path:
                        found.add(canonical_triangle(x, y, z))
            learned[t][v] = None
        del mail

    return TriangleResult(found, state_view, engine.ledger.since(mark))
