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
that member closes the cycle by a local join (``close_cycles``) of its
learned arcs with its ``lp.respond`` mailbox, so no phase follows it.
Each rotation of a triangle closes at exactly one member, and only the
rotation led by its smallest vertex is kept, so every triangle is
listed once with no deduplication.  The N-ids are split into two
halves, so each team handles at most one N-set per half.  The halves
share every phase but the response: a word carries its half or both
halves' fields, and each half closes its cycles on its own
``lp.respond`` mailbox.

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


def close_cycles(inbox: Inbox, xs: np.ndarray, ys: np.ndarray, pos: np.ndarray,
                 width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One team member's triangles (x, y, z) led by their smallest vertex.

    ``xs``/``ys`` are the member's learned arcs x -> y with x < y, x in V_i
    and y in V_j; its ``lp.respond`` inbox holds the S arcs y -> z (y in
    V_j, z in its path part) and the T arcs z -> x (x in V_i).  ``pos[u]``
    is u's position in its class, below ``width``.  The join expands each
    learned arc to the z's of its y and keeps it where z -> x was
    delivered and x < z.  Each rotation of a triangle closes at exactly
    one member, so keeping the rotation that starts at its smallest vertex
    lists it once.
    """
    is_s = inbox.tag == _ENT_S
    is_t = inbox.tag == _ENT_T
    # S arcs sorted by their tail: arc x -> y meets the run of its y.
    tail = inbox.i1[is_s]
    order = np.argsort(tail)
    tail, heads = tail[order], inbox.i2[is_s][order]
    lo = np.searchsorted(tail, ys)
    count = np.searchsorted(tail, ys, side="right") - lo
    closing = np.zeros((len(pos), width), dtype=np.bool_)   # [z, pos[x]]: z -> x
    closing[inbox.i1[is_t], pos[inbox.i2[is_t]]] = True
    row = np.repeat(np.arange(len(xs)), count)
    z = heads[np.arange(len(row)) + np.repeat(lo - np.cumsum(count) + count, count)]
    x = xs[row]
    keep = (x < z) & closing[z, pos[x]]
    hit = row[keep]
    return xs[hit], ys[hit], z[keep]


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
    """All directed triangles of G, each listed once, as the rotation led
    by its smallest vertex.

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
    cls_of = np.zeros(n, dtype=np.int64)       # u's class
    pos = np.zeros(n, dtype=np.int64)          # u's position in its class
    for i, members in enumerate(v_sets):
        cls_of[members] = i
        pos[members] = np.arange(len(members))
    v_of = cls_of.tolist()

    # Per-class degree profiles: in_cls[v, i] counts v's arcs from class i,
    # out_cls[v, i] its arcs to class i.
    tails, heads = np.array(G.edges, dtype=np.int64).reshape(-1, 2).T
    in_cls = np.zeros((n, q), dtype=np.int64)
    out_cls = np.zeros((n, q), dtype=np.int64)
    np.add.at(in_cls, (heads, cls_of[tails]), 1)
    np.add.at(out_cls, (tails, cls_of[heads]), 1)

    # --- per-class out-edge counts feed the N-set partitions --------------
    def emit_vcounts(v, state):
        members = v_sets[v_of[v]]
        # Own class only; the free self-message keeps every member's table
        # complete.
        j = np.arange(len(members) * q) % q
        return np.repeat(members, q), _VC, j, out_cls[v, j], 0

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
        targets = [v_sets[tgt_class][pos[v]] for tgt_class in range(q)]
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
    # learned[t][v]: node v's learned arcs x -> y of half t with x < y, as
    # (x, y) columns; only those start a listed rotation of a triangle.
    learned: list[list] = [[None] * n for _ in halves]
    members = np.arange(len(halves[0]) * q)
    team = members // q
    # path_counts[t, v, r]: node v's arcs from V_j plus its arcs to V_i, for
    # team r of half t working on (i, j, ell); 0 past the half's end.
    path_counts = np.zeros((len(halves), n, len(halves[0])), dtype=np.int64)
    for t, half in enumerate(halves):
        for r, (i_d, j_d, _) in enumerate(half):
            path_counts[t, :, r] = in_cls[:, j_d] + out_cls[:, i_d]

    def psums(v, state, inbox):
        # The word carries the edge endpoints and half; the sender is just
        # the allocation node that held the packet.
        edge = inbox.tag == _EDGE
        x, y, half = inbox.i1[edge], inbox.i2[edge], inbox.val[edge]
        lead = x < y
        for t in range(len(halves)):
            keep = lead & (half == t)
            learned[t][v] = (x[keep], y[keep])
        # One word per team member carries both halves' path counts.
        return members, _PSUM, team, path_counts[0, v, team], path_counts[1, v, team]

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
    engine.run_ingest_emit("tri.lp.request", None, fragment_requests(
        ownership, [([parts[v // q][v % q] if v // q in parts else [] for v in range(n)], None)
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

    # --- each half closes its cycles locally, node by node ----------------
    none = np.zeros(0, dtype=np.int64)
    found = [(none, none, none)]
    for t, respond in enumerate((respond_first, respond_second)):
        engine.run_phase(f"tri.{t + 1}.lp.respond", respond)
        # Learned edges are freed node by node as they are joined.
        mail = engine.drain_inboxes()
        for v, (xs, ys) in enumerate(learned[t]):
            inbox = mail[v]
            if len(xs) and len(inbox):
                found.append(close_cycles(inbox, xs, ys, pos, Q))
            learned[t][v] = None
        del mail

    triangles = set(zip(*(np.concatenate(col).tolist() for col in zip(*found))))
    return TriangleResult(triangles, state_view, engine.ledger.since(mark))
