"""Deterministic distributed triangle listing.

The vertex set is cut three ways, with q the largest integer with
q^3 <= n, so q = n^(1/3) at a cube n:

* V-partition: q degree-balanced vertex classes of floor(n/q) or
  ceil(n/q) vertices;
* N-sets: each (V_i, V_j) class pair is split into node groups whose
  outgoing edge mass into V_j is bounded by beta = m/q^2 + n; the
  K <= min(2q^2, n) N-sets are named by their N-ids;
* teams: N-id k's team is the k-th of K consecutive runs of floor(n/K)
  or ceil(n/K) nodes (``smm.grid_cells(n, 1, K)``), at least
  floor(q/2) of them since n >= q^3, so every node works on one N-set.

All three balanced splits (classes, N-sets, team path parts) are
``partition.balanced_assignment``.

Every triangle x -> y -> z -> x with x in some N-set and y in the
matching V_j is found by the member of that N-set's team responsible for
the path part containing z: LearnEdges ships E(N, V_j) to the whole
team, LearnPaths ships E(V_j, P) and E(P, V_i) to the responsible member,
and that member closes the cycle by a local join (``close_cycles``) of
its learned arcs with its ``tri.lp.respond`` mailbox, so no phase follows
it.  Each rotation of a triangle closes at exactly one member, and only
the rotation whose path vertex z is its smallest vertex is kept, listed
as (z, x, y), so every triangle is listed once with no deduplication.
LearnPaths therefore needs only the arcs y -> z with y > z and z -> x
with x > z: each arc in the line of its smaller endpoint, so every arc
is dealt once.

LearnPaths is smm's fragment dealing and routing run on the adjacency
matrix, with the vertex classes as bands.  Node v holds its column and
row (its in-arcs from and out-arcs to higher ids) and the degree words
give their lengths, so the fragments are dealt before the N-ids are
known, in the phase that carries the N-set counts (``tri.lp.subseq``).
LearnEdges' packets, one per arc, ride it too: each names its N-set by
its index within its class pair, and the allocation node, which learns
the N-id table in that phase, forwards it to the N-set's team.  Class
count tables, the N-id table (from the N-set count words) and team path
partitions come from ``CliqueEngine.derive_per_group``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .engine import CliqueEngine, Inbox, PhaseRecord, engine_for, node_dtype
from .graphs import Graph
from .partition import balanced_assignment
from .smm import (_ENT_S, _ENT_T, bucket_fragments, deal_fragments,
                  fragment_requests, fragment_responder, grid_cells, ranges)

_VC, _NC, _DEG, _PKT, _EDGE, _PSUM = range(200, 206)


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
    return cap, list(accumulate(loads, initial=0))[:-1]


def close_cycles(inbox: Inbox, xs: np.ndarray, ys: np.ndarray, pos: np.ndarray,
                 width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One team member's triangles (z, x, y) led by their smallest vertex z.

    ``xs``/``ys`` are the member's learned arcs x -> y, x in V_i and y in
    V_j; its ``lp.respond`` inbox holds the S arcs y -> z (y in V_j, z in
    its path part, y > z) and the T arcs z -> x (x in V_i, x > z).
    ``pos[u]`` is u's position in its class, below ``width``.  The join
    expands each learned arc to the z's of its y and keeps it where
    z -> x was delivered.  Each rotation of a triangle closes at exactly
    one member, and only arcs leaving or entering the path vertex from a
    higher id are delivered, so only the rotation whose path vertex is
    smallest closes, and the triangle is listed once.
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
    z = heads[ranges(lo, count)]
    keep = closing[z, pos[xs[row]]]
    hit = row[keep]
    return z[keep], xs[hit], ys[hit]


@dataclass
class TriplePartitionState:
    """Audit view of every partition the protocol agreed on."""

    n: int
    m: int
    q: int                               # largest q with q^3 <= n
    alpha: Fraction                      # m/q + n
    beta: Fraction                       # m/q^2 + n
    v_sets: list[list[int]]              # q degree-balanced classes
    v_of: list[int]                      # vertex -> class index
    n_sets: dict[tuple[int, int], list[list[int]]]   # (i, j) -> node groups
    n_ids: list[tuple[int, int, int]]    # lex-ordered (i, j, ell)
    team_of: list[int]                   # node -> index of its team's N-id
    p_parts: dict[int, list[list[int]]]  # N-id index -> member -> path part


@dataclass
class TriangleResult:
    triangles: set[tuple[int, int, int]]
    state: TriplePartitionState
    records: list[PhaseRecord]

    def rounds(self) -> int:
        return sum(r.rounds for r in self.records)


def list_triangles(G: Graph, engine: CliqueEngine | None = None) -> TriangleResult:
    """All directed triangles of G, each listed once, as the rotation led
    by its smallest vertex, on an engine of G.n nodes.
    """
    n = G.n
    q = 1
    while (q + 1) ** 3 <= n:
        q += 1
    Q = q * q                     # the N-set scale, half the N-id bound
    m = G.m
    engine = engine_for(n, engine)
    mark = engine.ledger.mark()
    alpha = Fraction(m, q) + n
    beta = Fraction(m, Q) + n

    def higher_lines(v):
        """Node v's adjacency column and row, the only arcs LearnPaths
        ships: its in-arcs from and out-arcs to higher ids, sorted."""
        return [adj[bisect_right(adj, v):] for adj in (G.in_adj[v], G.out_adj[v])]

    # --- degree broadcast: the V-partition becomes common knowledge -------
    # The last field packs the column and row lengths (see the word format
    # in engine.py).
    base = n + 1

    def degree_word(v, state, inbox):
        col, row = map(len, higher_lines(v))
        return _DEG, G.d_in(v), G.d_out(v), col * base + row

    words = engine.run_broadcast("tri.degrees", degree_word)
    degrees = [w[1] + w[2] for w in words]      # in- plus out-degree
    s_nz, t_nz = zip(*(divmod(w[3], base) for w in words))
    v_sets = balanced_assignment(degrees, q, 2 * n)
    cls_of = np.zeros(n, dtype=np.int64)       # u's class
    pos = np.zeros(n, dtype=np.int64)          # u's position in its class
    for i, members in enumerate(v_sets):
        cls_of[members] = i
        pos[members] = np.arange(len(members))
    v_of = cls_of.tolist()

    # Per-class degree profiles: out_cls[v, i] counts v's arcs to class i;
    # col_cls[v, i] the arcs of v's column from class i, row_cls[v, i]
    # those of its row to class i.
    tails, heads = np.array(G.edges, dtype=np.int64).reshape(-1, 2).T
    up = tails > heads                         # arc in its head's column
    out_cls = np.zeros((n, q), dtype=np.int64)
    col_cls = np.zeros((n, q), dtype=np.int64)
    row_cls = np.zeros((n, q), dtype=np.int64)
    np.add.at(out_cls, (tails, cls_of[heads]), 1)
    np.add.at(col_cls, (heads[up], cls_of[tails[up]]), 1)
    np.add.at(row_cls, (tails[~up], cls_of[heads[~up]]), 1)

    # --- per-class out-edge counts feed the N-set partitions --------------
    def emit_vcounts(v, state, inbox):
        members = v_sets[v_of[v]]
        # Own class only; the free self-message keeps every member's table
        # complete.
        j = np.arange(len(members) * q) % q
        return np.repeat(members, q), _VC, j, out_cls[v, j], 0

    engine.run_phase("tri.vcounts", emit_vcounts)

    def class_n_sets(i, inbox):
        """N-partitions of class i towards every class j."""
        members = v_sets[i]
        vc = inbox.tag == _VC
        table = np.zeros((n, q), dtype=np.int64)       # [u, j]: u's arcs into V_j
        table[inbox.src[vc].astype(np.intp), inbox.i1[vc]] = inbox.i2[vc]
        groups = []
        for weights in table[members].T.tolist():
            m_ij = sum(weights)
            if m_ij == 0:
                groups.append([])
                continue
            parts = math.ceil(Fraction(m_ij * Q, m))
            groups.append([[members[idx] for idx in grp]
                           for grp in balanced_assignment(weights, parts, max(weights))])
        return groups

    # Members of one class all receive the same count table.
    per_class = engine.derive_per_group(dict(enumerate(v_sets)), class_n_sets)
    n_sets: dict[tuple[int, int], list[list[int]]] = {
        (i, j): groups for i, by_j in per_class.items() for j, groups in enumerate(by_j)}

    # ell[v, j]: the index of v's N-set towards class j, known to its class.
    ell = np.zeros((n, q), dtype=np.int64)
    for (i, j), groups in n_sets.items():
        for index, members in enumerate(groups):
            ell[members, j] = index

    # --- N-set counts cross the classes, with fragments and packets -------
    # The degree words carry the line lengths, so the fragments are dealt
    # with the counts.
    def own_lines(v, state):
        return [(np.array(ids, dtype=np.int64), np.ones(len(ids), dtype=np.bool_))
                for ids in higher_lines(v)]

    sides, emit_fragments = deal_fragments(n, s_nz, t_nz, own_lines)
    # Arc v -> u is a packet for the team of N-id (v_of[v], v_of[u], ell[v,
    # v_of[u]]), so node v sends d_out(v) packets, a count every node has
    # from the degree words (``packet_allocation``).
    cap, starts = packet_allocation([w[2] for w in words])

    def emit_subseq(v, state, inbox):
        # Position p of class V_i reports to every u with pos[u] % |V_i| == p.
        targets = np.flatnonzero(pos % len(v_sets[v_of[v]]) == pos[v])
        counts = np.array([len(n_sets[(v_of[v], j)]) for j in range(q)])
        j = np.arange(len(targets) * q) % q
        out = np.array(G.out_adj[v], dtype=np.int64)
        # Count words and packets carry no value: False keeps the fragments'
        # bool value column.
        count_words = (np.repeat(targets, q), np.full(len(j), _NC), j, counts[j],
                       np.zeros(len(j), dtype=np.bool_))
        packets = ((starts[v] + np.arange(len(out))) // cap, np.full(len(out), _PKT), out,
                   ell[v, cls_of[out]], np.zeros(len(out), dtype=np.bool_))
        return tuple(map(np.concatenate, zip(count_words, packets,
                                             emit_fragments(v, state, inbox))))

    # LearnPaths' dealing names the phase; counts and packets ride along.
    engine.run_phase("tri.lp.subseq", emit_subseq)

    def n_id_list(_key, inbox):
        nc = inbox.tag == _NC
        cnt = inbox.i2[nc]
        ids = (np.repeat(cls_of[inbox.src[nc].astype(np.intp)], cnt),
               np.repeat(inbox.i1[nc], cnt), ranges(0, cnt))
        order = np.lexsort(ids[::-1])
        return list(zip(*(x[order].tolist() for x in ids)))

    # Every N-id, from the count words: each node hears one member of every
    # class, so all n nodes receive the same q^2.
    n_ids = engine.derive_per_group({0: range(n)}, n_id_list)[0]
    K = len(n_ids)
    assert K <= min(2 * Q, n)
    # N-id k's team is the k-th run of ``grid_cells(n, 1, K)``: floor(n/K)
    # or ceil(n/K) >= floor(q/2) consecutive nodes.  An edgeless graph has
    # no N-ids, so no teams: ``team_of`` is empty and no node asks for paths.
    team_of = grid_cells(n, 1, K)[:, 1] if K else np.zeros(0, dtype=np.int64)
    team_size = np.bincount(team_of, minlength=K)
    team_start = np.cumsum(team_size) - team_size
    i_of, j_of, _ = np.array(n_ids, dtype=np.int64).reshape(-1, 3).T
    # first[i * q + j]: the first N-id of class pair (i, j), in lex order.
    first = np.searchsorted(i_of * q + j_of, np.arange(Q))

    # --- LearnEdges: team forwarding --------------------------------------
    # Fragment endpoints are filed by class, the filter of every response.
    ingest = bucket_fragments(sides, v_of, v_of)

    def forward(v, state, inbox):
        ingest(v, state, inbox)
        pkt = inbox.tag == _PKT
        tail, head = inbox.src[pkt], inbox.i1[pkt]
        # The packet's N-id: one copy per member of its team.
        k = first[cls_of[tail] * q + cls_of[head]] + inbox.i2[pkt]
        copies = team_size[k]
        return (ranges(team_start[k], copies), _EDGE, tail.repeat(copies),
                head.repeat(copies), 0)

    engine.run_phase("tri.le.forward", forward)

    # --- path-count scatter: every team balances its path work ------------
    # learned[v]: node v's learned arcs x -> y, as (x, y) columns.
    learned: list = [None] * n
    # path_counts[v, k]: node v's column entries from V_j plus its row
    # entries to V_i, for N-id k = (i, j, ell).
    path_counts = col_cls[:, j_of] + row_cls[:, i_of]

    def psums(v, state, inbox):
        # The word carries the edge endpoints; the sender is just the
        # allocation node that held the packet.
        edge = inbox.tag == _EDGE
        learned[v] = (inbox.i1[edge], inbox.i2[edge])
        # Every team member gets v's path count for its team's N-id.
        return np.arange(len(team_of)), _PSUM, path_counts[v, team_of], 0, 0

    engine.run_phase("tri.psums", psums)

    def team_paths(k, inbox):
        """Team k's path partition, one part per member, from the path counts."""
        scalars = np.zeros(n, dtype=np.int64)
        scalars[inbox.src.astype(np.intp)] = inbox.i1
        return balanced_assignment(scalars.tolist(), int(team_size[k]), 2 * n)

    # Members of one team all receive the same path counts.
    p_parts = engine.derive_per_group(
        {k: range(team_start[k], team_start[k] + team_size[k]) for k in range(K)}, team_paths)

    # --- LearnPaths: each member asks for the lines of its path part ------
    # holder[k, ell]: the member of team k whose path part holds line ell.
    holder = np.empty((K, n), dtype=node_dtype(n))
    for k, parts in p_parts.items():
        for place, part in enumerate(parts):
            holder[k, part] = team_start[k] + place
    every = [np.ones((K, len(side.origin)), dtype=np.bool_) for side in sides]
    engine.run_phase("tri.lp.request", fragment_requests(sides, holder, every))
    del holder, every

    # In-edges of the path part come from V_j, out-edges go to V_i.
    answer = fragment_responder(sides, j_of[team_of], i_of[team_of])

    def respond(v, state, inbox):
        out = answer(v, state, inbox)
        del state["buckets"]       # no later phase reads them
        return out

    engine.run_phase("tri.lp.respond", respond)

    # --- each member closes its cycles locally, node by node --------------
    # Learned edges are freed node by node as they are joined.
    mail = engine.drain_inboxes()
    width = max(map(len, v_sets))
    none = np.zeros(0, dtype=np.int64)
    found = [(none, none, none)]
    for v, (xs, ys) in enumerate(learned):
        inbox = mail[v]
        if len(xs) and len(inbox):
            found.append(close_cycles(inbox, xs, ys, pos, width))
        learned[v] = None
    # The last inbox, even the empty one, is a view that keeps the whole
    # delivery alive.
    del mail, inbox

    state_view = TriplePartitionState(
        n=n, m=m, q=q, alpha=alpha, beta=beta, v_sets=v_sets, v_of=v_of,
        n_sets=n_sets, n_ids=n_ids, team_of=team_of.tolist(), p_parts=p_parts)
    triangles = set(zip(*(np.concatenate(col).tolist() for col in zip(*found))))
    return TriangleResult(triangles, state_view, engine.ledger.since(mark))
