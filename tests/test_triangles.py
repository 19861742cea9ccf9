import random

import numpy as np
import pytest

from cliquemul import oracle
from cliquemul.cli import generate_graph
from cliquemul.engine import CliqueEngine
from cliquemul.graphs import Graph
from cliquemul.smm import _ENT_S, _ENT_T, _SUB_S, _SUB_T
from cliquemul.sparse import DimensionError
from cliquemul.triangles import _PKT, TriangleResult, list_triangles, packet_allocation


def random_digraph(n, m, rng):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return Graph(n, rng.sample(pairs, m))


def two_cycle_digraph(n, rng):
    """Each vertex pair gets no arc, one of the two arcs or both, so
    density is about 1/2 and a quarter of the pairs are 2-cycles."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            kind = rng.randrange(4)
            arcs += [(u, v)] * (kind in (1, 3)) + [(v, u)] * (kind in (2, 3))
    return Graph(n, arcs)


class DeliveryEngine(CliqueEngine):
    """An engine that keeps each phase's delivery."""

    def __init__(self, n: int):
        super().__init__(n)
        self.delivered = {}

    def run_phase(self, label, handler):
        rounds = super().run_phase(label, handler)
        self.delivered[label] = self.inboxes
        return rounds


def test_packet_allocation_uniform():
    # equal loads: the chunk boundaries coincide with the senders, so
    # every node is allocated exactly its own packets
    loads = [3] * 4
    cap, starts = packet_allocation(loads)
    assert cap == 3
    assert starts == [0, 3, 6, 9]
    for v in range(4):
        owners = {(starts[v] + i) // cap for i in range(loads[v])}
        assert owners == {v}


def test_packet_allocation_hot_sender():
    loads = [40] + [0] * 7
    cap, starts = packet_allocation(loads)
    assert cap == 5                      # ceil(40/8)
    owners = [(starts[0] + i) // cap for i in range(40)]
    assert sorted(set(owners)) == list(range(8))
    assert max(owners.count(w) for w in set(owners)) <= cap


def test_packet_allocation_empty():
    cap, starts = packet_allocation([0, 0, 0])
    assert cap == 1 and starts == [0, 0, 0]


def test_non_cube_runs_on_its_own_nodes():
    # Every graph runs on its own n nodes, cube or not, and lists the
    # oracle's triangles.
    rng = random.Random(4)
    for n in (1, 2, 8, 9, 27, 28):
        G = random_digraph(n, min(4 * n, n * (n - 1)), rng)
        res = list_triangles(G)
        assert res.state.n == n
        assert res.triangles == oracle.enumerate_triangles(G)


def test_engine_size_must_match():
    G = random_digraph(8, 10, random.Random(1))
    with pytest.raises(DimensionError):
        list_triangles(G, engine=CliqueEngine(27))
    G = random_digraph(10, 10, random.Random(1))
    with pytest.raises(DimensionError):
        list_triangles(G, engine=CliqueEngine(27))
    assert list_triangles(G, engine=CliqueEngine(10)).state.n == 10


def test_empty_and_tiny():
    assert list_triangles(Graph(8, [])).triangles == set()
    assert list_triangles(Graph(1, [])).triangles == set()
    tri = Graph(8, [(0, 1), (1, 2), (2, 0)])
    assert list_triangles(tri).triangles == {(0, 1, 2)}


def test_small_digraphs_match_oracle():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(0, 40)
        G = random_digraph(8, m, rng)
        res = list_triangles(G)
        assert res.triangles == oracle.enumerate_triangles(G), G.edges


def test_complete_graph():
    # Every vertex pair in both directions: at n=27 each learned arc meets
    # many delivered arcs and every team member closes many cycles.
    for n, count in ((8, 112), (27, 5850)):      # 2 orientations x C(n,3)
        K = Graph.undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        want = oracle.enumerate_triangles(K)
        assert len(want) == count
        assert list_triangles(K).triangles == want


def test_dense_digraph_with_two_cycles():
    G = two_cycle_digraph(64, random.Random(64))
    assert abs(G.m / (64 * 63) - 0.5) < 0.05
    want = oracle.enumerate_triangles(G)
    assert len(want) > 10000
    assert list_triangles(G).triangles == want


def test_triangles_are_tuples_of_python_ints():
    G = random_digraph(27, 200, random.Random(5))
    found = list_triangles(G).triangles
    assert found
    for tri in found:
        assert type(tri) is tuple and len(tri) == 3
        assert all(type(u) is int for u in tri), tri


def test_partition_state_invariants():
    rng = random.Random(12)
    for n, m in ((27, 120), (27, 40), (64, 300)):
        G = random_digraph(n, m, rng)
        res = list_triangles(G)
        S = res.state
        q, Q = S.q, S.q * S.q
        assert [len(c) for c in S.v_sets] == [n // q] * q

        # class degree mass stays within twice the target load
        for cls in S.v_sets:
            assert sum(G.d_out(v) + G.d_in(v) for v in cls) <= 2 * S.alpha

        # every N-set carries at most beta edges into its target class
        for (i, j), groups in S.n_sets.items():
            tgt = set(S.v_sets[j])
            for grp in groups:
                mass = sum(1 for v in grp for u in G.out_adj[v] if u in tgt)
                assert mass <= S.beta

        assert len(S.n_ids) <= 2 * Q
        assert_one_team_per_n_id(S)


def assert_one_team_per_n_id(S):
    """The teams are consecutive runs of floor(n/K) or ceil(n/K) nodes,
    one per N-id, and each splits all n vertices into one path part per
    member, of floor or ceil of n over the team size."""
    n, K = S.n, len(S.n_ids)
    if K == 0:
        assert S.team_of == [] and S.p_parts == {}
        return
    assert len(S.team_of) == n and S.team_of == sorted(S.team_of)
    sizes = [S.team_of.count(k) for k in range(K)]
    assert set(sizes) <= {n // K, -(-n // K)} and sum(sizes) == n
    # K <= 2q^2 and n >= q^3 give floor(n/K) >= floor(q/2), no more.
    assert min(sizes) >= S.q // 2
    assert sorted(S.p_parts) == list(range(K))
    for k, parts in S.p_parts.items():
        assert len(parts) == sizes[k]
        assert sorted(x for p in parts for x in p) == list(range(n))
        assert {len(p) for p in parts} <= {n // sizes[k], -(-n // sizes[k])}


@pytest.mark.parametrize("G, K", [
    (generate_graph(27, 200, 3, directed=True), 13),       # K > Q = 9, K does not divide n
    (generate_graph(64, 2048, 2048, directed=True), 23),   # K > Q = 16, K does not divide n
    (Graph(27, []), 0),                                    # no arcs, no N-ids, no teams
    (Graph(27, [(3, 5)]), 9),                              # one arc: 8 of its 9 N-sets hold none
    (generate_graph(27, 94, 1, directed=True), 14),        # a one-node team, below q/2 = 1.5
], ids=["n27_K13", "n64_K23", "edgeless", "one_arc", "n27_K14"])
def test_one_team_per_n_id(G, K):
    res = list_triangles(G)
    assert len(res.state.n_ids) == K
    assert_one_team_per_n_id(res.state)
    assert res.triangles == oracle.enumerate_triangles(G)


def test_forwarding_receive_bound():
    # LearnEdges' packets ride tri.lp.subseq, one per arc: node v sends
    # d_out(v) of them, and allocation keeps every node's incoming packet
    # load near average.  A member learns only its team's N-set, whose arcs
    # into V_j number at most beta, so no node receives more than beta
    # forwarded arcs.
    for G in (random_digraph(27, 150, random.Random(3)),
              generate_graph(27, 200, 3, directed=True),
              generate_graph(64, 4000, 7, directed=True),
              generate_graph(512, 16000, 100)):
        engine = DeliveryEngine(G.n)
        res = list_triangles(G, engine)
        assert isinstance(res, TriangleResult)
        mail = engine.delivered["tri.lp.subseq"]
        pkt = mail.tag == _PKT
        assert np.count_nonzero(pkt) == G.m
        assert sorted(zip(mail.src[pkt].tolist(), mail.i1[pkt].tolist())) == sorted(G.edges)
        sent = np.bincount(mail.src[pkt], minlength=G.n)
        assert sent.tolist() == [G.d_out(v) for v in range(G.n)]
        dst = np.repeat(np.arange(G.n), np.diff(mail.bounds))
        assert np.bincount(dst[pkt], minlength=G.n).max() <= G.m // G.n + 1, (G.n, G.m)
        forward, = [rec for rec in res.records if rec.label == "tri.le.forward"]
        assert forward.max_recv <= res.state.beta, (G.n, G.m, forward)


@pytest.mark.parametrize("n", [20, 27, 64, 65, 100])
def test_count_and_path_count_loads(n):
    # tri.vcounts: each node sends its q class counts to every other member
    # of its class.  tri.psums: each node sends one path-count word to every
    # other node when there are teams, and none on an edgeless graph.
    rng = random.Random(n)
    for m in (0, 4 * n, n * (n - 1)):
        G = random_digraph(n, m, rng)
        res = list_triangles(G)
        assert res.triangles == oracle.enumerate_triangles(G)
        loads = {r.label: (r.max_send, r.max_recv) for r in res.records}
        widest = max(map(len, res.state.v_sets))
        assert max(loads["tri.vcounts"]) <= (widest - 1) * res.state.q, (n, m)
        psums = n - 1 if res.state.n_ids else 0
        assert loads["tri.psums"] == (psums, psums), (n, m)
        assert bool(res.state.n_ids) == (m > 0)


@pytest.mark.parametrize("n, m", [(10, 60), (20, 150), (65, 4000), (100, 900)])
def test_per_phase_load_bound_at_non_cube_n(n, m):
    # At any n, with q the largest integer with q^3 <= n, every LearnEdges
    # and LearnPaths phase sends and receives at most 4 beta words per node.
    G = generate_graph(n, m, 7, directed=True)
    res = list_triangles(G)
    assert res.triangles == oracle.enumerate_triangles(G)
    for rec in res.records:
        if ".le." in rec.label or ".lp." in rec.label:
            assert max(rec.max_send, rec.max_recv) <= 4 * res.state.beta, rec


def test_phase_list():
    # tri.lp.subseq deals the fragments from lines every node holds (no
    # lp.coldist or lp.stats) in the phase that carries the N-set counts.
    # Every node's packet count is its out-degree, so LearnEdges needs no
    # le.load, and the packets, which name their N-set by its index in its
    # class pair, ride the same phase.  Each node works on one N-set: one
    # path-count word per member, one request word per owner and one
    # response, on whose mailbox every member closes its cycles.
    G = random_digraph(27, 120, random.Random(9))
    assert [r.label for r in list_triangles(G).records] == [
        "tri.degrees", "tri.vcounts", "tri.lp.subseq", "tri.le.forward",
        "tri.psums", "tri.lp.request", "tri.lp.respond"]


@pytest.mark.parametrize("G", [
    generate_graph(27, 200, 3, directed=True),
    generate_graph(64, 400, 6),
], ids=["digraph_n27", "undirected_n64"])
def test_subseq_values_are_bool(G):
    # Count words and packets carry False, so they join the fragments'
    # bool value column instead of turning it into objects.
    engine = DeliveryEngine(G.n)
    list_triangles(G, engine)
    mail = engine.delivered["tri.lp.subseq"]
    assert np.count_nonzero(mail.tag == _PKT) == G.m
    assert mail.val.dtype == np.bool_


@pytest.mark.parametrize("G", [
    generate_graph(27, 200, 3, directed=True),
    Graph.undirected(27, random.Random(8).sample(
        [(u, v) for u in range(27) for v in range(u + 1, 27)], 120)),
    two_cycle_digraph(27, random.Random(27)),
    generate_graph(64, 400, 6),
], ids=["digraph_n27", "undirected_n27", "two_cycles_n27", "undirected_n64"])
def test_each_arc_is_dealt_once_in_its_lower_line(G):
    # LearnPaths keeps the rotation whose path vertex z is smallest, so it
    # deals arc u -> w only in the line of min(u, w): w's column when
    # u > w, u's row otherwise.  The delivery, self-messages included,
    # holds m fragment entries, not 2m, and every response has its path
    # vertex as the smaller endpoint.
    engine = DeliveryEngine(G.n)
    assert list_triangles(G, engine).triangles == oracle.enumerate_triangles(G)
    tag = engine.delivered["tri.lp.subseq"].tag
    down = sum(u > w for u, w in G.edges)
    assert np.count_nonzero(tag == _SUB_S) == down
    assert np.count_nonzero(tag == _SUB_T) == G.m - down
    mail = engine.delivered["tri.lp.respond"]
    tag, i1, i2 = mail.tag, mail.i1, mail.i2
    is_s, is_t = tag == _ENT_S, tag == _ENT_T
    assert (is_s | is_t).all() and is_s.any() and is_t.any()
    assert (i2[is_s] < i1[is_s]).all()         # y -> z with z < y
    assert (i1[is_t] < i2[is_t]).all()         # z -> x with z < x


def test_request_is_one_word_per_owner():
    # A requester sends each fragment owner one word, so no node sends
    # or receives more than n - 1 and the phase is 1 round.
    rng = random.Random(21)
    for n, m in ((8, 40), (27, 120), (27, 600), (64, 400), (64, 3000)):
        res = list_triangles(random_digraph(n, m, rng))
        rec, = [r for r in res.records if r.label == "tri.lp.request"]
        assert rec.max_send <= n - 1 and rec.max_recv <= n - 1, (n, m, rec)
        assert rec.rounds == 1
