import random

import pytest

from cliquemul import oracle
from cliquemul.engine import CliqueEngine
from cliquemul.graphs import Graph
from cliquemul.triangles import TriangleResult, list_triangles, packet_allocation


def random_digraph(n, m, rng):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return Graph(n, rng.sample(pairs, m))


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


def test_padding_preserves_triangles():
    # A non-cube graph runs as the same graph padded with isolated
    # vertices to the next cube: same triangles, same ledger.
    G = random_digraph(10, 40, random.Random(4))
    res = list_triangles(G)
    padded = list_triangles(G.padded(27))
    assert res.state.n == 27
    assert res.triangles == padded.triangles == oracle.enumerate_triangles(G)
    assert res.records == padded.records
    # Cubes run as they are; every other size on the next cube.
    sizes = {n: list_triangles(Graph(n, [])).state.n for n in (1, 2, 8, 9, 27, 28)}
    assert sizes == {1: 1, 2: 8, 8: 8, 9: 27, 27: 27, 28: 64}


def test_engine_size_must_match():
    G = random_digraph(8, 10, random.Random(1))
    with pytest.raises(ValueError):
        list_triangles(G, engine=CliqueEngine(27))
    # A non-cube graph needs an engine of the padded size.
    G = random_digraph(10, 10, random.Random(1))
    with pytest.raises(ValueError):
        list_triangles(G, engine=CliqueEngine(10))
    assert list_triangles(G, engine=CliqueEngine(27)).state.n == 27


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
    K8 = Graph.undirected(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    res = list_triangles(K8)
    want = oracle.enumerate_triangles(K8)
    assert len(want) == 112              # 2 orientations x C(8,3)
    assert res.triangles == want


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
        assert len(S.halves[0]) == (len(S.n_ids) + 1) // 2
        assert len(S.halves[0]) + len(S.halves[1]) == len(S.n_ids)

        # each active team's path partition covers all n vertices evenly
        for half_parts in S.p_parts:
            for parts in half_parts.values():
                assert sorted(x for p in parts for x in p) == list(range(n))
                assert all(len(p) == n // q for p in parts)


def test_forwarding_receive_bound():
    # allocation keeps every node's incoming packet load near average
    rng = random.Random(3)
    n, m = 27, 150
    G = random_digraph(n, m, rng)
    engine = CliqueEngine(n)
    res = list_triangles(G, engine=engine)
    assert isinstance(res, TriangleResult)
    for rec in res.records:
        if rec.label.endswith("le.alloc"):
            assert rec.max_recv <= m // n + 1


def test_phase_list():
    # One tri.lp.subseq deals the fragments from lines every node holds
    # (no lp.coldist or lp.stats); both halves route from its buckets, and
    # each closes its cycles on the lp.respond mailbox (no collect phase).
    G = random_digraph(27, 120, random.Random(9))
    halves = [f"tri.{t}.{p}" for t in (1, 2)
              for p in ("le.load", "le.alloc", "le.forward", "psums",
                        "lp.request", "lp.respond")]
    assert [r.label for r in list_triangles(G).records] == [
        "tri.degrees", "tri.vcounts", "tri.lp.subseq", "tri.ncounts"] + halves
