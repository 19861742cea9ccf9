import math

import pytest

from cliquemul import oracle
from cliquemul.engine import CliqueEngine
from cliquemul.graph_suite import apsp, count_4_cycles
from cliquemul.graphs import DisconnectedGraphError, Graph
from cliquemul.semiring import counting_semiring
from cliquemul.smm import smm
from cliquemul.triangles import list_triangles


def complete(n):
    return Graph.undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph.undirected(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.undirected(n, [(i, i + 1) for i in range(n - 1)])


def test_four_cycle_trace_values():
    assert count_4_cycles(complete(4)).trace4 == 84     # trace of A^4 on K4
    assert count_4_cycles(cycle(4)).trace4 == 32


def test_four_cycle_counts():
    assert count_4_cycles(cycle(4)).count == 1
    assert count_4_cycles(complete(4)).count == 3
    tree = Graph.undirected(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert count_4_cycles(tree).count == 0
    assert count_4_cycles(complete(5)).count == oracle.enumerate_4_cycles(complete(5))


def test_four_cycles_reject_directed():
    with pytest.raises(ValueError):
        count_4_cycles(Graph(3, [(0, 1)]))


def test_apsp_rejects_directed():
    with pytest.raises(ValueError, match="undirected"):
        apsp(Graph(3, [(0, 1), (1, 2)]))


def test_apsp_path():
    res = apsp(path(4))
    assert res.diameter == 3
    assert res.multiplications == 2
    d = res.dist.to_dense()
    assert d[0][3] == 3 and d[3][0] == 3
    assert d[0][0] == 0
    assert d[1][2] == 1


@pytest.mark.parametrize("G, products, diameter", [
    (Graph.undirected(1, []), 0, 0),
    (complete(5), 0, 1),
    (path(7), 5, 6),
], ids=["single-vertex", "K5", "P7"])
def test_apsp_stops_at_the_diameter(G, products, diameter):
    engine = CliqueEngine(G.n)
    res = apsp(G, engine)
    assert (res.multiplications, res.diameter) == (products, diameter)
    status = [r for r in res.records if r.label == "apsp.status"]
    assert len(status) == products + 1
    assert all(r.rounds <= 1 for r in status)
    assert res.records[0].label == res.records[-1].label == "apsp.status"
    assert [len(engine.inboxes[v]) for v in range(G.n)] == [0] * G.n


def test_apsp_matches_bfs_oracle():
    for G in (cycle(6), complete(5), path(7),
              Graph.undirected(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])):
        res = apsp(G)
        want = oracle.apsp_bfs(G)
        assert res.dist.to_dense() == want
        assert not any(math.isinf(want[i][j]) for i in range(G.n) for j in range(G.n))


def test_apsp_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        apsp(Graph.undirected(3, [(0, 1)]))


def test_apsp_detects_disconnection_once_a_row_stops_growing():
    # Two P3s: the middle rows hold their whole component after M^1, but
    # only the product M^2 shows that they stopped growing.
    engine = CliqueEngine(6)
    with pytest.raises(DisconnectedGraphError):
        apsp(Graph.undirected(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), engine)
    labels = [r.label for r in engine.ledger.records]
    assert labels.count("sbmm.reduce") == 1
    assert labels.count("apsp.status") == 2
    # An isolated vertex's row never grows: no product is made at all.
    engine = CliqueEngine(3)
    with pytest.raises(DisconnectedGraphError):
        apsp(Graph.undirected(3, [(0, 1)]), engine)
    assert [r.label for r in engine.ledger.records] == ["apsp.status"]


def test_entry_points_leave_no_node_state():
    # Nodes keep only what a later phase reads, so once smm, list_triangles
    # or apsp returns, no node holds buckets, pages, rows or request words
    # on the engine the next call shares.
    n = 27
    G = Graph.undirected(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    A = G.to_adjacency(counting_semiring())
    engine = CliqueEngine(n)
    for run in (lambda: smm(A, A, engine), lambda: list_triangles(G, engine),
                lambda: apsp(G, engine)):
        run()
        assert {v: sorted(st) for v, st in enumerate(engine.states) if st} == {}
