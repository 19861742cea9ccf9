import random
import time

import pytest

from cliquemul.graphs import Graph, GraphError, load_edge_list
from cliquemul.semiring import boolean_semiring, min_plus_semiring
from cliquemul.sparse import FormatError


def test_validation_errors():
    with pytest.raises(GraphError):
        Graph(0, [])
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (0, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.undirected(3, [(0, 1), (1, 0)])   # same unordered pair twice


def test_undirected_materializes_both_arcs():
    G = Graph.undirected(3, [(0, 1), (1, 2)])
    assert G.m == 4
    assert G.has_edge(0, 1) and G.has_edge(1, 0)
    assert G.is_symmetric()
    assert not Graph(3, [(0, 1)]).is_symmetric()


def test_is_symmetric_rejects_asymmetric_and_scales():
    from cliquemul.graph_suite import count_4_cycles
    G = Graph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)])
    assert not G.is_symmetric()
    with pytest.raises(ValueError):
        count_4_cycles(G)
    pairs = [(u, v) for u in range(512) for v in range(u + 1, 512)]
    big = Graph.undirected(512, random.Random(1).sample(pairs, 8000))
    assert big.m == 16000
    start = time.perf_counter()
    assert big.is_symmetric()
    assert time.perf_counter() - start < 1.0


def test_degrees():
    G = Graph(4, [(0, 1), (0, 2), (3, 0)])
    assert G.d_out(0) == 2
    assert G.d_in(0) == 1
    assert G.out_adj[0] == [1, 2]
    assert G.in_adj[0] == [3]


def test_adjacency_boolean():
    A = Graph(3, [(0, 1), (2, 0)]).to_adjacency(boolean_semiring())
    assert A.to_dense()[0][1] is True
    assert A.to_dense()[1][0] is False
    assert A.nz() == 2


def test_adjacency_min_plus_diagonal():
    # Arcs weigh 1 hop; the stored diagonal encodes distance 0 to self.
    sr = min_plus_semiring()
    G = Graph(3, [(0, 1)])
    assert G.to_adjacency(sr).to_dense()[0][1] == 1
    A = G.to_adjacency(sr, explicit_diagonal=True)
    assert A.to_dense()[1][1] == 0
    assert A.nz() == 4


def test_edge_list_round_trip(edge_list):
    G = Graph(5, [(0, 1), (3, 2), (4, 0)])
    assert load_edge_list(edge_list(G, directed=True), directed=True) == G


def test_edge_list_undirected_round_trip(edge_list):
    G = Graph.undirected(4, [(0, 1), (2, 3)])
    p = edge_list(G)
    assert p.read_text() == "0 1\n2 3\n"
    assert load_edge_list(p) == G


def test_edge_list_comments_and_inference(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header\n0 1  # trailing note\n\n1 2\n")
    G = load_edge_list(p)
    assert G.n == 3 and G.m == 4   # inferred size, undirected default

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(FormatError):
        load_edge_list(bad)
    bad.write_text("0 -1\n")
    with pytest.raises(FormatError):
        load_edge_list(bad)
    bad.write_text("0 1\nx y\n")
    with pytest.raises(FormatError, match="^line 2: "):
        load_edge_list(bad)
