import pytest


@pytest.fixture
def edge_list(tmp_path):
    """``write(graph, directed=False)``: the graph as an edge-list file
    ``g.txt`` under tmp_path, arcs sorted, or with directed=False each
    edge once as ``min max``; returns the path."""
    def write(graph, directed=False):
        pairs = graph.edges if directed else sorted(
            {(min(u, v), max(u, v)) for u, v in graph.edges})
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs), encoding="ascii")
        return path

    return write
