"""Directed graphs on vertex set [0, n) with adjacency-matrix export."""

from __future__ import annotations

from bisect import bisect_left

from .semiring import Semiring
from .sparse import MAX_SIZE, FormatError, SparseMatrix


class GraphError(ValueError):
    """Self-loop, duplicate edge, or out-of-range endpoint."""


class DisconnectedGraphError(RuntimeError):
    """An operation requiring connectivity met an unreachable vertex."""


class Graph:
    """Simple directed graph; an undirected edge is stored as both arcs."""

    __slots__ = ("n", "edges", "out_adj", "in_adj")

    def __init__(self, n: int, edges):
        if n < 1:
            raise GraphError("need at least one vertex")
        self.n = n
        out_adj: list[list[int]] = [[] for _ in range(n)]
        in_adj: list[list[int]] = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside [0, {n})")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            out_adj[u].append(v)
            in_adj[v].append(u)
        for adj in out_adj:
            adj.sort()
        for adj in in_adj:
            adj.sort()
        self.edges = tuple(sorted(seen))
        self.out_adj = out_adj
        self.in_adj = in_adj

    @classmethod
    def undirected(cls, n: int, pairs) -> "Graph":
        """Build from unordered pairs; both orientations are materialized."""
        arcs = []
        seen = set()
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if key in seen:
                raise GraphError(f"duplicate undirected edge {key}")
            seen.add(key)
            arcs.append((u, v))
            arcs.append((v, u))
        return cls(n, arcs)

    @property
    def m(self) -> int:
        """Number of directed arcs."""
        return len(self.edges)

    def d_out(self, v: int) -> int:
        return len(self.out_adj[v])

    def d_in(self, v: int) -> int:
        return len(self.in_adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        adj = self.out_adj[u]
        i = bisect_left(adj, v)
        return i < len(adj) and adj[i] == v

    def is_symmetric(self) -> bool:
        # Every arc u->v has its reverse exactly when each vertex's sorted
        # out- and in-neighbour lists coincide.
        return self.out_adj == self.in_adj

    def to_adjacency(self, semiring: Semiring, explicit_diagonal: bool = False) -> SparseMatrix:
        """Adjacency matrix with ``one`` on arcs.

        With ``explicit_diagonal`` the diagonal holds the semiring's
        multiplicative identity as a stored entry, which for min-plus
        encodes distance zero to self.
        """
        # Hop weights: min-plus arcs cost 1, not the multiplicative identity.
        arc = 1 if semiring.name == "min-plus" else semiring.one
        entries = [(u, v, arc) for u, v in self.edges]
        if explicit_diagonal:
            entries.extend((v, v, semiring.one) for v in range(self.n))
        return SparseMatrix.from_entries(self.n, semiring, entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def load_edge_list(path, directed: bool = False) -> Graph:
    """Read ``u v`` per line, 0-indexed, ``#`` starts a comment.

    n is max endpoint + 1 (1 for a file without edges), so a vertex above
    every endpoint is not in the graph.
    """
    pairs = []
    max_id = -1
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 2:
                raise FormatError(f"line {lineno}: expected two endpoints, got {line!r}")
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer endpoint in {line!r}") from None
            if u < 0 or v < 0:
                raise FormatError(f"line {lineno}: negative vertex id")
            pairs.append((u, v))
            max_id = max(max_id, u, v)
    size = max(max_id + 1, 1)
    if size > MAX_SIZE:
        raise FormatError(f"graph size {size} exceeds {MAX_SIZE}")
    if directed:
        return Graph(size, pairs)
    return Graph.undirected(size, pairs)
