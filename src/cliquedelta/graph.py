"""Mutable undirected simple graph with set-based adjacency."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, int]


class GraphError(Exception):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class MissingEdgeError(GraphError):
    pass


class MissingVertexError(GraphError):
    pass


class BatchError(GraphError):
    pass


def normalize_edge(u: int, v: int) -> Edge:
    """Return the edge as an ordered pair, rejecting self loops and ends
    whose type is not int itself: the signature encoder writes both 1.5
    and True as 1, another clique's string."""
    if type(u) is not int or type(v) is not int:
        raise GraphError(f"vertex ids must be int: ({u!r},{v!r})")
    if u == v:
        raise SelfLoopError(f"self loop ({u},{v})")
    if u < 0 or v < 0:
        raise GraphError(f"negative vertex id in ({u},{v})")
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph over non-negative integer vertex ids.

    Isolated vertices are first-class: they survive edge removal and count
    as maximal cliques of size one.
    """

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]],
                   vertices: Iterable[int] = ()) -> "Graph":
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    # -- vertices ------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if type(v) is not int:
            raise GraphError(f"vertex id must be int: {v!r}")
        if v < 0:
            raise GraphError(f"negative vertex id {v}")
        self._adj.setdefault(v, set())

    def remove_vertex(self, v: int) -> None:
        """Remove v, which must be isolated: a vertex with edges is refused."""
        if self.neighbors(v):
            raise GraphError(f"vertex {v} still has edges")
        del self._adj[v]

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def num_vertices(self) -> int:
        return len(self._adj)

    def neighbors(self, v: int) -> set[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise MissingVertexError(f"unknown vertex {v}") from None

    # -- edges ---------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        u, v = normalize_edge(u, v)
        if v in self._adj.get(u, ()):
            raise DuplicateEdgeError(f"edge ({u},{v}) already present")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def remove_edge(self, u: int, v: int) -> None:
        u, v = normalize_edge(u, v)
        if v not in self._adj.get(u, ()):
            raise MissingEdgeError(f"edge ({u},{v}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = normalize_edge(u, v)
        return v in self._adj.get(u, ())

    def num_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def edges(self) -> Iterator[Edge]:
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    # -- queries -------------------------------------------------------

    def common_neighbors(self, u: int, v: int) -> list[int]:
        """Sorted intersection of the two neighborhoods, never holding u or v."""
        return sorted(self.neighbors(u) & self.neighbors(v))

    def induced_subgraph(self, vs: Iterable[int]) -> "Graph":
        keep = set(vs)
        for v in keep:
            if v not in self._adj:
                raise MissingVertexError(f"unknown vertex {v}")
        sub = Graph()
        for v in keep:
            sub._adj[v] = self._adj[v] & keep
        return sub

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(n) for v, n in self._adj.items()}
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices()}, m={self.num_edges()})"


@dataclass(frozen=True)
class EdgeBatch:
    """Ordered list of normalized edges applied as one update.

    The order of ``edges`` is significant: it is the processing order used
    by the incremental enumerators.
    """

    edges: tuple[Edge, ...]
    mode: str = "insert"  # "insert" | "delete"

    def __post_init__(self) -> None:
        if self.mode not in ("insert", "delete"):
            raise BatchError(f"unknown batch mode {self.mode!r}")
        norm = tuple(normalize_edge(u, v) for u, v in self.edges)
        if len(set(norm)) != len(norm):
            raise BatchError("duplicate edge in batch")
        object.__setattr__(self, "edges", norm)

    @classmethod
    def insert(cls, edges: Iterable[tuple[int, int]]) -> "EdgeBatch":
        return cls(tuple(edges), "insert")

    @classmethod
    def delete(cls, edges: Iterable[tuple[int, int]]) -> "EdgeBatch":
        return cls(tuple(edges), "delete")

    def __len__(self) -> int:
        return len(self.edges)

    def validate(self, g: Graph) -> None:
        """Check the batch against its base graph before any mutation. Its
        edges are normalized, so each is looked up in g's adjacency."""
        insert = self.mode == "insert"
        for u, v in self.edges:
            # an insert edge must be absent from g, a delete edge present
            if (v in g._adj.get(u, ())) is insert:
                raise BatchError(f"{self.mode} batch edge ({u},{v}) "
                                 f"{'already' if insert else 'not'} in graph")

    def apply(self, g: Graph) -> None:
        """Validate the batch against g, then add (insert) or remove
        (delete) its edges in order: the one way a batch changes a graph.
        A batch that fails validation leaves g unchanged. The update pass
        undoes an apply on an error by applying the inverse batch."""
        self.validate(g)
        mutate = g.add_edge if self.mode == "insert" else g.remove_edge
        for u, v in self.edges:
            mutate(u, v)
