"""Extremal constructions maximizing the number of maximal cliques and the
magnitude of change under edge updates, used as test fixtures.

Vertex numbering is fixed (parts occupy ascending id blocks starting at 1)
so the constructions are byte-reproducible.
"""

from __future__ import annotations

import math

from .graph import Edge, EdgeBatch, Graph, GraphError


def _part_sizes(n: int) -> list[int]:
    # the Moon-Moser parts: threes, plus one part of 4 or 2 off-residue
    if n == 1:
        return [1]
    r = n % 3
    if r == 0:
        return [3] * (n // 3)
    if r == 1:
        return [4] + [3] * ((n - 4) // 3)
    return [2] + [3] * ((n - 2) // 3)


def _f(n: int) -> int:
    # maximal cliques of the Moon-Moser graph on n vertices: one per choice
    # of a vertex from each part; the single vertex graph has one
    return math.prod(_part_sizes(n))


def f_max(n: int) -> int:
    """Maximum possible number of maximal cliques in an n-vertex graph."""
    if n < 2:
        raise GraphError(f"f_max requires n >= 2, got {n}")
    return _f(n)


#: the 4-cycle laid on vertices 1..4 by the eps = 1 mod 3 batch and the
#: correction pair
_C4: tuple[Edge, ...] = ((1, 2), (2, 3), (3, 4), (1, 4))


def _multipartite_edges(parts: list[list[int]]) -> list[Edge]:
    return [(u, v) for i, part in enumerate(parts) for other in parts[i + 1:]
            for u in part for v in other]


def _moon_moser_parts(first_id: int, n: int) -> list[list[int]]:
    parts = []
    nxt = first_id
    for size in _part_sizes(n):
        parts.append(list(range(nxt, nxt + size)))
        nxt += size
    return parts


def moon_moser(n: int) -> Graph:
    """Complete multipartite graph on vertices 1..n with f_max(n) maximal
    cliques (parts of size 3, plus one of size 4 or 2 off-residue)."""
    if n < 2:
        raise GraphError(f"moon_moser requires n >= 2, got {n}")
    return Graph.from_edges(_multipartite_edges(_moon_moser_parts(1, n)),
                            range(1, n + 1))


def single_edge_extremal(n: int) -> tuple[Graph, Edge]:
    """Graph plus absent edge whose insertion changes 3*f(n-2) maximal
    cliques: a Moon-Moser core on 1..n-2 with two universal vertices n-1
    and n that are not adjacent to each other."""
    if n <= 2:
        raise GraphError(f"single_edge_extremal requires n > 2, got {n}")
    edges = _multipartite_edges(_moon_moser_parts(1, n - 2))
    edges += [(v, w) for w in (n - 1, n) for v in range(1, n - 1)]
    return Graph.from_edges(edges, range(1, n + 1)), (n - 1, n)


def batch_extremal(n: int, eps: int) -> tuple[Graph, EdgeBatch]:
    """Graph plus insert batch realizing a change of (eps + f(eps))*f(n-eps).

    The base graph joins an independent set of size eps completely to a
    Moon-Moser graph on the remaining n-eps vertices; the batch adds the
    Moon-Moser edges inside the independent set. For eps = 1 mod 3 the
    4-cycle variant is used there, so that every maximal clique of the
    updated graph contains a batch edge (the plain construction degenerates
    at eps = 4, where the single size-4 part has no edges at all).
    """
    if eps <= 3:
        raise GraphError(f"batch_extremal requires eps > 3, got {eps}")
    if n < eps + 2:
        raise GraphError(f"batch_extremal requires n >= eps + 2, got n={n}")
    base = _multipartite_edges(_moon_moser_parts(eps + 1, n - eps))
    base += [(u, w) for u in range(1, eps + 1) for w in range(eps + 1, n + 1)]
    edges = _multipartite_edges(_moon_moser_parts(1, eps))
    if eps % 3 == 1:
        edges.extend(_C4)
    return Graph.from_edges(base, range(1, n + 1)), EdgeBatch.insert(edges)


def batch_extremal_change(n: int, eps: int) -> int:
    """Closed-form |change| for batch_extremal(n, eps)."""
    if eps <= 3 or n < eps + 2:
        raise GraphError("invalid batch_extremal parameters")
    return (eps + f_max(eps)) * f_max(n - eps)


def moon_moser_correction_pair(n: int) -> tuple[Graph, Graph]:
    """Two non-isomorphic n-vertex graphs both attaining f_max(n) maximal
    cliques, for n = 1 mod 3: the standard construction, and the variant
    whose size-4 part additionally carries a 4-cycle."""
    if n < 4 or n % 3 != 1:
        raise GraphError(
            f"moon_moser_correction_pair requires n >= 4 with n = 1 mod 3, got {n}")
    h_n = moon_moser(n)
    return h_n, Graph.from_edges([*h_n.edges(), *_C4], h_n.vertices())
