"""Static maximal clique enumeration by pivoted backtracking.

``ttt`` enumerates every maximal clique of a graph. ``ttt_ext`` is the
edge-excluding extension: it enumerates the maximal cliques that extend a
given seed clique while containing none of a given set of forbidden edges.
Emission follows the depth-first search order with candidates visited in
ascending vertex id; callers must treat the output as a set.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Edge, Graph, GraphError, normalize_edge

Clique = tuple[int, ...]


def _pick_pivot(g: Graph, cand: set[int], fini: set[int]) -> int:
    # maximize |cand ∩ Γ(u)|; ties broken by smallest id for determinism
    best = -1
    best_size = -1
    for u in cand | fini:
        size = len(cand & g.neighbors(u))
        if size > best_size or (size == best_size and u < best):
            best, best_size = u, size
    return best


def _expand(g: Graph, k: list[int], cand: set[int], fini: set[int],
            excl_adj: dict[int, set[int]]) -> Iterator[Clique]:
    if not cand and not fini:
        yield tuple(sorted(k))
        return
    pivot = _pick_pivot(g, cand, fini)
    ext = sorted(cand - g.neighbors(pivot))
    for q in ext:
        if excl_adj and q in excl_adj and not excl_adj[q].isdisjoint(k):
            # adding q would close an excluded edge; prune this branch
            cand.discard(q)
            fini.add(q)
            continue
        k.append(q)
        nbrs = g.neighbors(q)
        yield from _expand(g, k, cand & nbrs, fini & nbrs, excl_adj)
        k.pop()
        cand.discard(q)
        fini.add(q)


def _edge_adjacency(edges: Iterable[Edge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def ttt(g: Graph) -> Iterator[Clique]:
    """Enumerate all maximal cliques of g, isolated vertices included."""
    return _expand(g, [], set(g.vertices()), set(), {})


def ttt_ext(g: Graph, k: Iterable[int], cand: Iterable[int],
            fini: Iterable[int], excl: Iterable[Edge]) -> Iterator[Clique]:
    """Enumerate maximal cliques c of g with k ⊆ c, c∖k ⊆ cand, c ∩ fini = ∅
    and no edge of excl inside c.

    The search only intersects neighborhoods with cand and fini, so g need
    not be cut down to the subgraph they induce with k: the output and its
    order are the same. ``delta`` runs this search on the whole graph per
    batch edge (u, v), with k = (u, v) and cand = Γ(u) ∩ Γ(v).
    """
    k_list = sorted(set(k))
    cand_set = set(cand)
    fini_set = set(fini)
    if cand_set & fini_set:
        raise GraphError("cand and fini overlap")
    if not set(k_list).isdisjoint(cand_set | fini_set):
        raise GraphError("seed clique overlaps cand/fini")
    excl_adj = _edge_adjacency(normalize_edge(u, v) for u, v in excl)
    seed_excluded = False
    for i, u in enumerate(k_list):
        nbrs = g.neighbors(u)
        for v in k_list[i + 1:]:
            if v not in nbrs:
                raise GraphError(f"seed is not a clique: ({u},{v}) missing")
            seed_excluded = seed_excluded or v in excl_adj.get(u, ())
    if seed_excluded:
        return iter(())
    return _expand(g, k_list, cand_set, fini_set, excl_adj)
