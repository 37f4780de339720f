"""Static maximal clique enumeration by pivoted backtracking.

``ttt`` enumerates every maximal clique of a graph. ``ttt_ext`` is the
edge-excluding extension: it enumerates the maximal cliques that extend a
given seed clique while containing none of a given set of forbidden edges.
Emission follows the depth-first search order with candidates visited in
ascending vertex id; callers must treat the output as a set.

Both searches run on an explicit stack, so clique size is not bounded by
the interpreter's recursion limit. There are two search cores with the same
emission order:

- a set-based core that intersects the graph's own adjacency sets. ``ttt``
  always uses it: on a large sparse graph a whole-graph relabelling costs
  more than it saves.
- a bitset core for local searches: it relabels k ∪ cand ∪ fini in
  ascending vertex id to bits 0..n-1 and holds k, cand, fini, local
  adjacency and the excluded edges as ``int`` masks, so a pivot costs one
  ``bit_count`` per vertex. ``ttt_ext`` and the per-edge searches of
  ``delta`` use it when the local span |cand| + |fini| is at least
  ``BITSET_MIN_SPAN``.

The bitset core is one loop, ``_bits``, over a numbering that
``_numbering`` builds. A single search numbers its own seed and span.
``delta._search_half`` may instead number a whole batch half once, by the
sharing rule its docstring states. No community-insert batch shares, as
its spans are mostly one or two vertices, and nor do most batches that
create a vertex.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Edge, Graph, GraphError, normalize_edge

Clique = tuple[int, ...]

#: Smallest local span |cand| + |fini| searched on bitsets. Relabelling
#: costs about 3 µs per search: on community-insert's per-edge spans the
#: set core is faster below 5 vertices, and the two differ by at most 4 µs
#: from 5 to 7. Spans that small are common on sparse graphs and stay on
#: the set core; from 14 vertices on the bitset core is clearly faster
#: (extremal-churn, 14: 245 -> 176 µs; core-churn, 98: 9.9 -> 0.47 ms).
#: It is also the bound of delta._search_half's sharing rule; sharing with
#: smaller spans in the half made community-insert 4-6% slower.
BITSET_MIN_SPAN = 8


def _pick_pivot(g: Graph, cand: set[int], fini: set[int]) -> int:
    # maximize |cand ∩ Γ(u)|; ties broken by smallest id for determinism
    best = -1
    best_size = -1
    for u in cand | fini:
        size = len(cand & g.neighbors(u))
        if size > best_size or (size == best_size and u < best):
            best, best_size = u, size
    return best


def _expand_sets(g: Graph, k: list[int], cand: set[int], fini: set[int],
                 excl_adj: dict[int, set[int]]) -> Iterator[Clique]:
    """The set-based search core; cand and fini are consumed."""
    if not cand and not fini:
        yield tuple(sorted(k))
        return
    # one frame per vertex added to k: (cand, fini, iterator over ext)
    stack = [(cand, fini, iter(sorted(cand - g.neighbors(
        _pick_pivot(g, cand, fini)))))]
    while stack:
        cand, fini, ext = stack[-1]
        for q in ext:
            if excl_adj and q in excl_adj and not excl_adj[q].isdisjoint(k):
                # adding q would close an excluded edge; prune this branch
                cand.discard(q)
                fini.add(q)
                continue
            nbrs = g.neighbors(q)
            sub_cand, sub_fini = cand & nbrs, fini & nbrs
            cand.discard(q)
            fini.add(q)
            k.append(q)
            if sub_cand:
                pivot = _pick_pivot(g, sub_cand, sub_fini)
                stack.append((sub_cand, sub_fini,
                              iter(sorted(sub_cand - g.neighbors(pivot)))))
                break
            if not sub_fini:
                yield tuple(sorted(k))
            k.pop()
        else:
            stack.pop()
            if stack:
                k.pop()


def _ext_bits(adj: list[int], p: int, x: int) -> int:
    """The members of p outside the pivot's neighbourhood, the pivot being
    the first vertex of p | x, in ascending bit order, with most
    neighbours in p."""
    best, pivot = -1, 0
    p_size = p.bit_count()
    rest = p | x
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        size = (p & adj[i]).bit_count()
        if size > best:
            best, pivot = size, i
            # a vertex of p has at most p_size - 1 neighbours in p and one
            # of x at most p_size, so no later vertex can beat this one
            if size == p_size or (size == p_size - 1 and not x >> i + 1):
                break
    return p & ~adj[pivot]


def _numbering(g: Graph,
               span: set[int]) -> tuple[list[int], dict[int, int], list[int]]:
    """span relabelled in ascending vertex id to bits 0..n-1: its vertices
    in that order, the bit of each, and the neighbours in span of each as
    a mask."""
    verts = sorted(span)
    n = len(verts)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    # each big-int addition allocates, so a mask is summed from the smaller
    # side: the neighbours in span, or the rest of span
    full = (1 << n) - 1
    adj = []
    for v in verts:
        nbrs = g.neighbors(v)
        rest = span - nbrs
        if 2 * len(rest) < n:
            adj.append(full ^ sum(map(bit.__getitem__, rest)))
        else:
            adj.append(sum(map(bit.__getitem__, span & nbrs)))
    return verts, bit, adj


def _bits(adj: list[int], verts: list[int], k: list[int], p: int, x: int,
          kmask: int, excl: dict[int, int]) -> Iterator[tuple[Clique, int]]:
    """The bitset search loop: the cliques k + c with c ⊆ p that no vertex
    of p or x extends, each with kmask plus the bits of c. excl[i] is the
    mask of the bits that vertex i has an excluded edge to; a vertex whose
    mask meets the k mask is never added. k is consumed."""
    # one frame per vertex added to k: [p, x, unvisited ext, k mask]
    stack = [[p, x, _ext_bits(adj, p, x) if p else 0, kmask]]
    while stack:
        frame = stack[-1]
        p, x, ext, kmask = frame
        while ext:
            low = ext & -ext
            ext ^= low
            i = low.bit_length() - 1
            if excl and i in excl and excl[i] & kmask:
                # adding i would close an excluded edge; prune this branch
                p ^= low
                x |= low
                continue
            a = adj[i]
            sub_p, sub_x = p & a, x & a
            p ^= low
            x |= low
            k.append(verts[i])
            if sub_p:
                frame[:3] = p, x, ext
                stack.append([sub_p, sub_x, _ext_bits(adj, sub_p, sub_x),
                              kmask | low])
                break
            if not sub_x:
                yield tuple(sorted(k)), kmask | low
            k.pop()
        else:
            stack.pop()
            if stack:
                k.pop()


def _expand_bits(g: Graph, k: list[int], cand: set[int], fini: set[int],
                 excl_adj: dict[int, set[int]]) -> Iterator[Clique]:
    """The bitset search core on a numbering of k ∪ cand ∪ fini; same
    output, in the same order, as _expand_sets. k, cand and fini must be
    disjoint."""
    if not cand and not fini:
        yield tuple(sorted(k))
        return
    span = cand | fini
    verts, bit, adj = _numbering(g, span.union(k))
    kmask = sum(map(bit.__getitem__, k))
    x = sum(map(bit.__getitem__, fini))
    excl: dict[int, int] = {}
    for v in excl_adj.keys() & span:
        mask = sum(bit[w] for w in excl_adj[v] if w in bit)
        if mask:
            excl[bit[v].bit_length() - 1] = mask
    p = ((1 << len(verts)) - 1) ^ kmask ^ x
    for c, _ in _bits(adj, verts, k, p, x, kmask, excl):
        yield c


def _search(g: Graph, k: list[int], cand: set[int], fini: set[int],
            excl_adj: dict[int, set[int]]) -> Iterator[Clique]:
    """Run the local search on the core that suits its span; inputs are
    trusted and consumed."""
    if len(cand) + len(fini) < BITSET_MIN_SPAN:
        return _expand_sets(g, k, cand, fini, excl_adj)
    return _expand_bits(g, k, cand, fini, excl_adj)


def _edge_adjacency(edges: Iterable[Edge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def ttt(g: Graph) -> Iterator[Clique]:
    """Enumerate all maximal cliques of g, isolated vertices included.

    Runs the set-based core over the whole graph. The empty graph has no
    maximal clique: the empty clique is never reported.
    """
    if not g.num_vertices():
        return iter(())
    return _expand_sets(g, [], set(g.vertices()), set(), {})


def ttt_ext(g: Graph, k: Iterable[int], cand: Iterable[int],
            fini: Iterable[int], excl: Iterable[Edge]) -> Iterator[Clique]:
    """Enumerate maximal cliques c of g with k ⊆ c, c∖k ⊆ cand, c ∩ fini = ∅
    and no edge of excl inside c.

    cand and fini must lie in the common neighbourhood of k. The search
    only intersects neighbourhoods with cand and fini, so g need not be cut
    down to the subgraph they induce with k: the output and its order are
    the same. ``delta`` runs this search on the whole graph per batch edge
    (u, v), with k = (u, v) and cand = Γ(u) ∩ Γ(v). Local spans
    |cand| + |fini| of at least ``BITSET_MIN_SPAN`` vertices run on the
    bitset core, smaller ones on the set core; both give the same output in
    the same order. With k, cand and fini all empty there is no clique to
    report: the empty clique is never reported.
    """
    k_list = sorted(set(k))
    cand_set = set(cand)
    fini_set = set(fini)
    if cand_set & fini_set:
        raise GraphError("cand and fini overlap")
    span = cand_set | fini_set
    if not set(k_list).isdisjoint(span):
        raise GraphError("seed clique overlaps cand/fini")
    excl_adj = _edge_adjacency(normalize_edge(u, v) for u, v in excl)
    seed_excluded = False
    for i, u in enumerate(k_list):
        nbrs = g.neighbors(u)
        for v in k_list[i + 1:]:
            if v not in nbrs:
                raise GraphError(f"seed is not a clique: ({u},{v}) missing")
            seed_excluded = seed_excluded or v in excl_adj.get(u, ())
        if not span <= nbrs:
            raise GraphError(f"cand/fini vertex {min(span - nbrs)} "
                             f"is not adjacent to seed vertex {u}")
    if seed_excluded or not (k_list or span):
        return iter(())
    return _search(g, k_list, cand_set, fini_set, excl_adj)
