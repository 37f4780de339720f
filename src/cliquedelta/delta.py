"""Change-sensitive enumeration of new and subsumed maximal cliques.

One batched update takes the graph from G to G' and reports only the
symmetric difference of the two maximal-clique sets: the newly maximal
cliques and the previously maximal cliques they subsume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .enumeration import (BITSET_MIN_SPAN, Clique, _bits, _edge_adjacency,
                          _numbering, _search)
from .graph import Edge, EdgeBatch, Graph, BatchError
from .signatures import CliqueRegistry, _checked, _keys


@dataclass
class ChangeSet:
    """The two halves of the symmetric difference produced by one update."""

    new_cliques: list[Clique] = field(default_factory=list)
    del_cliques: list[Clique] = field(default_factory=list)

    def total_change_size(self) -> int:
        """Sum of internal edge counts k(k-1)/2 over all changed cliques."""
        return sum(len(c) * (len(c) - 1) // 2
                   for c in self.new_cliques + self.del_cliques)


def _require_mode(h: EdgeBatch, mode: str) -> None:
    if h.mode != mode:
        raise BatchError(f"expected {mode}-mode batch, got {h.mode}")


def _search_half(g: Graph, edges: Sequence[Edge], exclude: bool
                 ) -> tuple[list[Clique], Callable[[], list[Clique]]]:
    """The maximal cliques of g containing an edge of edges, each reported
    once, for the first edge it contains, and a zero-argument call that
    splits them, made only by the update pass: the one way from a batch
    half to its cliques and to their split candidates. The call holds what
    its split reads until it is let go.

    Per edge (u, v) the search runs on g itself from the seed [u, v] with
    cand = Γ(u) ∩ Γ(v); with no common neighbour the edge itself is the one
    clique. With exclude, the earlier edges are excluded from the search,
    so a clique holding several of them is built only once (EnumN-TE);
    otherwise it is built for each of them and dropped for all but the
    first (EnumN).

    When every edge has at least BITSET_MIN_SPAN common neighbours, every
    search would run on bitsets, so the half numbers the union of its seeds
    and spans once; the earlier batch edges are the bits' exclusion masks
    or drop each clique that holds one, and the split (_mask_candidates)
    reads the cliques' masks. Otherwise, and for an empty half, the spans
    up to the first narrower one are computed again, each search picks its
    core and numbering, and the split (_candidates) reads the batch
    adjacency the searches filled.
    """
    span: set[int] = set()
    wide = bool(edges)
    for u, v in edges:
        common = g.neighbors(u) & g.neighbors(v)
        if len(common) < BITSET_MIN_SPAN:
            wide = False
            break
        span |= common
    cliques: list[Clique] = []
    if not wide:
        earlier: dict[int, set[int]] = {}
        for u, v in edges:
            cand = g.neighbors(u) & g.neighbors(v)
            if not cand:
                # batch edges are normalized, so (u, v) is in canonical order
                cliques.append((u, v))
            elif exclude:
                cliques += _search(g, [u, v], cand, set(), earlier)
            else:
                cliques += [c for c in _search(g, [u, v], cand, set(), {})
                            if not _inside_pattern(c, earlier)]
            earlier.setdefault(u, set()).add(v)
            earlier.setdefault(v, set()).add(u)
        return cliques, partial(_candidates, g, earlier, cliques)
    verts, bit, adj = _numbering(g, span.union(*edges))
    masks: list[int] = []
    # the batch edges before this one, as each end's mask of partners
    partners: dict[int, int] = {}
    for u, v in edges:
        bu, bv = bit[u], bit[v]
        iu, iv = bu.bit_length() - 1, bv.bit_length() - 1
        for c, m in _bits(adj, verts, [u, v], adj[iu] & adj[iv], 0, bu | bv,
                          partners if exclude else {}):
            if exclude or not any(partners[i] & m for i in partners
                                  if m >> i & 1):
                cliques.append(c)
                masks.append(m)
        partners[iu] = partners.get(iu, 0) | bv
        partners[iv] = partners.get(iv, 0) | bu
    return cliques, partial(_mask_candidates, g, _edge_adjacency(edges),
                            cliques, masks, partners)


def _insert_edges(g: Graph, h: EdgeBatch) -> None:
    _require_mode(h, "insert")
    h.apply(g)


def enum_new(g: Graph, h: EdgeBatch) -> Iterator[Clique]:
    """Enumerate the newly maximal cliques of g + h, each exactly once.

    The batch is validated and applied, and the update pass's insert-half
    search run, before this returns: per batch edge, the cliques through it
    within the common neighborhood of its endpoints, less any clique that
    holds an earlier batch edge (EnumN). g then holds G+H.
    """
    _insert_edges(g, h)
    return iter(_search_half(g, h.edges, exclude=False)[0])


def enum_new_te(g: Graph, h: EdgeBatch) -> Iterator[Clique]:
    """Same output set as enum_new, by the same search run before this
    returns, but duplicates are never generated: earlier batch edges are
    excluded from the search, so a clique spanning several batch edges is
    built only for the first one (EnumN-TE).
    """
    _insert_edges(g, h)
    return iter(_search_half(g, h.edges, exclude=True)[0])


def _inside_pattern(c: Clique, h_adj: dict[int, set[int]]) -> tuple[Edge, ...]:
    # the positions in c of the batch edges inside c, in ascending order;
    # c is sorted, so this is also their ascending (u, v) order
    touched = [i for i, u in enumerate(c) if u in h_adj]
    pattern: list[Edge] = []
    for a, i in enumerate(touched):
        partners = h_adj[c[i]]
        for j in touched[a + 1:]:
            if c[j] in partners:
                pattern.append((i, j))
    return tuple(pattern)


def _cut(c: Clique, removed: Iterable[int]) -> Clique:
    # c without the ascending positions in removed, still in canonical order
    cand: Clique = ()
    start = 0
    for i in removed:
        cand += c[start:i]
        start = i + 1
    return cand + c[start:]


def _splits(pattern: tuple[Edge, ...]) -> Iterator[set[tuple[int, ...]]]:
    # the one split rule, run along the batch edges at the positions in
    # pattern. A candidate is the ascending positions of the clique it
    # removes; one that keeps both i and j becomes the two that each remove
    # one of them. Yields the candidates before the first split and after
    # each one.
    s: set[tuple[int, ...]] = {()}
    yield s
    for i, j in pattern:
        nxt: set[tuple[int, ...]] = set()
        for r in s:
            if i in r or j in r:
                nxt.add(r)
            else:
                nxt.add(tuple(sorted(r + (i,))))
                nxt.add(tuple(sorted(r + (j,))))
        s = nxt
        yield s


def split_candidates(c: Sequence[int], h_edges: Iterable[Edge],
                     h_adj: dict[int, set[int]] | None = None) -> Iterator[set[Clique]]:
    """Iteratively split c along its batch edges, yielding the candidate set
    after each split.

    The final set is a superset of the maximal cliques of c with the batch
    edges removed: every member is a clique of c − H, but not every member
    is maximal there. Splitting (1, 2, 3) on (1, 2) and (2, 3) ends with
    {(1, 3), (2,), (3,)}, and (3,) lies inside (1, 3). Callers keep only
    the members that pass registry membership or ``_is_maximal``. After
    processing k edges the set has at most 2^k members. h_adj is an
    optional precomputed adjacency of the batch edges.

    The batch edges inside c are split in ascending (u, v) order, by the
    split rule the library's own split pass runs to build its plans. The
    rule works on the positions of c each candidate removes: a candidate
    that keeps both ends of an edge becomes the two that each remove one
    end. c must be canonical and of ints, as canonical_string checks
    (SignatureError otherwise), and is taken as the tuple of its members;
    each yielded candidate is that tuple sliced around its removed
    positions, so members stay in canonical order.
    """
    c = _checked(c)
    if h_adj is None:
        h_adj = _edge_adjacency(h_edges)
    pattern = _inside_pattern(c, h_adj)
    return ({_cut(c, r) for r in s} for s in _splits(pattern))


#: a split plan: for each final candidate of a split other than the whole
#: clique, in ascending order of the cliques they leave, an itemgetter over
#: the ascending positions it keeps, so one C call cuts it from a clique (a
#: one-position getter holds a slice, so every candidate is still a tuple).
#: Plans are shared by every caller in the process, so they are immutable.
Plan = tuple[Callable[[Clique], Clique], ...]

#: plans and removals cached per process: a whole community-insert stream
#: meets a few hundred keys, so this holds them all and bounds the rest
_PLAN_CACHE_SIZE = 4096


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _removals(pattern: tuple[Edge, ...]) -> frozenset[tuple[int, ...]]:
    # the final candidates of the split along pattern but the whole clique
    *_, s = _splits(pattern)
    return frozenset(s - {()})


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _split_plan(n: int, pattern: tuple[Edge, ...]) -> Plan:
    # the plan of every n-vertex clique with its batch edges at the
    # positions in pattern, built once per process for each such key: as
    # these cliques are sorted, their candidates sort as the same cut of
    # positions 0..n-1 does. The whole clique is left, and left out, when no
    # batch edge lies inside it. A candidate keeps at least one position: a
    # split removes one end of an edge only while both are kept.
    positions = tuple(range(n))
    kept = sorted(_cut(positions, r) for r in _removals(pattern))
    return tuple(itemgetter(slice(k[0], k[0] + 1)) if len(k) == 1
                 else itemgetter(*k) for k in kept)


#: a mask split plan: for each final candidate other than the whole
#: clique, the mask of the bits it removes, mapped to those bits
_MaskPlan = dict[int, tuple[int, ...]]


def _mask_plan(key: int, partners: dict[int, int]) -> _MaskPlan:
    # the plan of every clique whose touched bits are key: its batch edges
    # are those between the bits of key, split in ascending order. The
    # split is run on their ranks within key by the cached _removals, so
    # keys that differ only in which bits they hold share it.
    bits = []
    rest = key
    while rest:
        low = rest & -rest
        rest ^= low
        bits.append(low)
    pattern = tuple((a, b) for a, low in enumerate(bits)
                    for b in range(a + 1, len(bits))
                    if partners[low.bit_length() - 1] & bits[b])
    removed = (tuple(map(bits.__getitem__, r)) for r in _removals(pattern))
    return {sum(r): r for r in removed}


def _candidates(g: Graph, h_adj: dict[int, set[int]],
                cliques: Iterable[Clique]) -> list[Clique]:
    """The split candidates of cliques, each once, in the order first split
    off: what is left after each clique's last split, except the clique
    itself, ascending within it, less the singletons _singleton_rule drops.
    Both update halves split here and keep the candidates their own test
    accepts: a registry probe on insert, _is_maximal on delete.

    A clique c splits by its length and the positions of its batch edges
    alone, so its plan, one getter per candidate over the positions it
    keeps, is built once per process for each such pattern by the cached
    _split_plan; each candidate is one getter call on c. A 2-vertex changed
    clique is its batch edge, so its pattern is known without a scan.

    _mask_candidates gives the same for a half on one shared numbering.
    There c's inside batch edges are fixed by the batch endpoints it holds,
    so its plan is keyed on its touched bits, read with no scan, and built
    once per half, whose numbering the bits are in. A cut is one int; a
    candidate becomes a tuple only when first seen.
    """
    seen: dict[Clique, None] = {}
    for c in cliques:
        pattern = ((0, 1),) if len(c) == 2 else _inside_pattern(c, h_adj)
        for cut in _split_plan(len(c), pattern):
            seen[cut(c)] = None
    return _singleton_rule(g, h_adj, seen)


def _mask_candidates(g: Graph, h_adj: dict[int, set[int]],
                     cliques: list[Clique], masks: list[int],
                     partners: dict[int, int]) -> list[Clique]:
    touched = sum(1 << i for i in partners)
    seen: set[int] = set()
    plans: dict[int, _MaskPlan] = {}
    out: list[Clique] = []
    for c, m in zip(cliques, masks):
        key = m & touched
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = _mask_plan(key, partners)
        if seen.issuperset(map(m.__xor__, plan)):
            continue
        fresh = set(map(m.__xor__, plan)).difference(seen)
        seen |= fresh
        # a removed bit b sits at position (m & (b - 1)).bit_count() in c;
        # the plan is unordered, so c's own candidates sort as tuples
        out += sorted(_cut(c, [(m & (b - 1)).bit_count()
                               for b in plan[m ^ cut]]) for cut in fresh)
    return _singleton_rule(g, h_adj, out)


def _singleton_rule(g: Graph, h_adj: dict[int, set[int]],
                    cands: Iterable[Clique]) -> list[Clique]:
    # the one singleton rule, run on the output of either split: (u,) is
    # maximal only if u is isolated, so it is kept only when every
    # neighbour of u in g is a batch partner of u. That is exact whether g
    # holds the batch or has lost it: on insert it says u was isolated in
    # G, on delete that u is isolated in G - D
    return [c for c in cands if len(c) > 1
            or g.neighbors(c[0]).issubset(h_adj.get(c[0], ()))]


def _subsumed(registry: CliqueRegistry,
              cands: list[Clique]) -> dict[Clique, int]:
    """The registered cliques among the split candidates cands, with their
    signatures, in order: all are hashed by one _keys call, then probed.
    """
    accepted: dict[Clique, int] = {}
    for cand, (sig, canon) in zip(cands, _keys(cands)):
        if registry.contains_signature(sig, canon):
            accepted[cand] = sig
    return accepted


def enum_subsumed(g_prime: Graph, h: EdgeBatch, registry: CliqueRegistry,
                  new_cliques: Iterable[Clique]) -> Iterator[Clique]:
    """Enumerate the cliques of the pre-update graph subsumed by new_cliques.

    g_prime is the post-update graph and registry still holds the
    pre-update clique signatures; candidates are accepted by registry
    membership instead of a maximality check. It gives the subsumed
    cliques of apply_insert_batch's update pass, in its order: each is
    hashed and reported once, after those of earlier new cliques, and
    ascending per new clique. It splits by positions and the pass's
    singleton rule; the pass splits a half that shares one numbering by
    masks instead, to the same candidates in the same order.
    """
    _require_mode(h, "insert")
    h_adj = _edge_adjacency(h.edges)
    return iter(_subsumed(registry, _candidates(g_prime, h_adj, new_cliques)))


def apply_insert_batch(g: Graph, h: EdgeBatch, registry: CliqueRegistry,
                       algo: str = "enumnte") -> ChangeSet:
    """Apply an insert batch, returning the change and committing graph and
    registry to the post-update state.

    This is the one update pass with no deletes: enum_new_te's search (or
    enum_new's), then the subsumed cliques enum_subsumed gives, then one
    commit. If anything raises, even part-way through adding the edges, g
    is put back, with the vertices the batch created, and the registry is
    unchanged. Each deleted clique comes after the first new clique that
    holds it, and the deleted cliques of one new clique are ascending.
    """
    if algo not in ("enumnte", "enumn"):
        raise ValueError(f"unknown algorithm {algo!r}")
    return _update(g, h, EdgeBatch.delete(()), registry, exclude=algo == "enumnte")


def _is_maximal(g: Graph, c: Clique) -> bool:
    """Whether the clique c of g is maximal: a vertex extending c is a
    common neighbour of c[0] and c[1] outside c (the intersection walks
    the smaller neighbourhood, so a hub c[0] stays cheap) whose
    neighbourhood holds c. A 1-vertex c is maximal iff it has no neighbour.
    """
    if len(c) == 1:
        return not g.neighbors(c[0])
    for x in (g.neighbors(c[0]) & g.neighbors(c[1])).difference(c):
        if g.neighbors(x).issuperset(c):
            return False
    return True


def apply_delete_batch(g: Graph, h: EdgeBatch, registry: CliqueRegistry) -> ChangeSet:
    """Apply a delete batch via the incremental/decremental duality: this
    is the one update pass with no inserts, so it is all-or-nothing too.

    The vanished cliques are the cliques of G holding a deleted edge, found
    by the insert side's per-edge search on G before the edges are removed.
    The new ones are their split candidates that are maximal in G - H, by
    the insert side's split pass, each checked once; the pre-update registry
    describes G, so maximality is tested on the graph. Each new clique comes
    after the first vanished clique that holds it, and the new cliques of one
    vanished clique are ascending.
    """
    return _update(g, EdgeBatch.insert(()), h, registry, exclude=True)


def fully_dynamic(g: Graph, inserts: EdgeBatch, deletes: EdgeBatch,
                  registry: CliqueRegistry) -> ChangeSet:
    """Mixed update: all insertions, then all deletions, in the one update
    pass with one commit of the net change.

    Both batches are validated against G (disjoint, so an edge is in G+I
    iff it is in G). The inserts are applied and their new cliques N1 and
    subsumed cliques S1 found, the cliques D2 of G+I holding a deleted edge
    found, the edges removed and D2 split into the newly maximal N2. New
    are N1 - D2 then N2 - S1, deleted S1 - N2 then D2 - N1: a clique one
    half creates and the other destroys cancels and is never hashed, and
    S1's signatures come from its probes. If anything raises, g is put back
    from wherever the pass stopped, and the registry is left as it was.
    """
    return _update(g, inserts, deletes, registry, exclude=True)


def _update(g: Graph, inserts: EdgeBatch, deletes: EdgeBatch,
            registry: CliqueRegistry, exclude: bool) -> ChangeSet:
    """The one update pass; exclude picks the insert half's search, as in
    _search_half. Both batches are validated before the first change, then
    applied. On any later exception g is put back from wherever the pass
    stopped by the inverse batches, and the created vertices are removed.
    """
    _require_mode(inserts, "insert")
    _require_mode(deletes, "delete")
    inserts.validate(g)
    deletes.validate(g)
    created = [v for v in {x for e in inserts.edges for x in e} if not g.has_vertex(v)]
    try:
        inserts.apply(g)
        n1, split = _search_half(g, inserts.edges, exclude)
        s1 = _subsumed(registry, split())
        del split  # a half's masks go once its split has read them
        d2, split = _search_half(g, deletes.edges, exclude=True)
        deletes.apply(g)
        n2 = {c: None for c in split() if _is_maximal(g, c)}
        del split
        in_n1, in_d2 = (set(n1) if d2 else ()), set(d2)
        new = [c for c in n1 if c not in in_d2]
        new += [c for c in n2 if c not in s1]
        gone = [c for c in s1 if c not in n2]
        vanished = [c for c in d2 if c not in in_n1]
        # the vanished cliques give only signatures, so they are hashed on
        # their own and their strings freed before the new ones are hashed
        del_sigs = [s1[c] for c in gone] + [sig for sig, _ in _keys(vanished)]
        registry._commit(_keys(new), del_sigs)
    except BaseException:
        # the delete edges missing from g go back in; no insert edge was in
        # G, as both batches were validated, so the insert edges in g are
        # the ones the pass added
        EdgeBatch.insert([e for e in deletes.edges if not g.has_edge(*e)]).apply(g)
        EdgeBatch.delete([e for e in inserts.edges if g.has_edge(*e)]).apply(g)
        for v in filter(g.has_vertex, created):
            g.remove_vertex(v)
        raise
    return ChangeSet(new, gone + vanished)
