"""Change-sensitive enumeration of new and subsumed maximal cliques.

One batched update takes the graph from G to G' and reports only the
symmetric difference of the two maximal-clique sets: the newly maximal
cliques and the previously maximal cliques they subsume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator

from .enumeration import Clique, _edge_adjacency, _search
from .graph import Edge, EdgeBatch, Graph, BatchError
from .signatures import CliqueRegistry, _checked, _key


@dataclass
class ChangeSet:
    """The two halves of the symmetric difference produced by one update."""

    new_cliques: list[Clique] = field(default_factory=list)
    del_cliques: list[Clique] = field(default_factory=list)

    def total_change_size(self) -> int:
        """Sum of internal edge counts k(k-1)/2 over all changed cliques."""
        return sum(len(c) * (len(c) - 1) // 2
                   for c in self.new_cliques + self.del_cliques)

    def is_empty(self) -> bool:
        return not self.new_cliques and not self.del_cliques


def _require_mode(h: EdgeBatch, mode: str) -> None:
    if h.mode != mode:
        raise BatchError(f"expected {mode}-mode batch, got {h.mode}")


def _contains_edge(cset: set[int], adj: dict[int, set[int]]) -> bool:
    for v in cset:
        partners = adj.get(v)
        if partners and not partners.isdisjoint(cset):
            return True
    return False


def _cliques_through_edges(g: Graph, edges: Iterable[Edge],
                           exclude: bool) -> Iterator[Clique]:
    """The maximal cliques of g containing an edge of edges, each reported
    once, for the first edge it contains.

    Per edge (u, v) the search runs on g itself from the seed [u, v] with
    cand = Γ(u) ∩ Γ(v), on the search core that suits |cand|; with no
    common neighbour the edge itself is the one clique. With exclude, the
    earlier edges are excluded from the search, so a clique holding several
    of them is built only once (EnumN-TE); otherwise it is built for each
    of them and dropped for all but the first (EnumN).
    """
    earlier: dict[int, set[int]] = {}
    for u, v in edges:
        cand = g.neighbors(u) & g.neighbors(v)
        if not cand:
            # batch edges are normalized, so (u, v) is in canonical order
            yield (u, v)
        elif exclude:
            yield from _search(g, [u, v], cand, set(), earlier)
        else:
            for c in _search(g, [u, v], cand, set(), {}):
                if not _contains_edge(set(c), earlier):
                    yield c
        earlier.setdefault(u, set()).add(v)
        earlier.setdefault(v, set()).add(u)


def _absent_endpoints(g: Graph, h: EdgeBatch) -> list[int]:
    # the endpoints of h's edges that g does not hold yet
    return [v for v in {x for e in h.edges for x in e} if not g.has_vertex(v)]


def _insert_edges(g: Graph, h: EdgeBatch) -> list[int]:
    # validate h against g, then apply it; returns the vertices it created
    _require_mode(h, "insert")
    h.validate(g)
    created = _absent_endpoints(g, h)
    for u, v in h.edges:
        g.add_edge(u, v)
    return created


def _undo_insert(g: Graph, h: EdgeBatch, created: list[int]) -> None:
    # take an applied insert batch out of g again, with the vertices it created
    for u, v in h.edges:
        g.remove_edge(u, v)
    for v in created:
        g.remove_vertex(v)


def enum_new(g: Graph, h: EdgeBatch) -> Iterator[Clique]:
    """Enumerate the newly maximal cliques of g + h, each exactly once.

    The batch is validated and applied up front; g holds G+H when this
    returns. Per batch edge, the enumeration finds the cliques through the
    edge within the common neighborhood of its endpoints, suppressing any
    clique that contains an earlier batch edge.
    """
    _insert_edges(g, h)
    return _cliques_through_edges(g, h.edges, exclude=False)


def enum_new_te(g: Graph, h: EdgeBatch) -> Iterator[Clique]:
    """Same output set as enum_new, but duplicates are never generated.

    Earlier batch edges are passed to the enumerator as excluded edges, so
    a clique spanning several batch edges is built only for the first one.
    """
    _insert_edges(g, h)
    return _cliques_through_edges(g, h.edges, exclude=True)


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


def _cut(c: Clique, removed: tuple[int, ...]) -> Clique:
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


def split_candidates(c: Clique, h_edges: Iterable[Edge],
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
    end. c must be canonical (SignatureError otherwise); each yielded
    candidate is c sliced around its removed positions, so members stay in
    canonical order.
    """
    if h_adj is None:
        h_adj = _edge_adjacency(h_edges)
    pattern = _inside_pattern(_checked(c), h_adj)
    return ({_cut(c, r) for r in s} for s in _splits(pattern))


#: a split plan: for each final candidate of a split other than the whole
#: clique, in ascending order of the cliques they leave, the ascending
#: positions it removes
Plan = list[tuple[int, ...]]
#: the plans of one batch, by clique length and batch-edge positions
Plans = dict[tuple[int, tuple[Edge, ...]], Plan]


def _split_plan(n: int, pattern: tuple[Edge, ...]) -> Plan:
    # the plan of every n-vertex clique with its batch edges at the
    # positions in pattern: as these cliques are sorted, their candidates
    # sort as the same cut of positions 0..n-1 does. The whole clique is
    # left, and left out, when no batch edge lies inside it.
    for s in _splits(pattern):
        pass
    positions = tuple(range(n))
    return sorted(s - {()}, key=lambda r: _cut(positions, r))


def _split_off(c: Clique, h_adj: dict[int, set[int]],
               accepted: Container[Clique],
               plans: Plans) -> list[Clique]:
    """The cliques left after c's last split, in ascending order, except c
    itself and the cliques in accepted.

    The split depends only on the length of c and the positions of its
    batch edges, so its plan, the positions each candidate removes, is
    computed once per batch for each such pattern and kept in plans; each
    candidate is then cut from c around its removed positions. A 2-vertex
    changed clique is its one batch edge, so its pattern is known without
    a scan. Distinct changed cliques of one batch can split off the same
    candidate; skipping the ones the batch already accepted reports each
    once, before any work is spent on it.
    """
    n = len(c)
    key = (n, ((0, 1),) if n == 2 else _inside_pattern(c, h_adj))
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _split_plan(*key)
    out = []
    for removed in plan:
        cand = _cut(c, removed)
        if cand not in accepted:
            out.append(cand)
    return out


def _subsumed(g: Graph, h_adj: dict[int, set[int]], registry: CliqueRegistry,
              new_cliques: Iterable[Clique]) -> dict[Clique, int]:
    """The registered cliques that new_cliques subsume, with their
    signatures, in order of the first new clique holding each.

    g holds G+H. A candidate an earlier new clique already had accepted is
    skipped unhashed, and so is a singleton (u,) unless all of u's
    neighbours in g came with the batch: only then was it maximal in G.
    Every other candidate is hashed once and looked up in the registry.
    """
    accepted: dict[Clique, int] = {}
    plans: Plans = {}
    for c in new_cliques:
        for cand in _split_off(c, h_adj, accepted, plans):
            if len(cand) == 1:
                u = cand[0]
                if len(g.neighbors(u)) != len(h_adj.get(u, ())):
                    continue  # u had a neighbour in G
            sig, canon = _key(cand)
            if registry.contains_signature(sig, canon):
                accepted[cand] = sig
    return accepted


def enum_subsumed(g_prime: Graph, h: EdgeBatch, registry: CliqueRegistry,
                  new_cliques: Iterable[Clique]) -> Iterator[Clique]:
    """Enumerate the cliques of the pre-update graph subsumed by new_cliques.

    g_prime is the post-update graph and registry still holds the
    pre-update clique signatures; candidates are accepted by registry
    membership instead of a maximality check. This is the phase
    apply_insert_batch runs: each subsumed clique is hashed and reported
    once, after those of earlier new cliques, and ascending per new clique.
    """
    return iter(_subsumed(g_prime, _edge_adjacency(h.edges), registry,
                          new_cliques))


def apply_insert_batch(g: Graph, h: EdgeBatch, registry: CliqueRegistry,
                       algo: str = "enumnte") -> ChangeSet:
    """Apply an insert batch, returning the change and committing graph and
    registry to the post-update state.

    One pass: the per-edge search, enum_subsumed's phase, one commit. If
    anything raises after the edges are added, they are taken out of g
    again, with the vertices they created, and the registry is unchanged.
    """
    if algo not in ("enumnte", "enumn"):
        raise ValueError(f"unknown algorithm {algo!r}")
    created = _insert_edges(g, h)
    try:
        new = list(_cliques_through_edges(g, h.edges, exclude=algo == "enumnte"))
        dels = _subsumed(g, _edge_adjacency(h.edges), registry, new)
        registry._commit([_key(c) for c in new], dels.values())
    except BaseException:
        _undo_insert(g, h, created)
        raise
    return ChangeSet(new, list(dels))


def iter_insert_batch(g: Graph, h: EdgeBatch, registry: CliqueRegistry,
                      algo: str = "enumnte") -> Iterator[tuple[str, Clique]]:
    """Apply an insert batch and iterate over its change as events.

    A view of the change apply_insert_batch commits: ("new", c) for each
    new clique, then ("del", d) for the cliques c is the first new clique
    to hold, ascending. Graph and registry are committed before this
    returns, so an iterator abandoned mid-way leaves them in step.
    """
    change = apply_insert_batch(g, h, registry, algo)
    dels, i = change.del_cliques, 0
    events: list[tuple[str, Clique]] = []
    for c in change.new_cliques:
        events.append(("new", c))
        inside = set(c)
        # the dels come in order of the first new clique holding them
        while i < len(dels) and inside.issuperset(dels[i]):
            events.append(("del", dels[i]))
            i += 1
    return iter(events)


def _is_maximal(g: Graph, c: Clique) -> bool:
    # the vertices adjacent to all of c, narrowed from c[0]'s neighbours
    # outside c; each step walks only the few that are left
    common = g.neighbors(c[0]).difference(c)
    for w in c:
        if not common:
            return True
        common &= g.neighbors(w)
    return not common


def apply_delete_batch(g: Graph, h: EdgeBatch, registry: CliqueRegistry) -> ChangeSet:
    """Apply a delete batch via the incremental/decremental duality.

    The vanished cliques are exactly the cliques of G containing a deleted
    edge: the same per-edge search that finds the new cliques of an
    insertion, run on G itself before the edges are removed.
    The cliques that become maximal are their split candidates that are
    maximal in G - H, found by the same split pass as the insert side's
    subsumed cliques, in ascending order for each vanished clique.
    Maximality is checked directly against the mutated graph (the
    pre-update registry describes G, not G - H, so registry membership
    cannot decide it here), and a candidate already accepted for an
    earlier vanished clique is skipped before it is checked.

    Both sides come from the library's own searches, so their keys are
    committed as trusted, as on the insert side. The update is
    all-or-nothing: if anything raises after the edges are removed, they
    are put back and the registry is left as it was.
    """
    _require_mode(h, "delete")
    h.validate(g)

    del_cliques = list(_cliques_through_edges(g, h.edges, exclude=True))

    for u, v in h.edges:
        g.remove_edge(u, v)
    try:
        h_adj = _edge_adjacency(h.edges)
        accepted: dict[Clique, None] = {}
        plans: Plans = {}
        for c in del_cliques:
            for cand in _split_off(c, h_adj, accepted, plans):
                if _is_maximal(g, cand):
                    accepted[cand] = None

        new_cliques = list(accepted)
        registry._commit([_key(c) for c in new_cliques],
                         [_key(c)[0] for c in del_cliques])
    except BaseException:
        for u, v in h.edges:
            g.add_edge(u, v)
        raise
    return ChangeSet(new_cliques, del_cliques)


def fully_dynamic(g: Graph, inserts: EdgeBatch, deletes: EdgeBatch,
                  registry: CliqueRegistry) -> ChangeSet:
    """Two-phase mixed update: all insertions, then all deletions.

    The returned change is the net symmetric difference between the clique
    sets before and after; cliques created by one phase and destroyed by
    the other cancel out. Each phase validates its own batch and is
    all-or-nothing; if phase 2 raises, phase 1 is undone as well, so graph
    and registry are left as they were before the call.
    """
    _require_mode(inserts, "insert")
    _require_mode(deletes, "delete")
    if set(inserts.edges) & set(deletes.edges):
        raise BatchError("insert and delete batches overlap")

    created = _absent_endpoints(g, inserts)
    phase1 = apply_insert_batch(g, inserts, registry)
    try:
        phase2 = apply_delete_batch(g, deletes, registry)
    except BaseException:
        # phase 2 has undone itself; commit phase 1's inverse, then unapply it
        registry._commit([_key(c) for c in phase1.del_cliques],
                         [_key(c)[0] for c in phase1.new_cliques])
        _undo_insert(g, inserts, created)
        raise

    n1, d1 = set(phase1.new_cliques), set(phase1.del_cliques)
    n2, d2 = set(phase2.new_cliques), set(phase2.del_cliques)
    net_new = [c for c in phase1.new_cliques if c not in d2]
    net_new += [c for c in phase2.new_cliques if c not in d1]
    net_del = [c for c in phase1.del_cliques if c not in n2]
    net_del += [c for c in phase2.del_cliques if c not in n1]
    return ChangeSet(net_new, net_del)
