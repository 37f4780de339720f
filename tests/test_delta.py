import copy
import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from cliquedelta import delta, signatures
from cliquedelta import (ChangeSet, CliqueRegistry, EdgeBatch, Graph,
                         BatchError, RegistryError, SignatureCollisionError,
                         apply_delete_batch, apply_insert_batch,
                         batch_extremal, batch_extremal_change, enum_new,
                         enum_new_te, enum_subsumed, f_max, fully_dynamic,
                         moon_moser_correction_pair,
                         single_edge_extremal, split_candidates, ttt)
from cliquedelta.cli import _random_graph as random_graph
from cliquedelta.enumeration import BITSET_MIN_SPAN
from cliquedelta.oracle import oracle_change, oracle_cliques


def random_insert_batch(rng, g, max_rho):
    vs = sorted(g.vertices())
    pool = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
            if not g.has_edge(u, v)]
    return EdgeBatch.insert(rng.sample(pool, min(len(pool), rng.randint(0, max_rho))))


def fresh_registry(g):
    return CliqueRegistry.from_cliques(ttt(g))


# -- enum_new / enum_new_te --------------------------------------------


def test_enum_new_simple():
    g = Graph.from_edges([(1, 2)], vertices=[3])
    out = sorted(enum_new(g, EdgeBatch.insert([(2, 3)])))
    assert out == [(2, 3)]
    assert g.has_edge(2, 3)


def test_enum_new_worked_example():
    # adding (3,5) then (4,5): the only new clique containing (4,5) is {2,3,4,5}
    g = Graph.from_edges([(1, 2), (2, 3), (2, 4), (2, 5), (3, 4)])
    h = EdgeBatch.insert([(3, 5), (4, 5)])
    base = g.copy()
    got = set(enum_new(g, h))
    assert (2, 3, 4, 5) in got
    assert got == set(oracle_change(base, h).new_cliques)


def test_enum_new_k4_from_isolated_emitted_once():
    g = Graph.from_edges([], vertices=[1, 2, 3, 4])
    h = EdgeBatch.insert([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert list(enum_new(g, h)) == [(1, 2, 3, 4)]


def test_enum_new_te_k4_from_isolated_emitted_once():
    g = Graph.from_edges([], vertices=[1, 2, 3, 4])
    h = EdgeBatch.insert([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert list(enum_new_te(g, h)) == [(1, 2, 3, 4)]


def test_enum_new_te_ordering_suppression():
    g = Graph.from_edges([(2, 3), (2, 4), (2, 6), (3, 4), (4, 5), (5, 6)])
    h = EdgeBatch.insert([(3, 6), (4, 6)])
    assert list(enum_new_te(g, h)) == [(2, 3, 4, 6), (4, 5, 6)]


def test_enum_new_te_single_edge_matches_enum_new():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        h = random_insert_batch(rng, g, 1)
        assert set(enum_new(g.copy(), h)) == set(enum_new_te(g.copy(), h))


def test_enum_new_variants_agree_randomized():
    rng = random.Random(31)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 15), rng.random())
        h = random_insert_batch(rng, g, 6)
        base = g.copy()
        a = set(enum_new(g.copy(), h))
        b = set(enum_new_te(g.copy(), h))
        want = set(oracle_change(base, h).new_cliques)
        assert a == b == want


def test_invalid_batch_leaves_graph_untouched():
    g = Graph.from_edges([(1, 2)])
    with pytest.raises(BatchError):
        enum_new_te(g, EdgeBatch.insert([(1, 3), (1, 2)]))
    assert sorted(g.edges()) == [(1, 2)]
    with pytest.raises(BatchError):
        enum_new_te(g, EdgeBatch.delete([(1, 2)]))
    with pytest.raises(BatchError, match="expected insert-mode batch, got delete"):
        enum_subsumed(g, EdgeBatch.delete([(1, 2)]), fresh_registry(g), [(1, 2, 3)])


def test_unknown_algorithm_leaves_graph_untouched():
    g = Graph.from_edges([(1, 2)])
    reg = fresh_registry(g)
    with pytest.raises(ValueError, match="unknown algorithm 'x'"):
        apply_insert_batch(g, EdgeBatch.insert([(2, 3)]), reg, algo="x")
    assert (sorted(g.edges()), sorted(g.vertices())) == ([(1, 2)], [1, 2])
    assert reg == fresh_registry(g)


def test_algorithm_picks_the_insert_search(monkeypatch):
    # EnumN and EnumN-TE give the same change, so which one ran shows only
    # in the search each half is given: the insert half excludes earlier
    # batch edges under EnumN-TE alone, the delete half always does
    excludes = []
    real_search_half = delta._search_half

    def search_half(g, edges, exclude):
        excludes.append(exclude)
        return real_search_half(g, edges, exclude)

    monkeypatch.setattr(delta, "_search_half", search_half)
    g = Graph.from_edges([(1, 2), (2, 3)])
    h = EdgeBatch.insert([(1, 3), (3, 4)])
    changes = []
    for args, want in (((), True), (("enumnte",), True), (("enumn",), False)):
        excludes.clear()
        graph = g.copy()
        reg = fresh_registry(graph)
        changes.append(apply_insert_batch(graph, h, reg, *args))
        assert excludes == [want, True]
        assert reg == fresh_registry(graph)
    assert changes[0] == changes[1] == changes[2]


# -- enum_subsumed ------------------------------------------------------


def test_subsumed_path_closure():
    g = Graph.from_edges([(1, 2), (2, 3)])
    reg = fresh_registry(g)
    h = EdgeBatch.insert([(1, 3)])
    new = list(enum_new_te(g, h))
    assert set(enum_subsumed(g, h, reg, new)) == {(1, 2), (2, 3)}


def test_subsumed_singletons():
    g = Graph.from_edges([], vertices=[1, 2])
    reg = fresh_registry(g)
    h = EdgeBatch.insert([(1, 2)])
    new = list(enum_new_te(g, h))
    assert new == [(1, 2)]
    assert set(enum_subsumed(g, h, reg, new)) == {(1,), (2,)}


def test_split_candidate_bound():
    c = tuple(range(1, 8))
    edges = ((1, 2), (3, 4), (1, 5), (2, 6))
    for k, s in enumerate(split_candidates(c, edges)):
        assert len(s) <= 2 ** k


@pytest.mark.parametrize("c", [(2, 1), (1, 1, 2), ()],
                         ids=["descending", "repeated", "empty"])
def test_split_candidates_rejects_non_canonical_clique(c):
    with pytest.raises(signatures.SignatureError):
        split_candidates(c, [(1, 2)])


def test_split_candidates_cover_mce_of_c_minus_h():
    # the final candidate set may contain non-maximal cliques (filtered later
    # by the registry/maximality check) but must cover every maximal clique
    # of c with the batch edges removed, and contain only cliques of it
    for s in split_candidates((1, 2, 3), ((1, 2), (2, 3))):
        final = s
    # (3,) is not maximal in c - H: it lies inside (1, 3)
    assert final == {(1, 3), (2,), (3,)}
    rng = random.Random(4)
    for _ in range(50):
        size = rng.randint(2, 8)
        c = tuple(range(1, size + 1))
        pool = [(u, v) for u in c for v in c if u < v]
        edges = tuple(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        for s in split_candidates(c, edges):
            final = s
        g = Graph.from_edges([e for e in pool if e not in set(edges)],
                             vertices=c)
        maximal = oracle_cliques(g)
        assert maximal <= final
        for cand in final:
            assert all(g.has_edge(u, v) for i, u in enumerate(cand)
                       for v in cand[i + 1:])


def _reference_splits(c, h_edges):
    # the split rule on vertex tuples, independent of the library's
    # positions: along the batch edges inside c in ascending (u, v) order, a
    # candidate holding both u and v becomes the two without one of them
    inside = sorted({tuple(sorted(e)) for e in h_edges if set(e) <= set(c)})
    s = {c}
    yield s
    for u, v in inside:
        nxt = set()
        for cand in s:
            if u in cand and v in cand:
                nxt.add(tuple(x for x in cand if x != u))
                nxt.add(tuple(x for x in cand if x != v))
            else:
                nxt.add(cand)
        s = nxt
        yield s


def test_candidates_match_stepwise_split():
    # the public stepwise split must equal the vertex-level reference at
    # every step, and _candidates must give what the reference ends with:
    # ascending per clique, and each candidate once, where it is first
    # seen. In one call each pattern of batch-edge positions comes back
    # under other vertex ids, in a longer clique, where its candidates can
    # sort the other way, and in a clique that trades one vertex of the
    # first for the far end of a batch edge leaving it, which shares some
    # of the first clique's candidates.
    rng = random.Random(8)
    shared = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        inside = rng.sample(pairs, rng.randint(1, min(6, len(pairs))))
        cliques, edges = [], []
        for base, size in ((0, n), (100, n), (200, rng.randint(n + 1, 12))):
            c = tuple(sorted(rng.sample(range(base + 1, base + 80), size)))
            cliques.append(c)
            edges += [(c[i], c[j]) for i, j in inside]
            # batch edges leaving c touch its vertices but are not inside it
            edges += [(u, v) for u in rng.sample(c, rng.randint(0, size))
                      for v in [rng.randint(base + 80, base + 99)]]
        # the traded-in vertex keeps a batch edge inside the new clique, as
        # every changed clique holds one
        first, (i, _) = cliques[0], rng.choice(inside)
        far = [v for u, v in edges if u in first[:i] + first[i + 1:]
               and v not in first]
        if far:
            cliques.append(tuple(sorted(first[:i] + first[i + 1:]
                                        + (rng.choice(far),))))
        rng.shuffle(edges)
        # a graph of the batch edges alone, where the singleton rule keeps
        # every singleton
        g, h_adj = Graph.from_edges(edges), delta._edge_adjacency(edges)
        finals = []
        for c in cliques:
            steps = list(_reference_splits(c, edges))
            assert list(split_candidates(c, edges)) == steps
            finals.append(sorted(steps[-1] - {c}))
            assert delta._candidates(g, h_adj, [c]) == finals[-1]
        want = list(dict.fromkeys(cand for f in finals for cand in f))
        assert delta._candidates(g, h_adj, cliques) == want
        shared += sum(map(len, finals)) - len(want)
    assert shared > 100
    # fixed cases where candidates keep one vertex, whose getters hold a
    # slice: an edge, and a triangle with all three of its edges inside
    for c, edges in (((3, 9), [(3, 9)]),
                     ((2, 5, 7), [(5, 7), (2, 7), (2, 5)])):
        steps = list(_reference_splits(c, edges))
        assert list(split_candidates(c, edges)) == steps
        got = delta._candidates(Graph.from_edges(edges),
                                delta._edge_adjacency(edges), [c])
        assert got == sorted(steps[-1] - {c}) == [(u,) for u in c]


def _two_extremal_copies(pendant):
    # one fully_dynamic step over two disjoint batch_extremal(20, 12)
    # copies, inserting copy A's batch and deleting copy B's. Every batch
    # edge has 14 common neighbours, so each half shares one numbering. A
    # pendant adds to each batch an edge with no common neighbour, one
    # creating a vertex and one leaving it isolated, so both halves search
    # per edge.
    base, batch = batch_extremal(20, 12)
    shift = 100
    edges_b = [(u + shift, v + shift) for u, v in base.edges()]
    ins = list(batch.edges)
    dels = [(u + shift, v + shift) for u, v in batch.edges]
    if pendant:
        ins.append((1, 99))
        dels.append((1 + shift, 99 + shift))
    g = Graph.from_edges(list(base.edges()) + edges_b + dels)
    return g, EdgeBatch.insert(ins), EdgeBatch.delete(dels)


def test_split_plans_built_once_per_pattern(monkeypatch):
    # on the per-edge path a positional plan is built once per process for
    # each (length, pattern) key among the cliques the halves split, and
    # reused for every other clique with that key, in either half and in
    # every later update
    g, ins, dels = _two_extremal_copies(pendant=True)
    before = g.copy()
    reg = fresh_registry(g)
    split = []
    real_candidates = delta._candidates

    def candidates(g, h_adj, cliques):
        cliques = list(cliques)
        split.extend(cliques)
        return real_candidates(g, h_adj, cliques)

    monkeypatch.setattr(delta, "_candidates", candidates)
    delta._split_plan.cache_clear()
    delta._removals.cache_clear()
    fully_dynamic(g, ins, dels, reg)
    assert reg == fresh_registry(g)
    keys = set()
    for graph, h_edges in ((g, ins.edges), (before, dels.edges)):
        h_adj = delta._edge_adjacency(h_edges)
        keys |= {(len(c), delta._inside_pattern(c, h_adj)) for c in ttt(graph)}
    keys = {k for k in keys if k[1]}
    patterns = {pattern for _, pattern in keys}
    plans = delta._split_plan.cache_info()
    # the two halves meet the same two keys: the extremal cliques' and
    # the pendant edge's
    assert plans.misses == len(keys) == 2
    assert plans.hits + plans.misses == len(split) > 10 * len(keys)
    assert delta._removals.cache_info().misses == len(patterns)
    # the reverse toggle splits cliques with the same keys, and builds none
    split.clear()
    fully_dynamic(g, EdgeBatch.insert(dels.edges),
                  EdgeBatch.delete(ins.edges), reg)
    assert reg == fresh_registry(g)
    after = delta._split_plan.cache_info()
    assert after.misses == len(keys)
    assert after.hits - plans.hits == len(split) > 10 * len(keys)
    assert delta._removals.cache_info().misses == len(patterns)


def test_mask_plans_built_once_per_touched_set(monkeypatch):
    # with both halves on a shared numbering, each builds one mask plan for
    # each set of batch endpoints among the cliques it splits, and reuses
    # it for every other clique holding that set; no positional plan is
    # built
    g, ins, dels = _two_extremal_copies(pendant=False)
    reg = fresh_registry(g)
    halves = []
    real_plan, real_candidates = delta._mask_plan, delta._mask_candidates

    def mask_plan(key, partners):
        halves[-1][1].append(key)
        return real_plan(key, partners)

    def mask_candidates(g, h_adj, cliques, masks, partners):
        halves.append((cliques, []))
        return real_candidates(g, h_adj, cliques, masks, partners)

    def split_plan(n, pattern):
        raise AssertionError("positional plan on a shared half")

    monkeypatch.setattr(delta, "_mask_plan", mask_plan)
    monkeypatch.setattr(delta, "_mask_candidates", mask_candidates)
    monkeypatch.setattr(delta, "_split_plan", split_plan)
    fully_dynamic(g, ins, dels, reg)
    assert reg == fresh_registry(g)
    assert len(halves) == 2
    for (cliques, keys), h in zip(halves, (ins, dels)):
        ends = {x for e in h.edges for x in e}
        assert all(not ends.isdisjoint(c) for c in cliques)
        assert len(keys) == len(set(keys))
        assert len(keys) == len({frozenset(ends.intersection(c))
                                 for c in cliques})
        assert len(cliques) > 10 * len(keys)


def _created_vertex_case():
    # a clique and the edges that join a new vertex w to BITSET_MIN_SPAN + 1
    # of its vertices: each such edge has BITSET_MIN_SPAN common neighbours
    # once they are all in
    clique = range(1, BITSET_MIN_SPAN + 4)
    w = len(clique) + 1
    return (Graph.from_edges(combinations(clique, 2)),
            tuple((x, w) for x in clique[:BITSET_MIN_SPAN + 1]))


def _shared_cases():
    # (graph holding the edges, edges) pairs whose every edge has at least
    # BITSET_MIN_SPAN common neighbours: the paper's extremal constructions
    # with their batch added, and dense random graphs with a sample of
    # their own edges
    for n, eps in ((16, 8), (19, 7), (20, 12), (21, 10), (23, 13)):
        g, h = batch_extremal(n, eps)
        h.apply(g)
        yield g, h.edges
    for n in (12, 15):
        g, e = single_edge_extremal(n)
        g.add_edge(*e)
        yield g, (e,)
    for n in (13, 16):
        h_n, g_n = moon_moser_correction_pair(n)
        yield g_n, tuple(e for e in g_n.edges() if not h_n.has_edge(*e))
    rng = random.Random(19)
    for _ in range(12):
        g = random_graph(rng, rng.randint(20, 32), rng.uniform(0.6, 0.9))
        wide = [e for e in sorted(g.edges())
                if len(g.neighbors(e[0]) & g.neighbors(e[1])) >= BITSET_MIN_SPAN]
        yield g, tuple(rng.sample(wide, rng.randint(1, min(12, len(wide)))))
    g, created = _created_vertex_case()
    for e in created:
        g.add_edge(*e)
    yield g, created
    g, hub = _hub_case()
    g.add_edge(*hub)
    yield g, (hub,)


def _hub_case():
    # the hub pair (1, 2), not yet joined, and 40 common neighbours that
    # form a 3-regular ring, i ~ i + 1 and i ~ i + 20: a wide span of
    # low-degree vertices, so most numbered vertices sum their masks from
    # the neighbours they have in the span
    ring = range(3, 43)
    return Graph.from_edges(
        [(h, x) for h in (1, 2) for x in ring]
        + [(ring[i], ring[(i + 1) % 40]) for i in range(40)]
        + [(ring[i], ring[i + 20]) for i in range(20)]), (1, 2)


def test_shared_half_matches_per_edge_path(monkeypatch):
    # the insert half under EnumN-TE and EnumN, and the delete half (always
    # EnumN-TE, searched on the graph still holding its edges), must give
    # the per-edge path's cliques and split candidates, in the same order;
    # the per-edge path is forced by a sharing bound no span reaches
    cases = 0
    for g, edges in _shared_cases():
        for exclude in (True, False):
            cliques, split = delta._search_half(g, edges, exclude)
            assert split.func is delta._mask_candidates
            with monkeypatch.context() as m:
                m.setattr(delta, "BITSET_MIN_SPAN", g.num_vertices())
                want, per_edge = delta._search_half(g, edges, exclude)
            assert per_edge.func is delta._candidates
            assert per_edge.args[1] == delta._edge_adjacency(edges)
            assert cliques == want
            assert split() == per_edge()
            cases += 1
    assert cases == 2 * 23


def test_hub_half_change_matches_ttt_diff():
    # each of the ring's 60 edges makes a new clique with the hub pair and
    # subsumes its two triangles with one hub; 40 of the 42 numbered
    # vertices miss at least half the span, so _numbering sums their masks
    # from their neighbours in it
    g, hub = _hub_case()
    before = set(ttt(g))
    reg = fresh_registry(g)
    change = apply_insert_batch(g, EdgeBatch.insert([hub]), reg)
    after = set(ttt(g))
    assert sorted(change.new_cliques) == sorted(after - before)
    assert sorted(change.del_cliques) == sorted(before - after)
    assert (len(change.new_cliques), len(change.del_cliques)) == (60, 120)
    assert reg == fresh_registry(g)
    span = set(g.vertices())
    assert sum(2 * len(span - g.neighbors(v)) >= len(span) for v in span) == 40


def test_half_numbering_built_only_when_every_span_is_wide(monkeypatch):
    # a vertex w joined to k of the vertices that vertex 1 of
    # batch_extremal is joined to: the edge (1, w) has k common neighbours
    # and every batch edge more than BITSET_MIN_SPAN
    spans, plans = [], []
    real_numbering = delta._numbering
    real_split_plan, real_mask_plan = delta._split_plan, delta._mask_plan

    def numbering(g, span):
        spans.append(len(span))
        return real_numbering(g, span)

    def split_plan(*args):
        plans.append("split")
        return real_split_plan(*args)

    def mask_plan(*args):
        plans.append("mask")
        return real_mask_plan(*args)

    monkeypatch.setattr(delta, "_numbering", numbering)
    monkeypatch.setattr(delta, "_split_plan", split_plan)
    monkeypatch.setattr(delta, "_mask_plan", mask_plan)
    eps = 12
    n = eps + BITSET_MIN_SPAN + 2
    base, batch = batch_extremal(n, eps)
    w = n + 1
    extra = EdgeBatch.insert([(1, w)])
    both = EdgeBatch.insert(batch.edges + extra.edges)
    for k, numbered in ((BITSET_MIN_SPAN, [n + 1]),
                        (BITSET_MIN_SPAN - 1, []),
                        (0, [])):  # (1, w) creates w
        g = Graph.from_edges(list(base.edges())
                             + [(v, w) for v in range(eps + 1, eps + 1 + k)])
        # the public phases search by the update pass's rule, to its
        # cliques, and never split
        for algo, phase in (("enumnte", enum_new_te), ("enumn", enum_new)):
            spans.clear()
            plans.clear()
            found = list(phase(g.copy(), both))
            assert spans == numbered
            assert plans == []
            assert found == apply_insert_batch(
                g.copy(), both, fresh_registry(g), algo).new_cliques
        reg = fresh_registry(g)
        for update in (lambda: apply_insert_batch(g, both, reg),
                       lambda: apply_delete_batch(
                           g, EdgeBatch.delete(both.edges), reg)):
            spans.clear()
            plans.clear()
            update()
            assert reg == fresh_registry(g)
            assert spans == numbered
            # the update pass splits, by masks on a shared numbering
            assert set(plans) == {"mask" if numbered else "split"}
    # in a mixed update each half follows its own spans
    g = Graph.from_edges(base.edges())
    reg = fresh_registry(g)
    apply_insert_batch(g, batch, reg)
    spans.clear()
    fully_dynamic(g, extra, EdgeBatch.delete(batch.edges), reg)
    assert reg == fresh_registry(g)
    assert spans == [n]
    # a created vertex shares too once its own batch edges give each of
    # them a wide span
    g, created = _created_vertex_case()
    reg = fresh_registry(g)
    for update, h in ((apply_insert_batch, EdgeBatch.insert(created)),
                      (apply_delete_batch, EdgeBatch.delete(created))):
        spans.clear()
        update(g, h, reg)
        assert reg == fresh_registry(g)
        assert spans == [len(created) + 1]


def test_delete_checks_each_candidate_once(monkeypatch):
    # vertices 3, 4 and 6 are each joined to the triangle (1, 2, 5);
    # deleting (1, 3) and (1, 4) splits both (1, 2, 3, 5) and (1, 2, 4, 5)
    # into (1, 2, 5), which (1, 2, 5, 6) holds: it is checked once
    g = Graph.from_edges([(1, 2), (1, 5), (2, 5)] + [
        (u, v) for v in (3, 4, 6) for u in (1, 2, 5)])
    reg = fresh_registry(g)
    checked, real_is_maximal = [], delta._is_maximal

    def is_maximal(g, c):
        checked.append(c)
        return real_is_maximal(g, c)

    monkeypatch.setattr(delta, "_is_maximal", is_maximal)
    change = apply_delete_batch(g, EdgeBatch.delete([(1, 3), (1, 4)]), reg)
    assert checked == [(1, 2, 5), (2, 3, 5), (2, 4, 5)]
    assert change == ChangeSet([(2, 3, 5), (2, 4, 5)],
                               [(1, 2, 3, 5), (1, 2, 4, 5)])
    assert reg == fresh_registry(g)


@pytest.mark.parametrize("update", [
    lambda g, dels, reg: apply_delete_batch(g, dels, reg),
    lambda g, dels, reg: fully_dynamic(g, EdgeBatch.insert([(100, 101)]),
                                       dels, reg),
], ids=["apply_delete_batch", "fully_dynamic"])
def test_delete_checks_singleton_only_for_vertex_the_batch_isolates(
        monkeypatch, update):
    # a delete half sends (u,) to _is_maximal only when u has no neighbour
    # left: deleting (1, 2) and (1, 3) from the triangle (1, 2, 3) with the
    # pendant (1, 5) splits (1, 2, 3) into (2, 3), (1,) and (3,), and 1
    # keeps 5 and 3 keeps 2. Deleting the edges of _created_vertex_case's
    # new vertex w, on a shared numbering, isolates w alone
    checked, real_is_maximal = [], delta._is_maximal

    def is_maximal(g, c):
        checked.append(c)
        return real_is_maximal(g, c)

    monkeypatch.setattr(delta, "_is_maximal", is_maximal)
    g = Graph.from_edges([(1, 2), (1, 3), (2, 3), (1, 5)])
    reg = fresh_registry(g)
    update(g, EdgeBatch.delete([(1, 2), (1, 3)]), reg)
    assert checked == [(2, 3)]
    assert reg == fresh_registry(g)
    g, created = _created_vertex_case()
    for e in created:
        g.add_edge(*e)
    assert delta._search_half(g, created, True)[1].func is delta._mask_candidates
    reg = fresh_registry(g)
    checked.clear()
    update(g, EdgeBatch.delete(created), reg)
    assert [c for c in checked if len(c) == 1] == [(created[0][1],)]
    assert reg == fresh_registry(g)


# -- apply_insert_batch -------------------------------------------------


def test_apply_insert_empty_batch():
    g = Graph.from_edges([(1, 2)])
    reg = fresh_registry(g)
    change = apply_insert_batch(g, EdgeBatch.insert([]), reg)
    assert change == ChangeSet()
    assert len(reg) == 1


def test_apply_insert_matches_oracle_randomized():
    rng = random.Random(77)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 15), rng.random())
        h = random_insert_batch(rng, g, 5)
        base = g.copy()
        reg = fresh_registry(g)
        change = apply_insert_batch(g, h, reg)
        want = oracle_change(base, h)
        assert sorted(change.new_cliques) == want.new_cliques
        assert sorted(change.del_cliques) == want.del_cliques
        after = oracle_cliques(g)
        assert len(reg) == len(after)
        assert all(c in reg for c in after)


def test_reconstruction_identity():
    rng = random.Random(123)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 15), rng.random())
        h = random_insert_batch(rng, g, 6)
        before = oracle_cliques(g)
        reg = fresh_registry(g)
        change = apply_insert_batch(g, h, reg)
        rebuilt = (before - set(change.del_cliques)) | set(change.new_cliques)
        assert rebuilt == oracle_cliques(g)


def test_new_cliques_contain_batch_edge_and_are_maximal():
    rng = random.Random(55)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        h = random_insert_batch(rng, g, 4)
        before = oracle_cliques(g)
        reg = fresh_registry(g)
        change = apply_insert_batch(g, h, reg)
        after = oracle_cliques(g)
        hset = set(h.edges)
        for c in change.new_cliques:
            assert c in after
            assert any(u in c and v in c for u, v in hset)
        for c in change.del_cliques:
            assert c in before and c not in after


@pytest.mark.parametrize("update", ["enumnte", "enumn", "delete"])
def test_change_follows_first_holder_ascending(update):
    # a subsumed clique follows the first new clique that holds it: it is a
    # maximal clique of c - H for every new clique c holding it, so the
    # first of them splits it off, ascending among that c's. A delete swaps
    # the roles: a new clique follows the first vanished clique holding it
    rng = random.Random(21)
    shared = 0  # changed cliques held by more than one holder
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 14), rng.random())
        reg = fresh_registry(g)
        if update == "delete":
            edges = sorted(g.edges())
            h = EdgeBatch.delete(
                rng.sample(edges, min(len(edges), rng.randint(0, 5))))
            change = apply_delete_batch(g, h, reg)
            holders, held = change.del_cliques, change.new_cliques
        else:
            h = random_insert_batch(rng, g, 5)
            if rng.random() < 0.3:  # the batch creates a vertex
                h = EdgeBatch.insert([*h.edges, (rng.choice(sorted(g.vertices())),
                                                 max(g.vertices()) + 1)])
            change = apply_insert_batch(g, h, reg, update)
            holders, held = change.new_cliques, change.del_cliques
        order = [(min(i for i, c in enumerate(holders) if set(d) <= set(c)), d)
                 for d in held]
        assert order == sorted(order)
        shared += sum(sum(set(d) <= set(c) for c in holders) > 1 for d in held)
    assert shared > 0


# -- apply_delete_batch -------------------------------------------------


def test_delete_triangle_edge():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    reg = fresh_registry(g)
    change = apply_delete_batch(g, EdgeBatch.delete([(1, 3)]), reg)
    assert change.del_cliques == [(1, 2, 3)]
    assert sorted(change.new_cliques) == [(1, 2), (2, 3)]


def test_delete_all_triangle_edges():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    reg = fresh_registry(g)
    change = apply_delete_batch(
        g, EdgeBatch.delete([(1, 2), (2, 3), (1, 3)]), reg)
    assert sorted(change.new_cliques) == [(1,), (2,), (3,)]
    assert change.del_cliques == [(1, 2, 3)]


def test_delete_absent_edge_no_mutation():
    g = Graph.from_edges([(1, 2)])
    reg = fresh_registry(g)
    with pytest.raises(BatchError):
        apply_delete_batch(g, EdgeBatch.delete([(1, 3)]), reg)
    assert sorted(g.edges()) == [(1, 2)]
    assert len(reg) == 1


def test_delete_absent_from_g_plus_i_leaves_mixed_update_untouched():
    # the insert creates vertex 9; (2, 9) is in neither G nor G+I
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)], vertices=[4])
    reg = CliqueRegistry.from_cliques(ttt(g), verify=True)
    before = copy.deepcopy(_state(g, reg))
    with pytest.raises(BatchError, match="not in graph"):
        fully_dynamic(g, EdgeBatch.insert([(1, 9), (3, 4)]),
                      EdgeBatch.delete([(1, 2), (2, 9)]), reg)
    assert _state(g, reg) == before


def test_is_maximal_matches_brute_force():
    # seeded random graphs with a hub 0 adjacent to every other vertex, so
    # that 0 is c[0] of every clique holding it, and isolated vertices; the
    # candidates are every vertex alone and random cliques grown greedily
    rng = random.Random(808)
    checked = Counter()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        if rng.random() < 0.5:
            for v in list(g.vertices()):
                g.add_edge(0, v)
        for v in rng.sample(range(20, 40), rng.randint(0, 2)):
            g.add_vertex(v)
        vs = sorted(g.vertices())
        cands = [(v,) for v in vs]
        for _ in range(10):
            c = {rng.choice(vs)}
            for v in rng.sample(vs, len(vs)):
                if (v not in c and rng.random() < 0.7
                        and all(g.has_edge(v, u) for u in c)):
                    c.add(v)
            cands.append(tuple(sorted(c)))
        for c in cands:
            want = not any(all(g.has_edge(v, u) for u in c)
                           for v in vs if v not in c)
            assert delta._is_maximal(g, c) == want, (sorted(g.edges()), c)
            checked[len(c) == 1, c[0] == 0, want] += 1
    # singletons and hub-led cliques, maximal and not
    assert all(checked[k] > 20 for k in [(True, False, True), (True, False, False),
                                         (False, True, True), (False, True, False),
                                         (False, False, True), (False, False, False)])


def test_apply_delete_matches_oracle_randomized():
    rng = random.Random(99)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 15), rng.random())
        edges = sorted(g.edges())
        h = EdgeBatch.delete(rng.sample(edges, min(len(edges), rng.randint(0, 5))))
        base = g.copy()
        reg = fresh_registry(g)
        change = apply_delete_batch(g, h, reg)
        want = oracle_change(base, h)
        assert sorted(change.new_cliques) == want.new_cliques
        assert sorted(change.del_cliques) == want.del_cliques
        after = oracle_cliques(g)
        assert len(reg) == len(after) and all(c in reg for c in after)


def test_duality_of_insert_and_delete():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        edges = sorted(g.edges())
        h_edges = rng.sample(edges, min(len(edges), rng.randint(0, 5)))
        gd = g.copy()
        regd = fresh_registry(gd)
        dchange = apply_delete_batch(gd, EdgeBatch.delete(h_edges), regd)
        gi = g.copy()
        for u, v in h_edges:
            gi.remove_edge(u, v)
        regi = fresh_registry(gi)
        ichange = apply_insert_batch(gi, EdgeBatch.insert(h_edges), regi)
        assert sorted(dchange.del_cliques) == sorted(ichange.new_cliques)
        assert sorted(dchange.new_cliques) == sorted(ichange.del_cliques)


# -- fully_dynamic ------------------------------------------------------


def test_fully_dynamic_cancellation():
    # the triangle appears in phase 1's new list and phase 2's del list and
    # must cancel out of the net change
    g = Graph.from_edges([(1, 2), (2, 3)])
    reg = fresh_registry(g)
    change = fully_dynamic(g, EdgeBatch.insert([(1, 3)]),
                           EdgeBatch.delete([(2, 3)]), reg)
    assert (1, 2, 3) not in change.new_cliques
    assert (1, 2, 3) not in change.del_cliques
    assert set(change.new_cliques) == {(1, 3)}
    assert set(change.del_cliques) == {(2, 3)}


def test_fully_dynamic_empty_inserts_equals_delete():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    reg = fresh_registry(g)
    change = fully_dynamic(g, EdgeBatch.insert([]),
                           EdgeBatch.delete([(1, 3)]), reg)
    assert change.del_cliques == [(1, 2, 3)]
    assert sorted(change.new_cliques) == [(1, 2), (2, 3)]


def test_fully_dynamic_overlap_rejected():
    # an edge in both batches fails the insert check when it is in G and
    # the delete check when it is not
    g = Graph.from_edges([(1, 2)])
    reg = fresh_registry(g)
    before = copy.deepcopy(_state(g, reg))
    for edge, message in [((1, 2), r"insert batch edge \(1,2\) already in"),
                          ((1, 3), r"delete batch edge \(1,3\) not in")]:
        with pytest.raises(BatchError, match=message):
            fully_dynamic(g, EdgeBatch.insert([edge]),
                          EdgeBatch.delete([edge]), reg)
        assert _state(g, reg) == before


def test_mixed_update_rejects_delete_batch_before_any_change(monkeypatch):
    # the delete batch is checked with the insert batch, so a rejected
    # one leaves the insert half unapplied and unsearched
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)], vertices=[4])
    reg = fresh_registry(g)
    before = copy.deepcopy(_state(g, reg))
    calls = Counter()
    real_add_edge, real_search_half = Graph.add_edge, delta._search_half

    def add_edge(self, u, v):
        calls["add_edge"] += 1
        return real_add_edge(self, u, v)

    def search_half(*args, **kwargs):
        calls["search_half"] += 1
        return real_search_half(*args, **kwargs)

    monkeypatch.setattr(Graph, "add_edge", add_edge)
    monkeypatch.setattr(delta, "_search_half", search_half)
    with pytest.raises(BatchError, match=r"delete batch edge \(1,5\) not in graph"):
        fully_dynamic(g, EdgeBatch.insert([(1, 4)]),
                      EdgeBatch.delete([(1, 5)]), reg)
    assert calls == Counter()
    assert _state(g, reg) == before


def test_fully_dynamic_matches_oracle_randomized():
    rng = random.Random(1001)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 14), rng.random())
        ins = random_insert_batch(rng, g, 4)
        pool = [e for e in sorted(g.edges()) if e not in set(ins.edges)]
        dels = EdgeBatch.delete(
            rng.sample(pool, min(len(pool), rng.randint(0, 4))))
        base = g.copy()
        reg = fresh_registry(g)
        change = fully_dynamic(g, ins, dels, reg)
        before = oracle_cliques(base)
        for u, v in ins.edges:
            base.add_edge(u, v)
        for u, v in dels.edges:
            base.remove_edge(u, v)
        after = oracle_cliques(base)
        assert set(change.new_cliques) == after - before
        assert set(change.del_cliques) == before - after
        assert not (set(change.new_cliques) & set(change.del_cliques))


def test_long_sequences_match_oracle_after_every_step():
    # every update kind, many steps deep: the change must equal the oracle
    # diff and the registry the oracle's clique set after each step
    kinds = ("insert", "delete", "mixed", "enumn", "delete", "insert")
    rng = random.Random(1729)
    for _ in range(20):
        g = random_graph(rng, rng.randint(6, 14), rng.uniform(0.1, 0.9))
        edges = set(g.edges())
        reg = fresh_registry(g)
        before = oracle_cliques(g)
        for step in range(30):
            kind = kinds[step % len(kinds)]
            ins = random_insert_batch(rng, g, 4)
            dels = EdgeBatch.delete(rng.sample(
                sorted(edges), min(len(edges), rng.randint(0, 4))))
            if kind == "insert":
                change = apply_insert_batch(g, ins, reg)
            elif kind == "enumn":
                change = apply_insert_batch(g, ins, reg, algo="enumn")
            elif kind == "delete":
                change = apply_delete_batch(g, dels, reg)
            else:
                change = fully_dynamic(g, ins, dels, reg)
            if kind != "delete":
                edges |= set(ins.edges)
            if kind in ("delete", "mixed"):
                edges -= set(dels.edges)
            assert set(g.edges()) == edges
            after = oracle_cliques(g)
            assert sorted(change.new_cliques) == sorted(after - before)
            assert sorted(change.del_cliques) == sorted(before - after)
            assert reg == CliqueRegistry.from_cliques(after)
            before = after


def _sample(data, pool, max_size=None):
    # distinct members of pool, drawn by hypothesis
    return data.draw(st.lists(st.sampled_from(pool), unique=True,
                              max_size=max_size) if pool else st.just([]))


class UpdateSequence(RuleBasedStateMachine):
    """One graph and registry driven through insert (under both
    algorithms), delete and mixed batches. After every step the change
    must equal the oracle's diff and the registry the oracle's clique set.
    Two rules make wide halves: one plants a dense clique, another joins a
    new vertex to BITSET_MIN_SPAN + 1 vertices of a clique, so that its
    batch edges, and later deletes among them, share one numbering."""

    MAX_VERTICES = 25

    @initialize(n=st.integers(1, 14), data=st.data())
    def start(self, n, data):
        pairs = list(combinations(range(1, n + 1), 2))
        self.g = Graph.from_edges(_sample(data, pairs), range(1, n + 1))
        self.before = oracle_cliques(self.g)
        self.reg = CliqueRegistry.from_cliques(self.before)

    def _absent(self, data, max_size):
        # absent edges among the vertices and one new vertex, while there
        # is room for it
        vs = sorted(self.g.vertices())
        if len(vs) < self.MAX_VERTICES:
            vs.append(vs[-1] + 1)
        pool = [e for e in combinations(vs, 2) if not self.g.has_edge(*e)]
        return _sample(data, pool, max_size)

    def _present(self, data, max_size):
        return _sample(data, sorted(self.g.edges()), max_size)

    def _check(self, change):
        after = oracle_cliques(self.g)
        assert sorted(change.new_cliques) == sorted(after - self.before)
        assert sorted(change.del_cliques) == sorted(self.before - after)
        assert self.reg == CliqueRegistry.from_cliques(after)
        self.before = after

    @rule(algo=st.sampled_from(["enumnte", "enumn"]), data=st.data())
    def insert(self, algo, data):
        h = EdgeBatch.insert(self._absent(data, 6))
        self._check(apply_insert_batch(self.g, h, self.reg, algo))

    @rule(data=st.data())
    def delete(self, data):
        h = EdgeBatch.delete(self._present(data, 8))
        self._check(apply_delete_batch(self.g, h, self.reg))

    @rule(data=st.data())
    def mixed(self, data):
        ins = EdgeBatch.insert(self._absent(data, 5))
        dels = EdgeBatch.delete(self._present(data, 5))
        self._check(fully_dynamic(self.g, ins, dels, self.reg))

    @rule(algo=st.sampled_from(["enumnte", "enumn"]), data=st.data())
    def plant_clique(self, algo, data):
        vs = sorted(self.g.vertices())
        k = data.draw(st.integers(min(len(vs), BITSET_MIN_SPAN + 2),
                                  min(len(vs), BITSET_MIN_SPAN + 6)))
        clique = sorted(data.draw(st.permutations(vs))[:k])
        h = EdgeBatch.insert([e for e in combinations(clique, 2)
                              if not self.g.has_edge(*e)])
        self._check(apply_insert_batch(self.g, h, self.reg, algo))

    @precondition(lambda self: self.g.num_vertices() < self.MAX_VERTICES
                  and max(map(len, self.before)) > BITSET_MIN_SPAN)
    @rule(data=st.data())
    def join_new_vertex(self, data):
        # each edge (x, w) has the other BITSET_MIN_SPAN partners of w as
        # its common neighbours once the batch is in
        big = [c for c in sorted(self.before) if len(c) > BITSET_MIN_SPAN]
        clique = data.draw(st.sampled_from(big))
        xs = sorted(data.draw(st.permutations(clique))[:BITSET_MIN_SPAN + 1])
        w = max(self.g.vertices()) + 1
        h = EdgeBatch.insert([(x, w) for x in xs])
        self._check(apply_insert_batch(self.g, h, self.reg))


UpdateSequence.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None)
test_update_sequence_state_machine = UpdateSequence.TestCase


def test_total_change_size_metric():
    change = ChangeSet(new_cliques=[(1, 2, 3), (4, 5, 6, 7)],
                       del_cliques=[(8, 9)])
    assert change.total_change_size() == 3 + 6 + 1
    assert ChangeSet([(1,)], []).total_change_size() == 0


# -- structure: per-edge search on g, each signature hashed once --------


def _count_hashes(monkeypatch, hashers):
    """Count the strings both hashers hash, and make Graph.induced_subgraph
    raise."""

    def no_copy(self, vs):
        raise AssertionError("induced_subgraph called")

    monkeypatch.setattr(Graph, "induced_subgraph", no_copy)
    return hashers()


def test_updates_search_g_and_hash_each_clique_once(monkeypatch, hashers):
    g = Graph.from_edges([(1, 2), (2, 3)])
    reg = fresh_registry(g)
    calls = _count_hashes(monkeypatch, hashers)
    apply_insert_batch(g, EdgeBatch.insert([(1, 3)]), reg)
    # new (1,2,3), then its split candidates (1,2) and (2,3)
    assert len(calls) == 3
    calls.clear()
    apply_delete_batch(g, EdgeBatch.delete([(1, 3)]), reg)
    # deleted (1,2,3), then new (1,2) and (2,3)
    assert len(calls) == 3

    g, h = batch_extremal(12, 6)
    reg = fresh_registry(g)
    calls.clear()
    change = apply_insert_batch(g, h, reg)
    # 81 new cliques and 54 subsumed ones; each subsumed clique is split off
    # by several new cliques but hashed only by the first
    assert (len(change.new_cliques), len(change.del_cliques)) == (81, 54)
    assert len(calls) == 81 + 54

    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        h = random_insert_batch(rng, g, 5)
        assert set(enum_new(g.copy(), h)) == set(enum_new_te(g.copy(), h))
        old = set(ttt(g))
        had_neighbour = {u for u in g.vertices() if g.neighbors(u)}
        reg = fresh_registry(g)
        calls.clear()
        change = apply_insert_batch(g, h, reg)
        # a candidate is hashed unless an earlier new clique of the batch
        # already split it off, accepted or not, or it is the singleton of
        # a vertex that had a neighbour before the batch
        hashed, seen = 0, set()
        for c in change.new_cliques:
            for s in split_candidates(c, h.edges):
                final = s
            fresh = final - {c} - seen
            hashed += sum(len(x) > 1 or x[0] not in had_neighbour
                          for x in fresh)
            seen |= fresh
        assert len(calls) == len(change.new_cliques) + hashed
        ins = random_insert_batch(rng, g, 3)
        pool = sorted(g.edges())
        dels = EdgeBatch.delete(rng.sample(pool, min(len(pool), 3)))
        fully_dynamic(g, ins, dels, reg)
        assert reg == fresh_registry(g)

    # a 14-vertex near-clique missing (1, 2), (3, 4) and (5, 6): the insert
    # half makes 4 cliques through (1, 2) and subsumes the 8 old ones, the
    # delete half destroys the 4 again and splits them into 8 without 7 or
    # 8; the 4 cancel unhashed, and the 8 subsumed keep their probe hashes
    missing = {(1, 2), (3, 4), (5, 6)}
    g = Graph.from_edges([(u, v) for u in range(1, 15) for v in range(u + 1, 15)
                          if (u, v) not in missing])
    reg = fresh_registry(g)
    calls.clear()
    change = fully_dynamic(g, EdgeBatch.insert([(1, 2)]),
                           EdgeBatch.delete([(7, 8)]), reg)
    assert (len(change.new_cliques), len(change.del_cliques)) == (8, 8)
    assert len(calls) == len(change.new_cliques) + len(change.del_cliques)
    assert reg == fresh_registry(g)


def test_extremal_work_follows_change(monkeypatch, hashers):
    # change sensitivity, counted: on batch_extremal(n, eps) an insert
    # hashes each changed clique once, its new cliques at the commit and
    # its subsumed ones as the candidates it probes, so no candidate is
    # hashed that is not subsumed and none twice. Deleting the batch again
    # hashes as many and checks each of its eps * f_max(n - eps) new
    # cliques for maximality once, and a fully_dynamic toggle of two
    # disjoint copies, the extremal-churn step, hashes both changes
    checked, real_is_maximal = [], delta._is_maximal

    def is_maximal(g, c):
        checked.append(c)
        return real_is_maximal(g, c)

    monkeypatch.setattr(delta, "_is_maximal", is_maximal)
    calls = hashers()
    cases = [(n, eps) for eps in (4, 6, 8) for n in range(eps + 4, eps + 14, 3)]
    for n, eps in cases + [(20, 12)]:
        change = batch_extremal_change(n, eps)
        g, h = batch_extremal(n, eps)
        reg = fresh_registry(g)
        if (n, eps) in cases:
            calls.clear()
            apply_insert_batch(g, h, reg)
            assert len(calls) == change
            calls.clear()
            checked.clear()
            apply_delete_batch(g, EdgeBatch.delete(h.edges), reg)
            assert len(calls) == change
            assert len(checked) == eps * f_max(n - eps)
        copy_b = [(u + n, v + n) for u, v in [*g.edges(), *h.edges]]
        g = Graph.from_edges([*g.edges(), *copy_b], g.vertices())
        reg = fresh_registry(g)
        calls.clear()
        step = fully_dynamic(g, h, EdgeBatch.delete(copy_b[-len(h):]), reg)
        assert len(step.new_cliques) + len(step.del_cliques) == 2 * change
        assert len(calls) == 2 * change
    assert len(calls) == 3348


def test_swapped_hash_reaches_insert_path(hashers):
    # under a length-only hash the new clique "2,9" shares a signature with
    # the registered "1,5"; swapping the hashers in the one module that
    # defines them must reach the insert path
    hashers(len)
    g = Graph.from_edges([(9, 102), (1, 5)], vertices=[2])
    reg = CliqueRegistry.from_cliques(ttt(g), verify=True)
    before = _state(g, reg)
    with pytest.raises(SignatureCollisionError, match="'1,5'.*'2,9'"):
        apply_insert_batch(g, EdgeBatch.insert([(2, 9)]), reg)
    assert _state(g, reg) == before


def _state(g, reg):
    return (sorted(g.edges()), sorted(g.vertices()), reg.snapshot(),
            reg._strings)


#: Updates that fail at their registry commit under a length-only hash: a
#: new clique's canonical string is as long as a registered one's.
_FORCED_FAILURES = {
    # the new "2,9" meets "1,5"; the batch creates both 2 and 9
    "insert-creating-vertices": ([(1, 5)], lambda g, reg: apply_insert_batch(
        g, EdgeBatch.insert([(2, 9)]), reg)),
    # the new "1,2" meets "4,5" once (1, 3) is gone
    "delete": ([(1, 2), (2, 3), (1, 3), (4, 5)],
               lambda g, reg: apply_delete_batch(
                   g, EdgeBatch.delete([(1, 3)]), reg)),
    # the one commit adds "4,1000", for a batch that creates 1000, and
    # meets "4,5" with the new "1,2" as above
    "mixed": ([(1, 2), (2, 3), (1, 3), (4, 5)], lambda g, reg: fully_dynamic(
        g, EdgeBatch.insert([(4, 1000)]), EdgeBatch.delete([(1, 3)]), reg)),
}


@pytest.mark.parametrize("verify", [False, True], ids=["default", "verify"])
@pytest.mark.parametrize("kind", sorted(_FORCED_FAILURES))
def test_failed_update_leaves_graph_and_registry_unchanged(hashers, kind,
                                                           verify):
    edges, update = _FORCED_FAILURES[kind]
    hashers(len)
    g = Graph.from_edges(edges)
    reg = CliqueRegistry.from_cliques(ttt(g), verify=verify)
    before = copy.deepcopy(_state(g, reg))
    with pytest.raises(SignatureCollisionError if verify else RegistryError):
        update(g, reg)
    assert _state(g, reg) == before


@pytest.mark.parametrize("verify", [False, True], ids=["default", "verify"])
def test_failed_commits_in_long_sequences_leave_no_trace(monkeypatch, verify):
    # on chosen steps the update fails: at its one registry commit, or,
    # between the insert and the delete half, at its k-th _is_maximal call;
    # that step must leave graph and registry as it found them, and every
    # other step must match the oracle, the steps after a failure included.
    # On the dense inputs nearly every half shares one numbering, so their
    # failures come after a shared half's masks were read and let go; each
    # starts with a batch that creates a vertex joined to 9 vertices of a
    # clique, whose edges then have 8 common neighbours, so it shares too
    real_commit = CliqueRegistry._commit
    real_is_maximal = delta._is_maximal
    real_search_half = delta._search_half
    fail_at = [None, 0]  # the _is_maximal call that raises (0: none), calls
    shared = []  # per half of this step: shared or not, None when empty

    def fail():
        fail_at[0] = None
        raise RegistryError("forced failure")

    def commit(self, new_keys, del_sigs):
        if fail_at[0] is not None:
            fail()
        real_commit(self, new_keys, del_sigs)

    def is_maximal(g, c):
        fail_at[1] += 1
        if fail_at[1] == fail_at[0]:
            fail()
        return real_is_maximal(g, c)

    def search_half(g, edges, exclude):
        cliques, split = real_search_half(g, edges, exclude)
        shared.append(split.func is delta._mask_candidates if edges else None)
        return cliques, split

    monkeypatch.setattr(CliqueRegistry, "_commit", commit)
    monkeypatch.setattr(delta, "_is_maximal", is_maximal)
    monkeypatch.setattr(delta, "_search_half", search_half)
    updates = {"insert": lambda g, ins, dels, reg: apply_insert_batch(g, ins, reg),
               "delete": lambda g, ins, dels, reg: apply_delete_batch(g, dels, reg),
               "mixed": fully_dynamic}
    rng = random.Random(31)
    failed, between = 0, Counter()  # failures, those raised by _is_maximal
    # on dense inputs: failures on a step where a half shared, by site,
    # and those whose shared insert half created a vertex; halves searched
    # with a batch edge, and those of them that shared
    on_shared, halves = Counter(), Counter()
    for dense in [False] * 6 + [True] * 3:
        if dense:  # with a clique planted on vertices 1 to 10
            g = random_graph(rng, rng.randint(16, 18), rng.uniform(0.8, 0.9))
            for e in combinations(range(1, 11), 2):
                if not g.has_edge(*e):
                    g.add_edge(*e)
        else:
            g = random_graph(rng, rng.randint(10, 14), rng.uniform(0.2, 0.8))
        reg = CliqueRegistry.from_cliques(ttt(g), verify=verify)
        before = oracle_cliques(g)
        for step in range(30):
            kind = ("insert", "delete", "mixed")[step % 3]
            ins = random_insert_batch(rng, g, 4)
            created = dense and step == 0
            if created:
                w = max(g.vertices()) + 1
                ins = EdgeBatch.insert([*ins.edges, *((x, w) for x in range(1, 10))])
            elif step % 4 == 0 and not dense:  # the batch creates a vertex
                ins = EdgeBatch.insert([*ins.edges, (rng.choice(sorted(g.vertices())),
                                                     max(g.vertices()) + 1)])
            pool = sorted(g.edges())
            dels = EdgeBatch.delete(rng.sample(pool, min(len(pool), rng.randint(0, 4))))
            shared.clear()
            if rng.random() < 0.3:
                # the commit fails unless a k-th _is_maximal call comes first
                k = rng.randint(0, 3)
                fail_at[:] = [k, 0]
                state = copy.deepcopy(_state(g, reg))
                with pytest.raises(RegistryError, match="forced"):
                    updates[kind](g, ins, dels, reg)
                assert fail_at[0] is None
                between[kind] += 0 < k == fail_at[1]
                assert _state(g, reg) == state
                failed += 1
                if dense and any(shared):
                    on_shared["is_maximal" if 0 < k == fail_at[1]
                              else "commit"] += 1
                    on_shared["created"] += created and shared[0]
                continue
            change = updates[kind](g, ins, dels, reg)
            if dense:
                halves.update(shared=shared.count(True),
                              searched=len(shared) - shared.count(None))
            after = oracle_cliques(g)
            assert sorted(change.new_cliques) == sorted(after - before)
            assert sorted(change.del_cliques) == sorted(before - after)
            assert reg == CliqueRegistry.from_cliques(after)
            before = after
    assert failed >= 30
    assert between["delete"] >= 5 and between["mixed"] >= 5
    assert on_shared["commit"] >= 5 and on_shared["is_maximal"] >= 5
    assert on_shared["created"] >= 1
    assert halves["shared"] >= 0.9 * halves["searched"]


#: updates on a graph with a triangle, a pendant edge and an isolated
#: vertex: the insert batch subsumes (1, 2, 3), (3, 4) and (6,) and creates
#: vertex 5, and the delete batch takes three edges out of G + I. Each
#: update has the interrupt sites a clean run of it reaches.
_DELETES = EdgeBatch.delete([(1, 2), (2, 3), (3, 4)])
_INTERRUPTED_UPDATES = {
    "apply_insert_batch": (lambda g, h, reg: apply_insert_batch(g, h, reg),
                           ("contains_signature", "add_edge", "validate")),
    "apply_delete_batch": (lambda g, h, reg: apply_delete_batch(g, _DELETES, reg),
                           ("remove_edge", "validate")),
    "fully_dynamic": (lambda g, h, reg: fully_dynamic(g, h, _DELETES, reg),
                      ("contains_signature", "add_edge", "remove_edge",
                       "validate")),
}
#: each site's class and the fewest calls a clean run makes to it: four
#: probes, for (1, 2, 3), (3, 4), (5,) and (6,) at least, four added and
#: three removed edges, and four batch checks, one per batch before the
#: pass's guard and one in each EdgeBatch.apply inside it
_INTERRUPT_SITES = {"contains_signature": (CliqueRegistry, 4),
                    "add_edge": (Graph, 4), "remove_edge": (Graph, 3),
                    "validate": (EdgeBatch, 4)}


@pytest.mark.parametrize("verify", [False, True], ids=["default", "verify"])
@pytest.mark.parametrize("update,site", [
    pytest.param(update, site,
                 # the registry probe, the first site, keeps the bare id
                 id=update if site == "contains_signature" else f"{update}-{site}")
    for update, (_, sites) in sorted(_INTERRUPTED_UPDATES.items())
    for site in sites])
def test_interrupted_subsumption_leaves_no_trace(monkeypatch, update, site,
                                                 verify):
    # the site's k-th call raises KeyboardInterrupt once, for every k a
    # clean run reaches; the undo's own calls go through. A registry probe
    # interrupts the subsumption phase of the insert (a successful commit
    # probes nothing), an edge call one of the two EdgeBatch.apply loops,
    # and a batch check one before the guard or one inside an apply
    run = _INTERRUPTED_UPDATES[update][0]
    h = EdgeBatch.insert([(1, 4), (2, 4), (4, 5), (5, 6)])
    cls, fewest = _INTERRUPT_SITES[site]
    real = getattr(cls, site)
    calls = [0, None]  # calls so far, the call that raises

    def interrupt(self, *args):
        calls[0] += 1
        if calls[0] == calls[1]:
            raise KeyboardInterrupt
        return real(self, *args)

    monkeypatch.setattr(cls, site, interrupt)

    def fresh():
        calls[1] = None
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4)], vertices=[6])
        reg = CliqueRegistry.from_cliques(ttt(g), verify=verify)
        calls[0] = 0
        return g, reg

    g, reg = fresh()
    run(g, h, reg)
    reached = calls[0]
    assert reached >= fewest
    for k in range(1, reached + 1):
        g, reg = fresh()
        before = copy.deepcopy(_state(g, reg))
        calls[1] = k
        with pytest.raises(KeyboardInterrupt):
            run(g, h, reg)
        assert _state(g, reg) == before


def test_delete_and_mixed_commit_trusted_keys(monkeypatch):
    # the cliques a delete commits come from the library's own search, so
    # the public canonical-order check is never reached
    rng = random.Random(5)
    g = random_graph(rng, 12, 0.5)
    reg = CliqueRegistry.from_cliques(ttt(g), verify=True)

    def refuse(c):
        raise AssertionError(f"public check reached for {c}")

    monkeypatch.setattr(signatures, "_checked", refuse)
    for _ in range(10):
        pool = sorted(g.edges())
        dels = EdgeBatch.delete(rng.sample(pool, min(len(pool), 3)))
        apply_delete_batch(g, dels, reg)
        ins = random_insert_batch(rng, g, 3)
        pool = sorted(g.edges())
        dels = EdgeBatch.delete(rng.sample(pool, min(len(pool), 2)))
        fully_dynamic(g, ins, dels, reg)
    monkeypatch.undo()
    assert reg == CliqueRegistry.from_cliques(ttt(g))


@pytest.mark.parametrize("dels", [
    lambda g, h, reg: apply_insert_batch(g, h, reg, algo="enumnte").del_cliques,
    lambda g, h, reg: apply_insert_batch(g, h, reg, algo="enumn").del_cliques,
], ids=["enumnte", "enumn"])
def test_singleton_hashed_only_for_vertex_isolated_in_g(monkeypatch, hashers,
                                                        dels):
    # 3 is isolated in G and gains one batch edge, 4 gains two; 1 and 2 are
    # adjacent in G, so their singletons cannot be registered
    g = Graph.from_edges([(1, 2)], vertices=[3, 4])
    reg = fresh_registry(g)
    calls = _count_hashes(monkeypatch, hashers)
    assert sorted(dels(g, EdgeBatch.insert([(1, 3), (1, 4), (2, 4)]), reg)) == [
        (1, 2), (3,), (4,)]
    # the new (1, 2, 4) and (1, 3), then the split candidates (1, 2), (4,)
    # and (3,); (1,) and (2,) are split off but skipped before a hash
    assert sorted(calls) == [b"1,2", b"1,2,4", b"1,3", b"3", b"4"]
    assert reg == fresh_registry(g)
    # the shared-half insert of _created_vertex_case: the new clique
    # (1, ..., 9, w) splits by masks into (1, ..., 9), (2, ..., 9) and so on
    # down to (9,), and (w,). 9 had neighbours in G, so of the singletons
    # only (w,) is hashed; w is new, so nothing is subsumed
    g, created = _created_vertex_case()
    w = created[0][1]
    reg = fresh_registry(g)
    calls.clear()
    assert dels(g, EdgeBatch.insert(created), reg) == []
    assert delta._search_half(g, created, True)[1].func is delta._mask_candidates
    want = [(*range(1, 10), w), (w,)] + [tuple(range(i, 10)) for i in range(1, 9)]
    assert sorted(calls) == sorted(",".join(map(str, c)).encode() for c in want)
    assert reg == fresh_registry(g)


# -- golden change order ------------------------------------------------

#: sha256 of the ordered change lists and registry snapshots produced by
#: _golden_transcript. Any change to emission order, subsumption order or
#: signatures moves it. Re-recorded when the split pass began to return
#: each changed clique's candidates in ascending order, splitting along its
#: batch edges in ascending (u, v) order; GOLDEN_CONTENT_DIGEST did not move.
GOLDEN_ORDER_DIGEST = (
    "14467b049feae57b7a088d243cc84995884b6404e8d1706d83a62654fbb2687c")

#: sha256 of the same transcript with each change list sorted, recorded at
#: commit 5ee6d60: it pins what changes, not the order it is reported in.
GOLDEN_CONTENT_DIGEST = (
    "fe44fc66873d15de6db8201f598164601569c4a7643990b7543ae10471385975")


def _recorder(digest, content):
    def record(tag, new, dels, reg):
        if content:
            new, dels = sorted(new), sorted(dels)
        digest.update(repr((tag, new, dels)).encode())
        digest.update(reg.snapshot())
    return record


def _events(change):
    # an insert's change as ("new", c) events, each followed by ("del", d)
    # for the deleted cliques c is the first new clique to hold: the form
    # step 3 of both transcripts records, so their digests pin the order of
    # the deleted cliques against the new ones
    dels, i, events = change.del_cliques, 0, []
    for c in change.new_cliques:
        events.append(("new", c))
        while i < len(dels) and set(c).issuperset(dels[i]):
            events.append(("del", dels[i]))
            i += 1
    return events


def _golden_transcript(content: bool = False) -> str:
    rng = random.Random(2718)
    digest = hashlib.sha256()
    record = _recorder(digest, content)

    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 18), rng.uniform(0.2, 0.8))
        reg = fresh_registry(g)
        for step in range(5):
            h = random_insert_batch(rng, g, 6)
            dels = EdgeBatch.delete(rng.sample(
                sorted(g.edges()), min(g.num_edges(), rng.randint(0, 5))))
            if step == 0:
                c = apply_insert_batch(g, h, reg)
            elif step == 1:
                c = apply_delete_batch(g, dels, reg)
            elif step == 2:
                c = fully_dynamic(g, h, dels, reg)
            elif step == 3:
                record("events", _events(apply_insert_batch(g, h, reg)), [], reg)
                continue
            else:
                c = apply_insert_batch(g, h, reg, algo="enumn")
            record(step, c.new_cliques, c.del_cliques, reg)
    return digest.hexdigest()


def test_golden_change_order():
    assert _golden_transcript() == GOLDEN_ORDER_DIGEST


def test_golden_change_content():
    assert _golden_transcript(content=True) == GOLDEN_CONTENT_DIGEST


def _dense_graph(rng):
    # two or three overlapping complete blocks on 70-120 vertices, a few
    # edges removed, plus sparse random edges: local searches span up to
    # ~120 vertices, so bitset masks run past one 30-bit digit
    n = rng.randint(70, 120)
    g = Graph.from_edges([], vertices=range(1, n + 1))
    for _ in range(rng.randint(2, 3)):
        block = rng.sample(range(1, n + 1), rng.randint(n // 2, n))
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
    for u, v in rng.sample(sorted(g.edges()), rng.randint(3, 6)):
        g.remove_edge(u, v)
    for _ in range(n // 3):
        u, v = rng.sample(range(1, n + 1), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


#: sha256 of _dense_golden_transcript. Re-recorded with GOLDEN_ORDER_DIGEST,
#: for the same reason; GOLDEN_DENSE_CONTENT_DIGEST did not move.
GOLDEN_DENSE_ORDER_DIGEST = (
    "1c84142dd9bd1dfb5e608d2b1c8f0dfc4954282b3b02a228f4f6619845c0efd0")

#: sha256 of _dense_golden_transcript with each change list sorted,
#: recorded at commit 5ee6d60.
GOLDEN_DENSE_CONTENT_DIGEST = (
    "fa0255567cc23f0c9a16f75e72b030d313e01993d47a6b9771d33b3812296bcc")


def _dense_golden_transcript(content: bool = False) -> str:
    rng = random.Random(31415)
    digest = hashlib.sha256()
    record = _recorder(digest, content)

    for _ in range(12):
        g = _dense_graph(rng)
        reg = fresh_registry(g)
        record("ttt", list(ttt(g)), [], reg)
        for step in range(5):
            h = random_insert_batch(rng, g, 5)
            dels = EdgeBatch.delete(rng.sample(sorted(g.edges()),
                                               rng.randint(0, 3)))
            if step == 0:
                c = apply_insert_batch(g, h, reg)
            elif step == 1:
                c = apply_delete_batch(g, dels, reg)
            elif step == 2:
                c = fully_dynamic(g, h, dels, reg)
            elif step == 3:
                record("events", _events(apply_insert_batch(g, h, reg)), [], reg)
                continue
            else:
                c = apply_insert_batch(g, h, reg, algo="enumn")
            record(step, c.new_cliques, c.del_cliques, reg)
    return digest.hexdigest()


def test_golden_change_order_dense():
    assert _dense_golden_transcript() == GOLDEN_DENSE_ORDER_DIGEST


def test_golden_change_content_dense():
    assert _dense_golden_transcript(content=True) == GOLDEN_DENSE_CONTENT_DIGEST
