import contextlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cliquedelta import (CliqueRegistry, EdgeBatch, Graph, GraphError,
                         apply_insert_batch, f_max, moon_moser, ttt, ttt_ext)
from cliquedelta.enumeration import (BITSET_MIN_SPAN, _edge_adjacency,
                                     _expand_bits, _expand_sets)
from cliquedelta.oracle import oracle_cliques


def random_graph(rng, n, density):
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < density:
                g.add_edge(u, v)
    return g


def test_triangle():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    assert set(ttt(g)) == {(1, 2, 3)}


def test_path():
    g = Graph.from_edges([(1, 2), (2, 3)])
    assert set(ttt(g)) == {(1, 2), (2, 3)}


def test_isolated_vertices_are_singletons():
    g = Graph.from_edges([], vertices=[1, 2, 3])
    assert set(ttt(g)) == {(1,), (2,), (3,)}


def test_empty_graph_has_no_cliques():
    # the empty clique is never reported, matching the oracle
    assert list(ttt(Graph())) == []
    assert oracle_cliques(Graph()) == set()
    assert list(ttt_ext(Graph(), (), (), (), ())) == []
    g = Graph.from_edges([(1, 2)])
    assert list(ttt_ext(g, (), (), (), ())) == []
    assert list(ttt_ext(g, (), {1, 2}, (), ())) == [(1, 2)]


def test_moon_moser_6():
    assert sum(1 for _ in ttt(moon_moser(6))) == 9
    assert all(len(c) == 2 for c in ttt(moon_moser(6)))


@pytest.mark.parametrize("n", range(2, 13))
def test_moon_moser_counts(n):
    assert sum(1 for _ in ttt(moon_moser(n))) == f_max(n)


def test_no_duplicates_random():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        out = list(ttt(g))
        assert len(out) == len(set(out))


def test_matches_oracle_random():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        assert set(ttt(g)) == oracle_cliques(g)


def brute_force_subset_cliques(g):
    # exhaustive reference independent of all enumerator code paths
    vs = sorted(g.vertices())
    cliques = []
    for mask in range(1, 1 << len(vs)):
        sub = [vs[i] for i in range(len(vs)) if mask >> i & 1]
        if all(g.has_edge(u, v) for i, u in enumerate(sub) for v in sub[i + 1:]):
            cliques.append(set(sub))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return {tuple(sorted(c)) for c in maximal}


def test_matches_subset_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert set(ttt(g)) == brute_force_subset_cliques(g)


# -- ttt_ext -----------------------------------------------------------


def test_ttt_ext_reduces_to_ttt():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        full = set(ttt(g))
        assert set(ttt_ext(g, (), g.vertices(), (), ())) == full


def test_ttt_ext_excluded_edge_in_triangle():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    assert list(ttt_ext(g, (), {1, 2, 3}, (), [(1, 2)])) == []


def test_ttt_ext_is_filter_equivalent():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        edges = sorted(g.edges())
        excl = rng.sample(edges, min(len(edges), rng.randint(0, 3)))
        got = set(ttt_ext(g, (), g.vertices(), (), excl))
        want = {c for c in ttt(g)
                if not any(u in c and v in c for u, v in excl)}
        assert got == want


def test_ttt_ext_per_edge_scenario():
    # two batch edges into a 6-vertex graph; processing the second edge with
    # the first excluded emits only the clique not already found
    g = Graph.from_edges([(2, 3), (2, 4), (2, 6), (3, 4), (4, 5), (5, 6),
                          (3, 6), (4, 6)])
    cand = set(g.common_neighbors(4, 6))
    sub = g.induced_subgraph(cand | {4, 6})
    got = set(ttt_ext(sub, (4, 6), cand, (), [(3, 6)]))
    assert got == {(4, 5, 6)}
    cand36 = set(g.common_neighbors(3, 6))
    sub36 = g.induced_subgraph(cand36 | {3, 6})
    assert set(ttt_ext(sub36, (3, 6), cand36, (), [])) == {(2, 3, 4, 6)}


def test_ttt_ext_precondition_errors():
    g = Graph.from_edges([(1, 2), (3, 4)])
    with pytest.raises(GraphError):
        list(ttt_ext(g, (1, 3), {2}, (), ()))  # seed not a clique
    with pytest.raises(GraphError):
        list(ttt_ext(g, (), {1, 2}, {2}, ()))  # cand/fini overlap
    with pytest.raises(GraphError):
        list(ttt_ext(g, (1,), {1, 2}, (), ()))  # seed overlaps cand
    # cand and fini must lie in the seed's common neighbourhood: on the
    # path 1-2-3, vertex 3 is not adjacent to seed vertex 1
    path = Graph.from_edges([(1, 2), (2, 3)])
    with pytest.raises(GraphError):
        list(ttt_ext(path, (1, 2), {3}, (), ()))  # (1, 2, 3) is no clique
    with pytest.raises(GraphError):
        list(ttt_ext(path, (1, 2), set(), {3}, ()))  # would hide (1, 2)
    assert list(ttt_ext(path, (1, 2), set(), set(), ())) == [(1, 2)]


# -- search cores --------------------------------------------------------


def near_clique_graph(rng, n):
    # two overlapping complete blocks, a few edges removed, sparse extras
    g = Graph.from_edges([], vertices=range(1, n + 1))
    for _ in range(2):
        block = rng.sample(range(1, n + 1), rng.randint(n // 2, n))
        for i, u in enumerate(block):
            for v in block[i + 1:]:
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
    for u, v in rng.sample(sorted(g.edges()), min(g.num_edges(), 5)):
        g.remove_edge(u, v)
    for _ in range(n // 4):
        u, v = rng.sample(range(1, n + 1), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def random_local_search(rng, g):
    """A seed clique of 0-2 vertices, its common neighbourhood split into
    cand and fini, and excluded edges among seed and neighbourhood."""
    vs = sorted(g.vertices())
    seed = []
    common = set(vs)
    for _ in range(rng.randint(0, 2)):
        if not common:
            break
        u = rng.choice(sorted(common))
        seed.append(u)
        common &= g.neighbors(u)
    fini = set(rng.sample(sorted(common), rng.randint(0, len(common) // 4)))
    cand = common - fini
    inside = sorted(e for e in g.edges() if set(e) <= common | set(seed))
    excl = _edge_adjacency(rng.sample(inside, min(len(inside),
                                                  rng.randint(0, 4))))
    return seed, cand, fini, excl


def test_search_cores_agree():
    rng = random.Random(97)
    spans = []
    for trial in range(240):
        if trial % 3 == 0:
            g = random_graph(rng, rng.randint(1, 14), rng.random())
        elif trial % 3 == 1:
            g = random_graph(rng, rng.randint(15, 40), rng.uniform(0.3, 0.7))
        else:
            g = near_clique_graph(rng, rng.randint(70, 110))
        seed, cand, fini, excl = random_local_search(rng, g)
        spans.append(len(cand) + len(fini))
        want = list(_expand_sets(g, list(seed), set(cand), set(fini), excl))
        got = list(_expand_bits(g, list(seed), set(cand), set(fini), excl))
        assert got == want
    assert min(spans) < BITSET_MIN_SPAN and max(spans) > 64
    assert sum(BITSET_MIN_SPAN <= s <= 64 for s in spans) > 20


@contextlib.contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def complete_graph(n, missing=()):
    return Graph.from_edges([(u, v) for u in range(1, n + 1)
                             for v in range(u + 1, n + 1)
                             if (u, v) not in missing])


def test_ttt_clique_deeper_than_recursion_limit():
    g = complete_graph(300)
    with recursion_limit(250):
        assert list(ttt(g)) == [tuple(range(1, 301))]


def test_insert_completes_clique_deeper_than_recursion_limit():
    g = complete_graph(300, missing={(1, 2)})
    reg = CliqueRegistry.from_cliques(ttt(g))
    with recursion_limit(250):
        change = apply_insert_batch(g, EdgeBatch.insert([(1, 2)]), reg)
    assert change.new_cliques == [tuple(range(1, 301))]
    assert sorted(change.del_cliques) == [(1,) + tuple(range(3, 301)),
                                          tuple(range(2, 301))]


@settings(max_examples=60)
@given(st.integers(0, 2 ** 20))
def test_ttt_deterministic(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 9), rng.random())
    assert list(ttt(g)) == list(ttt(g.copy()))
