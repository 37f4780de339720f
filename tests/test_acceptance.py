"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible under pytest -s or in the
captured output of a failing run) and enforces its own wall-clock budget.
"""

import functools
import random
import sys
import time

from scipy.stats import spearmanr

from cliquedelta import (ChangeSet, CliqueRegistry, EdgeBatch, Graph,
                         apply_delete_batch, apply_insert_batch,
                         batch_extremal, batch_extremal_change, enum_new,
                         enum_new_te, f_max, moon_moser,
                         moon_moser_correction_pair, single_edge_extremal,
                         split_candidates, ttt)
from cliquedelta.cli import _random_graph as random_graph, run_verification
from cliquedelta.extremal import _f
from cliquedelta.oracle import oracle_change, oracle_cliques
from cliquedelta.signatures import signature
from cliquedelta.streamio import StreamConfig, gen_stream


def criterion(num, name, budget_s):
    """Print the pass/fail line and enforce the wall-clock budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} [FAIL] {name}", file=sys.stderr)
                raise
            elapsed = time.perf_counter() - t0
            print(f"criterion {num:2d} [PASS] {name} ({elapsed:.2f}s)")
            assert elapsed < budget_s, \
                f"criterion {num} over budget: {elapsed:.2f}s >= {budget_s}s"
        return wrapper
    return deco


@criterion(1, "extremal clique counts for n in 2..12", 1)
def test_criterion_01_moon_moser_counts():
    for n in range(2, 13):
        assert sum(1 for _ in ttt(moon_moser(n))) == f_max(n)


@criterion(2, "single-edge extremal change is exactly 3f(n-2)", 5)
def test_criterion_02_single_edge_extremal():
    for n in range(5, 12):
        g, e = single_edge_extremal(n)
        reg = CliqueRegistry.from_cliques(ttt(g))
        oracle_g = g.copy()
        h = EdgeBatch.insert([e])
        change = apply_insert_batch(g, h, reg)
        fn2 = _f(n - 2)
        assert len(change.new_cliques) == fn2
        assert len(change.del_cliques) == 2 * fn2
        expected = oracle_change(oracle_g, h)
        assert sorted(change.new_cliques) == expected.new_cliques
        assert sorted(change.del_cliques) == expected.del_cliques


@criterion(3, "batch extremal lower bounds 24 / 48 / 33", 5)
def test_criterion_03_batch_extremal():
    for n, eps, want in ((7, 4, 24), (9, 4, 48), (8, 5, 33)):
        g, h = batch_extremal(n, eps)
        assert batch_extremal_change(n, eps) == want
        reg = CliqueRegistry.from_cliques(ttt(g))
        change = apply_insert_batch(g, h, reg)
        assert len(change.new_cliques) + len(change.del_cliques) == want
    assert 24 == 2 * f_max(7)
    assert 48 * 9 == 16 * f_max(9)
    assert 33 * 6 == 11 * f_max(8)


@criterion(4, "equal-count 7-vertex pair differs by 4 edges, change 24", 1)
def test_criterion_04_correction_pair():
    h7, g7 = moon_moser_correction_pair(7)
    assert len(oracle_cliques(h7)) == 12
    assert len(oracle_cliques(g7)) == 12
    extra = sorted(set(g7.edges()) - set(h7.edges()))
    assert len(extra) == 4
    assert g7.num_edges() - h7.num_edges() == 4
    reg = CliqueRegistry.from_cliques(ttt(h7))
    change = apply_insert_batch(h7.copy(), EdgeBatch.insert(extra), reg)
    assert len(change.new_cliques) + len(change.del_cliques) == 24


@criterion(5, "1000 randomized trials match the brute-force oracle", 60)
def test_criterion_05_oracle_equivalence():
    assert run_verification(1000, max_n=25, max_batch=6, seed=0) is None
    # reconstruction identity (cliques(G) \ del) | new == cliques(G')
    rng = random.Random(42)
    for trial in range(100):
        g = random_graph(rng, rng.randint(2, 15), rng.random())
        before = oracle_cliques(g)
        if trial % 2 == 0:
            pool = [(u, v) for u in sorted(g.vertices())
                    for v in sorted(g.vertices())
                    if u < v and not g.has_edge(u, v)]
            h = EdgeBatch.insert(rng.sample(pool, min(len(pool), rng.randint(0, 6))))
            reg = CliqueRegistry.from_cliques(before)
            change = apply_insert_batch(g, h, reg)
        else:
            pool = sorted(g.edges())
            h = EdgeBatch.delete(rng.sample(pool, min(len(pool), rng.randint(0, 6))))
            reg = CliqueRegistry.from_cliques(before)
            change = apply_delete_batch(g, h, reg)
        rebuilt = (before - set(change.del_cliques)) | set(change.new_cliques)
        assert rebuilt == oracle_cliques(g)


@criterion(6, "insert/delete duality over 200 randomized trials", 10)
def test_criterion_06_duality():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        pool = sorted(g.edges())
        h_edges = rng.sample(pool, min(len(pool), rng.randint(0, 5)))
        g_minus = g.copy()
        for u, v in h_edges:
            g_minus.remove_edge(u, v)

        del_side = apply_delete_batch(
            g.copy(), EdgeBatch.delete(h_edges),
            CliqueRegistry.from_cliques(ttt(g)))
        ins_side = apply_insert_batch(
            g_minus.copy(), EdgeBatch.insert(h_edges),
            CliqueRegistry.from_cliques(ttt(g_minus)))
        assert set(del_side.del_cliques) == set(ins_side.new_cliques)
        assert set(del_side.new_cliques) == set(ins_side.del_cliques)


@criterion(7, "count and change bounds hold on random sweeps", 60)
def test_criterion_07_bound_sweeps():
    rng = random.Random(11)
    for _ in range(10000):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        cliques = list(ttt(g))
        assert len(cliques) <= f_max(n)
        # per-vertex and per-edge clique-count bounds
        for v in g.vertices():
            assert sum(1 for c in cliques if v in c) <= _f(n - 1)
        edge_bound = 1 if n == 2 else _f(n - 2)
        for u, v in g.edges():
            assert sum(1 for c in cliques if u in c and v in c) <= edge_bound
    for _ in range(1000):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.random())
        pool = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                if not g.has_edge(u, v)]
        if not pool:
            continue
        e = rng.choice(pool)
        reg = CliqueRegistry.from_cliques(ttt(g))
        change = apply_insert_batch(g, EdgeBatch.insert([e]), reg)
        assert len(change.new_cliques) + len(change.del_cliques) <= 3 * _f(n - 2)


@criterion(8, "streaming emits no duplicates; split sets stay within 2^k", 5)
def test_criterion_08_duplicate_free():
    k4_edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    h = EdgeBatch.insert(k4_edges)
    empty = Graph.from_edges([], vertices=range(1, 5))
    assert list(enum_new_te(empty.copy(), h)) == [(1, 2, 3, 4)]
    assert list(enum_new(empty.copy(), h)) == [(1, 2, 3, 4)]
    for k, s in enumerate(split_candidates((1, 2, 3, 4), h.edges)):
        assert len(s) <= 2 ** k
    rng = random.Random(3)
    for _ in range(100):
        size = rng.randint(2, 8)
        c = tuple(range(1, size + 1))
        pool = [(u, v) for u in c for v in c if u < v]
        edges = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        for k, s in enumerate(split_candidates(c, edges)):
            assert len(s) <= 2 ** k


@criterion(9, "worked change-size example totals 3 + 6 + 1 = 10", 1)
def test_criterion_09_metric():
    change = ChangeSet(new_cliques=[(1, 2, 3), (4, 5, 6, 7)],
                       del_cliques=[(8, 9)])
    assert change.total_change_size() == 3 + 6 + 1 == 10


@criterion(10, "incremental beats full recomputation 5x; time tracks change", 600)
def test_criterion_10_performance():
    # synthetic community graph: 1000 dense 8-vertex clusters plus random
    # edges, so per-batch change size varies as cliques assemble
    rng = random.Random(1)
    n, m = 10000, 100000
    edges = set()
    for c in range(1000):
        base = c * 8 + 1
        for i in range(8):
            for j in range(i + 1, 8):
                edges.add((base + i, base + j))
    while len(edges) < m:
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for u, v in sorted(edges):
        g.add_edge(u, v)
    stream = gen_stream(g, StreamConfig(retain_prob=0.1, batch_size=1000, seed=0))

    inc_g = stream.initial_graph.copy()
    reg = CliqueRegistry.from_cliques(ttt(inc_g))
    inc_times, change_sizes = [], []
    inc_total = 0.0
    for batch in stream.batches:
        t0 = time.perf_counter()
        change = apply_insert_batch(inc_g, batch, reg)
        dt = time.perf_counter() - t0
        inc_times.append(dt)
        inc_total += dt
        change_sizes.append(change.total_change_size())

    naive_g = stream.initial_graph.copy()
    current = set(ttt(naive_g))
    naive_total = 0.0
    for batch in stream.batches:
        t0 = time.perf_counter()
        for u, v in batch.edges:
            naive_g.add_edge(u, v)
        after = set(ttt(naive_g))
        _ = after - current, current - after
        naive_total += time.perf_counter() - t0
        current = after

    assert len(reg) == len(current)
    speedup = naive_total / inc_total
    rho = spearmanr(inc_times, change_sizes).statistic
    print(f"  speedup {speedup:.1f}x over {len(stream.batches)} batches, "
          f"spearman {rho:.3f}")
    assert speedup >= 5.0, f"speedup {speedup:.2f}x below 5x"
    assert rho > 0.5, f"spearman {rho:.3f} not > 0.5"


@criterion(11, "65535 subset signatures collision-free; snapshots byte-stable", 30)
def test_criterion_11_signatures():
    seen = set()
    subsets = []
    for mask in range(1, 1 << 16):
        c = tuple(i + 1 for i in range(16) if mask >> i & 1)
        subsets.append(c)
        seen.add(signature(c))
    assert len(seen) == (1 << 16) - 1
    reg = CliqueRegistry.from_cliques(subsets[:5000], verify=True)
    blob = reg.snapshot()
    assert CliqueRegistry.restore(blob).snapshot() == blob
