from fractions import Fraction

import pytest

from cliquedelta import (CliqueRegistry, EdgeBatch, GraphError,
                         apply_insert_batch, batch_extremal,
                         batch_extremal_change, f_max, moon_moser,
                         moon_moser_correction_pair, single_edge_extremal, ttt)
from cliquedelta.extremal import _f
from cliquedelta.oracle import oracle_cliques


@pytest.mark.parametrize("n,expected", [
    (2, 2), (3, 3), (4, 4), (5, 6), (6, 9), (7, 12), (8, 18), (9, 27),
    (10, 36), (11, 54), (12, 81), (15, 243), (30, 3 ** 10),
    (13, 108), (14, 162), (16, 324), (17, 486), (18, 729), (19, 972),
    (20, 1458), (21, 2187),
])
def test_f_max_values(n, expected):
    assert f_max(n) == _f(n) == expected
    assert _f(1) == 1


def test_f_max_rejects_small_n():
    for n in (-1, 0, 1):
        with pytest.raises(GraphError):
            f_max(n)
    with pytest.raises(GraphError):
        moon_moser(1)


@pytest.mark.parametrize("n", range(2, 14))
def test_moon_moser_attains_bound(n):
    g = moon_moser(n)
    assert sorted(g.vertices()) == list(range(1, n + 1))
    assert len(oracle_cliques(g)) == f_max(n)


def registry_of(g):
    return CliqueRegistry.from_cliques(ttt(g))


@pytest.mark.parametrize("n", range(4, 12))
def test_single_edge_extremal_change(n):
    g, (u, v) = single_edge_extremal(n)
    assert (u, v) == (n - 1, n)
    assert not g.has_edge(u, v)
    reg = registry_of(g)
    core = 1 if n == 3 else f_max(n - 2)
    change = apply_insert_batch(g, EdgeBatch.insert([(u, v)]), reg)
    # each core clique K yields one new clique K+{u,v} subsuming K+{u}, K+{v}
    assert len(change.new_cliques) == core
    assert len(change.del_cliques) == 2 * core
    assert all(u in c and v in c for c in change.new_cliques)


def test_single_edge_extremal_smallest():
    g, e = single_edge_extremal(3)
    reg = registry_of(g)
    change = apply_insert_batch(g, EdgeBatch.insert([e]), reg)
    assert len(change.new_cliques) + len(change.del_cliques) == 3


def test_single_edge_extremal_rejects_small_n():
    for n in (1, 2):
        with pytest.raises(GraphError):
            single_edge_extremal(n)


@pytest.mark.parametrize("n,eps", [(6, 4), (7, 4), (8, 4), (9, 4), (9, 5),
                                   (10, 5), (11, 4)])
def test_batch_extremal_change(n, eps):
    g, h = batch_extremal(n, eps)
    reg = registry_of(g)
    change = apply_insert_batch(g, h, reg)
    want = batch_extremal_change(n, eps)
    assert want == (eps + f_max(eps)) * f_max(n - eps)
    assert len(change.new_cliques) + len(change.del_cliques) == want


def test_batch_extremal_parameter_errors():
    for n, eps in ((10, 3), (5, 4), (10, 9)):
        with pytest.raises(GraphError):
            batch_extremal(n, eps)
        with pytest.raises(GraphError):
            batch_extremal_change(n, eps)


@pytest.mark.parametrize("n", range(10, 26))
def test_best_batch_size_by_residue(n):
    # over all feasible batch-construction sizes the change is maximized at
    # eps = 5 when n = 2 mod 3 and eps = 4 otherwise
    best = max(range(4, n - 1), key=lambda e: batch_extremal_change(n, e))
    want = 5 if n % 3 == 2 else 4
    assert best == want
    ratio = Fraction(batch_extremal_change(n, best), f_max(n))
    expected = {0: Fraction(16, 9), 1: Fraction(2), 2: Fraction(11, 6)}[n % 3]
    assert ratio == expected


@pytest.mark.parametrize("n", (4, 7, 10))
def test_correction_pair(n):
    h_n, g_n = moon_moser_correction_pair(n)
    assert h_n != g_n
    assert len(oracle_cliques(h_n)) == f_max(n)
    assert len(oracle_cliques(g_n)) == f_max(n)
    # the variant carries a 4-cycle inside the size-4 part
    for u, v in ((1, 2), (2, 3), (3, 4), (1, 4)):
        assert g_n.has_edge(u, v)
        assert not h_n.has_edge(u, v)


def test_correction_pair_rejects_bad_n():
    for n in (3, 5, 6, 8):
        with pytest.raises(GraphError):
            moon_moser_correction_pair(n)
