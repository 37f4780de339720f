import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliquedelta
from cliquedelta import EdgeBatch, Graph
from cliquedelta.oracle import (SIZE_GUARD, OracleSizeError, oracle_change,
                                oracle_cliques)


def test_oracle_cliques_basics():
    tri = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    assert oracle_cliques(tri) == {(1, 2, 3)}
    lone = Graph.from_edges([(1, 2)], vertices=[5])
    assert oracle_cliques(lone) == {(1, 2), (5,)}
    assert oracle_cliques(Graph()) == set()


def test_oracle_size_guard():
    g = Graph.from_edges([], vertices=range(SIZE_GUARD + 1))
    with pytest.raises(OracleSizeError):
        oracle_cliques(g)
    assert len(oracle_cliques(Graph.from_edges([], vertices=range(SIZE_GUARD)))) \
        == SIZE_GUARD


def test_oracle_change_insert():
    g = Graph.from_edges([(1, 2), (2, 3)])
    change = oracle_change(g, EdgeBatch.insert([(1, 3)]))
    assert change.new_cliques == [(1, 2, 3)]
    assert change.del_cliques == [(1, 2), (2, 3)]
    assert g.has_edge(1, 3)  # oracle mutates like the real operation


def test_oracle_change_delete():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    change = oracle_change(g, EdgeBatch.delete([(1, 3)]))
    assert change.new_cliques == [(1, 2), (2, 3)]
    assert change.del_cliques == [(1, 2, 3)]
    assert not g.has_edge(1, 3)


def test_oracle_change_validates_batch():
    from cliquedelta import BatchError
    g = Graph.from_edges([(1, 2)])
    with pytest.raises(BatchError):
        oracle_change(g, EdgeBatch.insert([(1, 2)]))
    assert sorted(g.edges()) == [(1, 2)]


def test_package_and_cli_import_without_networkx():
    # networkx is loaded by the oracle's first use, not by importing the
    # package or its CLI
    code = ("import sys, cliquedelta, cliquedelta.cli\n"
            "assert 'networkx' not in sys.modules\n"
            "cliquedelta.oracle_cliques(cliquedelta.Graph())\n"
            "assert 'networkx' in sys.modules\n")
    src = str(Path(cliquedelta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
