import pytest
from hypothesis import given, strategies as st

from cliquedelta import (DuplicateEdgeError, EdgeBatch, Graph, BatchError,
                         GraphError, MissingEdgeError, MissingVertexError,
                         SelfLoopError, normalize_edge)


def test_add_edge_creates_endpoints():
    g = Graph()
    g.add_edge(1, 2)
    assert g.num_vertices() == 2
    assert g.num_edges() == 1
    assert g.has_edge(2, 1)


def test_add_duplicate_edge_rejected():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(1, 2)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(2, 1)


def test_self_loop_rejected():
    g = Graph()
    with pytest.raises(SelfLoopError):
        g.add_edge(5, 5)
    with pytest.raises(SelfLoopError):
        normalize_edge(5, 5)


@pytest.mark.parametrize("call,error,message", [
    (lambda: normalize_edge(-1, 2), GraphError, "negative vertex id"),
    (lambda: Graph().add_vertex(-1), GraphError, "negative vertex id"),
    (lambda: EdgeBatch(((1, 2),), "x"), BatchError, "unknown batch mode"),
    (lambda: normalize_edge(1.5, 3), GraphError, "must be int"),
    (lambda: Graph().add_vertex(True), GraphError, "must be int"),
    (lambda: EdgeBatch.insert([(1.5, 3)]), GraphError, "must be int"),
], ids=["negative-edge-end", "negative-vertex", "unknown-batch-mode",
        "float-edge-end", "bool-vertex", "float-batch-edge"])
def test_bad_arguments_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_remove_edge_retains_vertices():
    g = Graph.from_edges([(1, 2), (2, 3)])
    g.remove_edge(1, 2)
    assert sorted(g.vertices()) == [1, 2, 3]
    assert sorted(g.edges()) == [(2, 3)]


def test_remove_edge_from_triangle_gives_path():
    g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    g.remove_edge(1, 3)
    assert sorted(g.edges()) == [(1, 2), (2, 3)]


def test_remove_vertex_only_when_isolated():
    g = Graph.from_edges([(1, 2)], vertices=[3])
    g.remove_vertex(3)
    assert sorted(g.vertices()) == [1, 2]
    with pytest.raises(GraphError):
        g.remove_vertex(1)
    assert sorted(g.edges()) == [(1, 2)]
    with pytest.raises(MissingVertexError):
        g.remove_vertex(3)


def test_remove_absent_edge_errors():
    g = Graph()
    with pytest.raises((MissingEdgeError,)):
        g.remove_edge(7, 9)


def test_common_neighbors():
    k4 = Graph.from_edges([(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert k4.common_neighbors(1, 2) == [3, 4]
    path = Graph.from_edges([(1, 2), (2, 3)])
    assert path.common_neighbors(1, 3) == [2]
    two = Graph.from_edges([(1, 2), (3, 4)])
    assert two.common_neighbors(1, 3) == []
    with pytest.raises(MissingVertexError):
        path.common_neighbors(1, 99)


def test_induced_subgraph():
    tri = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    sub = tri.induced_subgraph({1, 2})
    assert sorted(sub.edges()) == [(1, 2)]
    assert tri.induced_subgraph(set()).num_vertices() == 0
    k4 = Graph.from_edges([(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert sorted(k4.induced_subgraph({1, 2, 3}).edges()) == [(1, 2), (1, 3), (2, 3)]
    with pytest.raises(MissingVertexError):
        tri.induced_subgraph({1, 42})


def test_induced_subgraph_identity():
    g = Graph.from_edges([(1, 2), (2, 3), (4, 5)], vertices=[9])
    assert g.induced_subgraph(set(g.vertices())) == g


@st.composite
def edge_sequences(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return draw(st.lists(st.sampled_from(pairs), max_size=20))


@given(edge_sequences())
def test_mutation_keeps_symmetry_and_degree_sum(ops):
    # num_edges() is derived from the degrees, so the count is checked
    # against an edge set the test keeps itself
    g = Graph()
    model = set()
    for u, v in ops:
        if g.has_vertex(u) and g.has_vertex(v) and g.has_edge(u, v):
            g.remove_edge(u, v)
        else:
            g.add_edge(u, v)
        model ^= {(u, v)}
        for w in g.vertices():
            for x in g.neighbors(w):
                assert w in g.neighbors(x)
        assert sum(len(g.neighbors(v_)) for v_ in g.vertices()) == 2 * g.num_edges()
        assert g.num_edges() == len(model)


@given(edge_sequences())
def test_add_then_remove_restores_edge_set(ops):
    g = Graph()
    for u, v in ops:
        if not (g.has_vertex(u) and g.has_vertex(v) and g.has_edge(u, v)):
            g.add_edge(u, v)
    before = sorted(g.edges())
    g.add_edge(100, 101)
    g.remove_edge(100, 101)
    assert sorted(g.edges()) == before


def test_batch_normalization_and_duplicates():
    b = EdgeBatch.insert([(2, 1), (3, 1)])
    assert b.edges == ((1, 2), (1, 3))
    with pytest.raises(BatchError):
        EdgeBatch.insert([(1, 2), (2, 1)])


def test_batch_validation_modes():
    g = Graph.from_edges([(1, 2)])
    with pytest.raises(BatchError):
        EdgeBatch.insert([(1, 2)]).validate(g)
    with pytest.raises(BatchError):
        EdgeBatch.delete([(1, 3)]).validate(g)
    EdgeBatch.insert([(1, 3)]).validate(g)
    EdgeBatch.delete([(1, 2)]).validate(g)


def test_batch_apply_in_order(monkeypatch):
    calls = []
    for name in ("add_edge", "remove_edge"):
        def record(g, u, v, name=name, op=getattr(Graph, name)):
            calls.append((name, u, v))
            op(g, u, v)
        monkeypatch.setattr(Graph, name, record)
    g = Graph.from_edges([(1, 2)])
    calls.clear()
    EdgeBatch.insert([(3, 4), (2, 3), (1, 3)]).apply(g)
    assert calls == [("add_edge", 3, 4), ("add_edge", 2, 3), ("add_edge", 1, 3)]
    assert sorted(g.edges()) == [(1, 2), (1, 3), (2, 3), (3, 4)]
    calls.clear()
    EdgeBatch.delete([(1, 3), (1, 2)]).apply(g)
    assert calls == [("remove_edge", 1, 3), ("remove_edge", 1, 2)]
    assert sorted(g.edges()) == [(2, 3), (3, 4)]
    assert g.num_edges() == 2


@pytest.mark.parametrize("batch", [
    EdgeBatch.insert([(1, 3), (4, 5), (1, 2)]),
    EdgeBatch.delete([(1, 2), (2, 3), (1, 3)]),
], ids=["insert-last-present", "delete-last-absent"])
def test_batch_apply_refused_changes_nothing(batch):
    g = Graph.from_edges([(1, 2), (2, 3)], vertices=[4])
    with pytest.raises(BatchError):
        batch.apply(g)
    assert sorted(g.edges()) == [(1, 2), (2, 3)]
    assert g.num_edges() == 2
    assert sorted(g.vertices()) == [1, 2, 3, 4]
