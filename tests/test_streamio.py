import random

import pytest

from cliquedelta import Graph, GraphError
from cliquedelta.streamio import (EdgeListParseError, EdgeStream, StreamConfig,
                                  StreamFormatError, gen_stream,
                                  parse_edge_list, read_stream, write_stream)


# -- parse_edge_list ----------------------------------------------------


def test_parse_basic():
    g = parse_edge_list("1 2\n2 3\n")
    assert sorted(g.edges()) == [(1, 2), (2, 3)]


def test_parse_comments_tabs_and_reversed_duplicates():
    g = parse_edge_list("# comment\n1\t2\n2 1\n")
    assert sorted(g.edges()) == [(1, 2)]


def test_parse_self_loops_dropped():
    g = parse_edge_list("3 3\n1 2\n")
    assert sorted(g.edges()) == [(1, 2)]


def test_parse_skips_blank_lines():
    g = parse_edge_list("\n1 2\n\n")
    assert sorted(g.edges()) == [(1, 2)]


def test_read_stream_header_is_name_and_count_tokens():
    # any whitespace separates a header's tokens, as it does an edge's
    stream = read_stream("initial 1\n1 2\nbatch\t1\n2 3\n  batch  0\n")
    assert [b.edges for b in stream.batches] == [((2, 3),), ()]


def test_read_stream_skips_blank_lines():
    stream = read_stream("\ninitial 1\n1 2\n\nbatch 1\n\n2 3\n\n")
    assert sorted(stream.initial_graph.edges()) == [(1, 2)]
    assert [b.edges for b in stream.batches] == [((2, 3),)]


@pytest.mark.parametrize("bad", ["1\n", "1 2 3\n", "a b\n", "-1 2\n"])
def test_parse_malformed_lines(bad):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(bad)


@pytest.mark.parametrize("bad,lineno", [("1_0 2", 1), ("\uff13 4", 1),
                                        ("1 2\n3 4_0\n", 2)])
def test_parse_refuses_python_literal_ids(bad, lineno):
    # int() reads "1_0" as 10 and a fullwidth digit as its ASCII value
    with pytest.raises(EdgeListParseError,
                       match=f"line {lineno}: non-integer token"):
        parse_edge_list(bad)


def test_parse_signed_ascii_ids():
    assert sorted(parse_edge_list("+1 2\n# caf\u00e9\n2 +03\n").edges()) == [
        (1, 2), (2, 3)]
    with pytest.raises(EdgeListParseError, match="line 2: negative vertex id"):
        parse_edge_list("# caf\u00e9\n-1 2\n")


# -- gen_stream ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(GraphError):
        StreamConfig(retain_prob=1.5)
    with pytest.raises(GraphError):
        StreamConfig(batch_size=0)


@pytest.mark.parametrize("size", [2.5, True, 10.0])
def test_config_refuses_batch_size_not_int(size):
    # 2.5 would fail in gen_stream's slicing, and True would mean 1
    with pytest.raises(GraphError, match="batch_size must be int"):
        StreamConfig(batch_size=size)


def big_random_graph():
    rng = random.Random(99)
    g = Graph()
    for v in range(1, 201):
        g.add_vertex(v)
    edges = set()
    while len(edges) < 10000:
        u, v = rng.sample(range(1, 201), 2)
        edges.add((min(u, v), max(u, v)))
    for u, v in edges:
        g.add_edge(u, v)
    return g


def test_gen_stream_partition_and_retention():
    g = big_random_graph()
    cfg = StreamConfig(retain_prob=0.1, batch_size=500, seed=3)
    stream = gen_stream(g, cfg)
    retained = set(stream.initial_graph.edges())
    streamed = [e for b in stream.batches for e in b.edges]
    # retained + streamed partition the original edge set exactly
    assert retained | set(streamed) == set(g.edges())
    assert retained.isdisjoint(streamed)
    assert len(streamed) == len(set(streamed))
    # 10000 trials at p=0.1; a binomial this size stays well inside 800..1200
    assert 800 <= len(retained) <= 1200
    # all batches full except possibly the last
    assert all(len(b) == 500 for b in stream.batches[:-1])
    assert 1 <= len(stream.batches[-1]) <= 500


def test_gen_stream_deterministic():
    g = big_random_graph()
    cfg = StreamConfig(retain_prob=0.2, batch_size=300, seed=7)
    a, b = gen_stream(g, cfg), gen_stream(g.copy(), cfg)
    assert sorted(a.initial_graph.edges()) == sorted(b.initial_graph.edges())
    assert [x.edges for x in a.batches] == [x.edges for x in b.batches]
    c = gen_stream(g, StreamConfig(retain_prob=0.2, batch_size=300, seed=8))
    assert [x.edges for x in a.batches] != [x.edges for x in c.batches]


def test_gen_stream_extreme_probs():
    g = big_random_graph()
    keep_all = gen_stream(g, StreamConfig(retain_prob=1.0, batch_size=10))
    assert keep_all.batches == []
    assert set(keep_all.initial_graph.edges()) == set(g.edges())
    keep_none = gen_stream(g, StreamConfig(retain_prob=0.0, batch_size=10000))
    assert keep_none.initial_graph.num_edges() == 0
    assert len(keep_none.batches) == 1


# -- stream text format -------------------------------------------------


def test_stream_round_trip():
    g = big_random_graph()
    stream = gen_stream(g, StreamConfig(retain_prob=0.3, batch_size=700, seed=5))
    back = read_stream(write_stream(stream))
    assert sorted(back.initial_graph.edges()) == sorted(stream.initial_graph.edges())
    assert [b.edges for b in back.batches] == [b.edges for b in stream.batches]


def test_write_stream_format():
    from cliquedelta import EdgeBatch
    stream = EdgeStream(Graph.from_edges([(1, 2)]),
                        [EdgeBatch.insert([(2, 3), (1, 3)])])
    # batch edge order is preserved: it determines which batch edge each
    # changed clique is attributed to during enumeration
    assert write_stream(stream) == "initial 1\n1 2\nbatch 2\n2 3\n1 3\n"


def test_read_stream_reconstructs_vertices_from_batches():
    stream = read_stream("initial 1\n1 2\nbatch 1\n3 4\n")
    assert sorted(stream.initial_graph.vertices()) == [1, 2, 3, 4]
    stream.batches[0].validate(stream.initial_graph)


@pytest.mark.parametrize("bad", [
    "",
    "1 2\n",
    "initial x\n",
    "initial 2\n1 2\nbatch 1\n1 3\n",   # header count mismatch
    "initial 1\n1 2\nbatch 2\n1 3\n",   # batch count mismatch
    "initial 1\n1 2\nbatch\n",
    "initial 1\n1 2\nbatch 1\n1 2 3\n",
    "initial 1 2\n1 2\n",             # header with extra tokens
    "initial 1\n1 2\ninitial 1\n2 3\n",  # a second initial block
    "batch 1\n1 2\n",                 # batch before initial
])
def test_read_stream_format_errors(bad):
    with pytest.raises(StreamFormatError):
        read_stream(bad)


@pytest.mark.parametrize("bad,message", [
    ("initial 1\n1_0 2\n", "expected edge line, got '1_0 2'"),
    ("initial 1\n\uff13 4\n", "expected edge line, got '\uff13 4'"),
    ("initial 1_0\n", "bad header 'initial 1_0'"),
    ("initial 1\n1 2\nbatch \uff11\n2 3\n", "bad header 'batch \uff11'"),
])
def test_read_stream_refuses_python_literal_tokens(bad, message):
    with pytest.raises(StreamFormatError, match=message):
        read_stream(bad)


def test_read_stream_signed_ascii_tokens():
    # a non-ASCII separator still splits tokens; a negative id keeps the
    # graph's own message
    stream = read_stream("initial +1\n+1\u00a002\nbatch 1\n2 3\n")
    assert sorted(stream.initial_graph.edges()) == [(1, 2)]
    with pytest.raises(GraphError, match=r"negative vertex id in \(-1,2\)"):
        read_stream("initial 1\n-1\u00a02\n")
