import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cliquedelta import CliqueRegistry, EdgeBatch, Graph, apply_insert_batch, ttt
from cliquedelta import cli
from cliquedelta.cli import CSV_HEADER, main, run_verification
from cliquedelta.signatures import signature
from cliquedelta.streamio import (EdgeStream, gen_stream, parse_edge_list,
                                  write_stream, StreamConfig)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- mce ----------------------------------------------------------------


def test_mce_triangle(tmp_path, capsys):
    path = write(tmp_path, "tri.edges", "1 2\n2 3\n1 3\n")
    assert main(["mce", path]) == 0
    assert capsys.readouterr().out == "1,2,3\ncount=1\n"


def test_mce_count_only(tmp_path, capsys):
    path = write(tmp_path, "p.edges", "1 2\n2 3\n")
    assert main(["mce", path, "--count-only"]) == 0
    assert capsys.readouterr().out == "count=2\n"


def test_mce_empty_edge_list(tmp_path, capsys):
    path = write(tmp_path, "empty.edges", "# no edges\n")
    assert main(["mce", path]) == 0
    assert capsys.readouterr().out == "count=0\n"


def test_mce_missing_file_exit_2(tmp_path, capsys):
    assert main(["mce", str(tmp_path / "nope.edges")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_mce_malformed_input_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.edges", "1 2 3\n")
    assert main(["mce", path]) == 2


@pytest.mark.parametrize("command", ["mce", "stream"])
@pytest.mark.parametrize("content", [None, b"\xff\xfe1 2\n"],
                         ids=["directory", "non-utf8"])
def test_unreadable_input_exit_2(tmp_path, capsys, command, content):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize("command,content,out", [
    ("mce", "# caf\u00e9\n1 2\n", "1,2\ncount=1\n"),
    ("stream", "initial\u00a01\n1 2\n", CSV_HEADER + "\n"),
], ids=["mce", "stream"])
def test_input_decoded_as_utf8_under_c_locale(tmp_path, command, content, out):
    # input files are UTF-8 whatever the locale's encoding; the stream's
    # header is split at a no-break space, which str.split() takes as
    # whitespace
    path = tmp_path / "input"
    path.write_bytes(content.encode("utf-8"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    run = subprocess.run([sys.executable, "-m", "cliquedelta.cli", command,
                          str(path)], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, out, "")


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["stream"]) == 1
    capsys.readouterr()


# -- stream -------------------------------------------------------------


def small_stream(tmp_path, seed=2):
    rng = random.Random(seed)
    g = Graph()
    for v in range(1, 21):
        g.add_vertex(v)
    for u in range(1, 21):
        for v in range(u + 1, 21):
            if rng.random() < 0.3:
                g.add_edge(u, v)
    stream = gen_stream(g, StreamConfig(retain_prob=0.5, batch_size=10, seed=seed))
    return write(tmp_path, "s.stream", write_stream(stream)), g, stream


def test_stream_csv_stdout(tmp_path, capsys):
    path, _, stream = small_stream(tmp_path)
    assert main(["stream", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(stream.batches)
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert all(int(c) >= 0 for c in cells)


def test_stream_empty_batches_header_only(tmp_path, capsys):
    path = write(tmp_path, "e.stream",
                 write_stream(EdgeStream(Graph.from_edges([(1, 2)]), [])))
    assert main(["stream", path]) == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n"


def test_stream_empty_initial_graph_header_only(tmp_path, capsys):
    path = write(tmp_path, "z.stream", "initial 0\n")
    assert main(["stream", path]) == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n"


def test_stream_metrics_out_and_snapshot(tmp_path, capsys):
    path, g, _ = small_stream(tmp_path)
    metrics = tmp_path / "m.csv"
    snap = tmp_path / "reg.snap"
    assert main(["stream", path, "--metrics-out", str(metrics),
                 "--snapshot-out", str(snap), "--verify-signatures"]) == 0
    assert capsys.readouterr().out == ""
    assert metrics.read_text().splitlines()[0] == CSV_HEADER
    # the snapshot must describe exactly the maximal cliques of the full graph
    restored = CliqueRegistry.restore(snap.read_bytes())
    want = {signature(c) for c in ttt(g)}
    assert set(restored.signatures()) == want


@pytest.mark.parametrize("flag", ["--metrics-out", "--emit-cliques",
                                  "--snapshot-out"])
@pytest.mark.parametrize("target", ["directory", "missing-parent",
                                    "input-stream", "other-output"])
def test_stream_bad_output_path_exit_1_before_replay(tmp_path, capsys,
                                                     monkeypatch, flag, target):
    path, _, _ = small_stream(tmp_path)
    text = Path(path).read_text()
    argv = ["stream", path]
    if target == "directory":
        out = tmp_path
    elif target == "missing-parent":
        out = tmp_path / "missing" / "x.txt"
    elif target == "input-stream":
        out = tmp_path / "." / "s.stream"  # names the input another way
    else:
        # another output flag, given first, names the same file
        other = "--metrics-out" if flag == "--snapshot-out" else "--snapshot-out"
        out = tmp_path / "x.out"
        argv += [other, str(tmp_path / "." / "x.out")]
    read, real_read = [], cli.read_stream
    monkeypatch.setattr(cli, "read_stream",
                        lambda text: read.append(text) or real_read(text))
    assert main([*argv, flag, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if target == "other-output":
        # reported at whichever of the two flags is checked second
        assert captured.err.startswith("usage error: --")
        assert flag in captured.err and other in captured.err
        assert "same file" in captured.err
    else:
        assert captured.err.startswith(f"usage error: {flag} ")
    if target == "input-stream":
        assert "same file as the input stream" in captured.err
    assert read == []
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "x.out").exists()
    assert Path(path).read_text() == text


def run_stream_outputs(tmp_path, path, algo):
    files = [tmp_path / f"{algo}.{ext}" for ext in ("csv", "cliques", "snap")]
    assert main(["stream", path, "--algo", algo,
                 "--metrics-out", str(files[0]),
                 "--emit-cliques", str(files[1]),
                 "--snapshot-out", str(files[2])]) == 0
    csv_rows = [row.split(",") for row in files[0].read_text().splitlines()]
    # every column but elapsed_ms
    return ([row[:2] + row[3:] for row in csv_rows],
            files[1].read_text(), files[2].read_bytes())


@pytest.mark.parametrize("algo", ["enumn", "enumnte", "naive"])
def test_stream_algorithms_agree(tmp_path, algo, capsys):
    path, _, _ = small_stream(tmp_path, seed=7)
    ref_algo = "enumn" if algo == "naive" else "naive"
    got = run_stream_outputs(tmp_path, path, algo)
    ref = run_stream_outputs(tmp_path, path, ref_algo)
    capsys.readouterr()
    assert len(ref[0]) > 2 and "new " in ref[1]
    assert got == ref


def test_stream_change_matches_library(tmp_path, capsys):
    path, _, stream = small_stream(tmp_path, seed=5)
    out = tmp_path / "c.cliques"
    assert main(["stream", path, "--emit-cliques", str(out),
                 "--metrics-out", str(tmp_path / "c.csv")]) == 0
    capsys.readouterr()
    g = stream.initial_graph.copy()
    reg = CliqueRegistry.from_cliques(ttt(g))
    want_lines = []
    for i, batch in enumerate(stream.batches):
        change = apply_insert_batch(g, batch, reg)
        want_lines.append(f"batch {i}")
        want_lines += [f"new {','.join(map(str, c))}"
                       for c in sorted(change.new_cliques)]
        want_lines += [f"del {','.join(map(str, c))}"
                       for c in sorted(change.del_cliques)]
    assert out.read_text() == "\n".join(want_lines) + "\n"


@pytest.mark.parametrize("text", ["initial 1\n1_0 2\n", "initial 1\n\uff13 4\n",
                                  "initial 1_0\n"])
def test_stream_python_literal_tokens_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.stream"
    path.write_text(text, encoding="utf-8")
    assert main(["stream", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")


def test_stream_algorithms_refuse_invalid_batch_alike(tmp_path, capsys):
    # the batch's last edge is already in the graph, so no algorithm may
    # add its first edge before refusing it
    path = write(tmp_path, "bad.stream",
                 "initial 2\n1 2\n2 3\nbatch 2\n1 3\n1 2\n")
    errors = set()
    for algo in ("enumn", "enumnte", "naive"):
        assert main(["stream", path, "--algo", algo]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    assert errors == {"error: insert batch edge (1,2) already in graph\n"}


# -- verify -------------------------------------------------------------


def test_verify_passes(capsys):
    assert main(["verify", "--trials", "30", "--max-n", "12", "--seed", "4"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_zero_trials_warns(capsys):
    assert main(["verify", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "PASS" in out


def test_verify_detects_injected_fault(capsys):
    assert main(["verify", "--trials", "30", "--max-n", "12", "--seed", "4",
                 "--inject-fault"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "edges:" in out  # repro instance is printed


def test_verify_detects_registry_mismatch(monkeypatch):
    # a change that matches the oracle while the registry gains a stray clique
    def insert_and_stray(g, h, registry):
        change = apply_insert_batch(g, h, registry)
        registry.add((10 ** 6,))
        return change

    monkeypatch.setitem(cli._APPLY, "insert", insert_and_stray)
    failure = run_verification(3, max_n=8, seed=4)
    assert failure.kind == "insert"
    assert failure.detail.endswith(": registry mismatch")


@pytest.mark.parametrize("flag,value", [
    ("--trials", "-5"), ("--max-n", "1"), ("--max-n", "26"),
    ("--max-batch", "-1")])
def test_verify_rejects_out_of_range_arguments(capsys, flag, value):
    assert main(["verify", "--trials", "3", flag, value]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("usage error:") and flag in captured.err


# -- extremal -----------------------------------------------------------


def test_extremal_moon_moser(tmp_path, capsys):
    out = tmp_path / "mm"
    assert main(["extremal", "moon-moser", "6", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "cliques=9\n"
    assert (tmp_path / "mm.predict").read_text() == "cliques=9\n"
    g = parse_edge_list((tmp_path / "mm.edges").read_text())
    assert sum(1 for _ in ttt(g)) == 9


def test_extremal_single_edge(tmp_path, capsys):
    out = tmp_path / "se"
    assert main(["extremal", "single-edge", "6", "--out", str(out)]) == 0
    predict = capsys.readouterr().out.strip()
    assert predict == "edge=5,6 cliques_before=8 cliques_after=4 change=12"
    g = parse_edge_list((tmp_path / "se.edges").read_text())
    reg = CliqueRegistry.from_cliques(ttt(g))
    change = apply_insert_batch(g, EdgeBatch.insert([(5, 6)]), reg)
    assert len(change.new_cliques) + len(change.del_cliques) == 12


def test_extremal_batch(tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["extremal", "batch", "8", "4", "--out", str(out)]) == 0
    predict = capsys.readouterr().out.strip()
    assert predict.endswith("change=32")
    g = parse_edge_list((tmp_path / "b.edges").read_text())
    edges = [tuple(map(int, ln.split()))
             for ln in (tmp_path / "b.batch").read_text().splitlines()]
    reg = CliqueRegistry.from_cliques(ttt(g))
    change = apply_insert_batch(g, EdgeBatch.insert(edges), reg)
    assert len(change.new_cliques) + len(change.del_cliques) == 32


def test_extremal_dotted_out_keeps_its_name(tmp_path, capsys):
    # every suffix is appended to --out as given; the files match an
    # undotted run's byte for byte
    for name in ("run.v1", "b12"):
        assert main(["extremal", "batch", "12", "4", "--out",
                     str(tmp_path / name)]) == 0
    capsys.readouterr()
    suffixes = (".batch", ".edges", ".predict")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name + suffix for name in ("run.v1", "b12") for suffix in suffixes)
    for suffix in suffixes:
        assert ((tmp_path / ("run.v1" + suffix)).read_bytes()
                == (tmp_path / ("b12" + suffix)).read_bytes())


def test_extremal_batch_requires_eps(tmp_path, capsys):
    assert main(["extremal", "batch", "8", "--out", str(tmp_path / "x")]) == 1
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["moon-moser", "single-edge", "mm-pair"])
def test_extremal_stray_eps_exit_1(tmp_path, capsys, kind):
    # only batch takes eps; elsewhere it is refused, not ignored
    assert main(["extremal", kind, "9", "4", "--out", str(tmp_path / "x")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: extremal {kind} takes no eps")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,blocker", [
    (["moon-moser", "6"], "x.predict"),
    (["batch", "12", "4"], "x.batch"),
    (["mm-pair", "7"], "x-g.edges"),
], ids=["moon-moser", "batch", "mm-pair"])
def test_extremal_bad_out_path_exit_1_writes_nothing(tmp_path, capsys, argv,
                                                     blocker):
    # a directory in the place of any file the kind writes, or a missing
    # parent directory, is refused before the first file is written
    (tmp_path / blocker).mkdir()
    for out, reason in ((tmp_path / "x", "is a directory"),
                        (tmp_path / "missing" / "x", "no such directory")):
        assert main(["extremal", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: --out {out}")
        assert reason in captured.err
        assert [p.name for p in tmp_path.iterdir()] == [blocker]


def test_extremal_mm_pair(tmp_path, capsys):
    out = tmp_path / "pair"
    assert main(["extremal", "mm-pair", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    h = parse_edge_list((tmp_path / "pair-h.edges").read_text())
    g = parse_edge_list((tmp_path / "pair-g.edges").read_text())
    assert sum(1 for _ in ttt(h)) == 12
    assert sum(1 for _ in ttt(g)) == 12
    assert sorted(h.edges()) != sorted(g.edges())


def test_extremal_invalid_n_exit_2(tmp_path, capsys):
    assert main(["extremal", "moon-moser", "1", "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
