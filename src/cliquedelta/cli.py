"""Command-line harness: static enumeration, stream replay with metrics,
randomized verification against the oracle, and extremal fixtures."""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .delta import (ChangeSet, apply_delete_batch, apply_insert_batch,
                    fully_dynamic)
from .enumeration import Clique, ttt
from .extremal import (batch_extremal, batch_extremal_change, f_max,
                       moon_moser, moon_moser_correction_pair,
                       single_edge_extremal, _f)
from .graph import EdgeBatch, Graph, GraphError
from .oracle import SIZE_GUARD, oracle_cliques
from .signatures import CliqueRegistry, SignatureError, _encode
from .streamio import (EdgeListParseError, StreamFormatError, parse_edge_list,
                       read_stream)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3

CSV_HEADER = "batch_index,batch_size,elapsed_ms,new_count,del_count,total_change_size"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 on usage errors
        raise UsageError(message)


def _clique_line(c: Clique) -> str:
    return _encode(c).decode("ascii")


# -- mce ---------------------------------------------------------------


def cmd_mce(args) -> int:
    g = parse_edge_list(Path(args.input).read_text(encoding="utf-8"))
    cliques = sorted(ttt(g))
    if not args.count_only:
        for c in cliques:
            print(_clique_line(c))
    print(f"count={len(cliques)}")
    return EXIT_OK


# -- stream ------------------------------------------------------------


def _check_out_path(flag: str, path: str) -> None:
    # run before any work, so a bad path replays, prints and writes nothing
    p = Path(path)
    if p.is_dir():
        raise UsageError(f"{flag} {path}: is a directory")
    if not p.parent.is_dir():
        raise UsageError(f"{flag} {path}: no such directory {p.parent}")


def cmd_stream(args) -> int:
    # each output must be its own file, and none the input stream
    named = {Path(args.stream).resolve(): "the input stream"}
    for flag, path in (("--metrics-out", args.metrics_out),
                       ("--emit-cliques", args.emit_cliques),
                       ("--snapshot-out", args.snapshot_out)):
        if path:
            _check_out_path(flag, path)
            key = Path(path).resolve()
            if key in named:
                raise UsageError(f"{flag} {path}: same file as {named[key]}")
            named[key] = flag
    stream = read_stream(Path(args.stream).read_text(encoding="utf-8"))
    g = stream.initial_graph
    initial = list(ttt(g))
    registry = CliqueRegistry.from_cliques(initial, verify=args.verify_signatures)
    # the naive path's clique set; the other paths read only the registry
    current = set(initial) if args.algo == "naive" else set()

    rows = [CSV_HEADER]
    emit_lines: list[str] = []
    for i, batch in enumerate(stream.batches):
        t0 = time.perf_counter()
        if args.algo == "naive":
            batch.apply(g)
            after = set(ttt(g))
            change = ChangeSet(sorted(after - current), sorted(current - after))
            registry.update(change.new_cliques, change.del_cliques)
            current = after
        else:
            change = apply_insert_batch(g, batch, registry, algo=args.algo)
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        rows.append(f"{i},{len(batch)},{elapsed_ms},{len(change.new_cliques)},"
                    f"{len(change.del_cliques)},{change.total_change_size()}")
        if args.emit_cliques:
            emit_lines.append(f"batch {i}")
            emit_lines.extend(f"new {_clique_line(c)}"
                              for c in sorted(change.new_cliques))
            emit_lines.extend(f"del {_clique_line(c)}"
                              for c in sorted(change.del_cliques))

    csv_text = "\n".join(rows) + "\n"
    if args.metrics_out:
        Path(args.metrics_out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.emit_cliques:
        Path(args.emit_cliques).write_text("\n".join(emit_lines) + "\n")
    if args.snapshot_out:
        Path(args.snapshot_out).write_bytes(registry.snapshot())
    return EXIT_OK


# -- verify ------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, density: float) -> Graph:
    # one draw per pair u < v, in this order, so a seed's trials stay put
    vs = range(1, n + 1)
    return Graph.from_edges([(u, v) for u in vs for v in range(u + 1, n + 1)
                             if rng.random() < density], vs)


def _random_batch(rng: random.Random, g: Graph, mode: str, max_rho: int) -> EdgeBatch:
    vs = sorted(g.vertices())
    if mode == "insert":
        pool = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                if not g.has_edge(u, v)]
    else:
        pool = sorted(g.edges())
    rho = rng.randint(0, min(max_rho, len(pool)))
    return EdgeBatch(tuple(rng.sample(pool, rho)), mode)


@dataclass
class VerifyFailure:
    trial: int
    kind: str
    graph_edges: list
    vertices: list
    detail: str


#: trial kind -> the public call that applies its (inserts, deletes) pair
_APPLY = {"insert": apply_insert_batch, "delete": apply_delete_batch,
          "mixed": fully_dynamic}


def run_verification(trials: int, max_n: int = 25, max_batch: int = 6,
                     seed: int = 0, inject_fault: bool = False) -> VerifyFailure | None:
    """Randomized oracle-equivalence trials over insert/delete/mixed batches.

    Returns the first failing instance, or None if all trials agree.
    inject_fault deliberately corrupts one computed change to prove the
    harness detects discrepancies.
    """
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(2, max_n)
        density = rng.random()
        base = _random_graph(rng, n, density)
        kind = ("insert", "delete", "mixed")[trial % 3]
        batches = [_random_batch(rng, base, mode, max_batch)
                   for mode in ("insert", "delete") if kind in (mode, "mixed")]

        g = base.copy()
        registry = CliqueRegistry.from_cliques(ttt(g))
        change = _APPLY[kind](g, *batches, registry)
        if inject_fault and change.new_cliques:
            change.new_cliques[0] = change.new_cliques[0] + (10 ** 6,)

        oracle_g = base.copy()
        for h in batches:
            h.apply(oracle_g)
        before, after = oracle_cliques(base), oracle_cliques(oracle_g)
        if (sorted(change.new_cliques), sorted(change.del_cliques)) != (
                sorted(after - before), sorted(before - after)):
            problem = "change mismatch"
        elif registry != CliqueRegistry.from_cliques(after):
            problem = "registry mismatch"
        else:
            continue
        desc = " ".join(f"{h.mode} {list(h.edges)}" for h in batches)
        return VerifyFailure(trial, kind, sorted(base.edges()),
                             sorted(base.vertices()),
                             f"seed={seed} n={n} {desc}: {problem}")
    return None


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise UsageError(f"--trials must be at least 0, got {args.trials}")
    # a trial graph needs two vertices to take an edge, and the oracle
    # checks at most SIZE_GUARD
    if not 2 <= args.max_n <= SIZE_GUARD:
        raise UsageError(f"--max-n must be in 2..{SIZE_GUARD}, got {args.max_n}")
    if args.max_batch < 0:
        raise UsageError(f"--max-batch must be at least 0, got {args.max_batch}")
    if args.trials == 0:
        print("warning: 0 trials requested; trivially passing")
        print("verify: PASS (0 trials)")
        return EXIT_OK
    failure = run_verification(args.trials, args.max_n, args.max_batch,
                               args.seed, inject_fault=args.inject_fault)
    if failure is None:
        print(f"verify: PASS ({args.trials} trials)")
        return EXIT_OK
    print(f"verify: FAIL at trial {failure.trial} ({failure.kind})")
    print(f"detail: {failure.detail}")
    print(f"vertices: {failure.vertices}")
    print("edges:")
    for u, v in failure.graph_edges:
        print(f"{u} {v}")
    return EXIT_VERIFY


# -- extremal ----------------------------------------------------------


def _write_edge_list(path: Path, g: Graph) -> None:
    lines = [f"{u} {v}" for u, v in sorted(g.edges())]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def cmd_extremal(args) -> int:
    # every file name is --out with a suffix appended, so dots in it stay
    out = args.out
    n = args.n
    if args.eps is not None and args.kind != "batch":
        raise UsageError(f"extremal {args.kind} takes no eps")
    # every file the kind writes, so a bad path writes none of them
    written = {"batch": (".edges", ".batch"), "mm-pair": ("-h.edges", "-g.edges")}
    for suffix in written.get(args.kind, (".edges",)) + (".predict",):
        _check_out_path("--out", out + suffix)
    if args.kind == "moon-moser":
        g = moon_moser(n)
        _write_edge_list(Path(out + ".edges"), g)
        predict = f"cliques={f_max(n)}"
    elif args.kind == "single-edge":
        g, e = single_edge_extremal(n)
        _write_edge_list(Path(out + ".edges"), g)
        fn2 = _f(n - 2)
        predict = (f"edge={e[0]},{e[1]} cliques_before={2 * fn2} "
                   f"cliques_after={fn2} change={3 * fn2}")
    elif args.kind == "batch":
        if args.eps is None:
            raise UsageError("extremal batch requires eps")
        g, h = batch_extremal(n, args.eps)
        _write_edge_list(Path(out + ".edges"), g)
        batch_lines = [f"{u} {v}" for u, v in h.edges]
        Path(out + ".batch").write_text("\n".join(batch_lines) + "\n")
        eps = args.eps
        predict = (f"cliques_before={eps * f_max(n - eps)} "
                   f"cliques_after={f_max(eps) * f_max(n - eps)} "
                   f"change={batch_extremal_change(n, eps)}")
    else:  # mm-pair
        h_n, g_n = moon_moser_correction_pair(n)
        _write_edge_list(Path(out + "-h.edges"), h_n)
        _write_edge_list(Path(out + "-g.edges"), g_n)
        predict = f"cliques={f_max(n)} cliques={f_max(n)} change={2 * f_max(n)}"
    Path(out + ".predict").write_text(predict + "\n")
    print(predict)
    return EXIT_OK


# -- entry point -------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="cliquedelta",
                description="Maintain the exact set of maximal cliques under "
                            "batched edge updates.")
    sub = p.add_subparsers(dest="command", required=True)

    mce = sub.add_parser("mce", help="enumerate maximal cliques of an edge list")
    mce.add_argument("input")
    mce.add_argument("--count-only", action="store_true")
    mce.set_defaults(func=cmd_mce)

    st = sub.add_parser("stream", help="replay a stream file, reporting per-batch metrics")
    st.add_argument("stream")
    st.add_argument("--algo", choices=("enumn", "enumnte", "naive"),
                    default="enumnte")
    st.add_argument("--metrics-out")
    st.add_argument("--emit-cliques")
    st.add_argument("--verify-signatures", action="store_true")
    st.add_argument("--snapshot-out")
    st.set_defaults(func=cmd_stream)

    ver = sub.add_parser("verify", help="randomized equivalence trials against the oracle")
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--max-n", type=int, default=25)
    ver.add_argument("--max-batch", type=int, default=6)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--inject-fault", action="store_true",
                     help="harness self-test: corrupt one result on purpose")
    ver.set_defaults(func=cmd_verify)

    ex = sub.add_parser("extremal", help="write an extremal construction and its predicted counts")
    ex.add_argument("kind", choices=("moon-moser", "single-edge", "batch", "mm-pair"))
    ex.add_argument("n", type=int)
    ex.add_argument("eps", type=int, nargs="?")
    ex.add_argument("--out", default="extremal")
    ex.set_defaults(func=cmd_extremal)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # OSError: any path that cannot be read, a directory among them
    except (EdgeListParseError, StreamFormatError, OSError,
            UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphError, SignatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
