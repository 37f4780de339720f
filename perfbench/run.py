"""Run one cliquedelta benchmark workload and print its metrics.

    python3 perfbench/run.py --workload core-churn --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the library from ``src/``.
The replay is a single-threaded closed loop: each batch is submitted when
the previous public update call (``apply_insert_batch`` or
``fully_dynamic``) returns, because the library is a synchronous batch
updater, not a server.

``--trace 0`` times the update calls for ``--seconds`` seconds of update
time (at least ``MIN_BATCHES`` batches; a replayed stream always runs to its
end) and reports the end-to-end metrics. Their times are scaled to a
reference machine speed, measured by a fixed kernel run between the batches
(``calibrate.py``), because a shared machine's speed jumps between states.
``--trace 1`` replays a fixed number of steps twice, untraced and traced in
turn, so its counts repeat exactly for a seed, and reports the per-layer
metrics; its spans are written to ``.perfbench/``.

Every run checks its outputs: after each batch the registry size must equal
its previous size plus new minus deleted cliques (and the closed-form change
where one is known), and at the end of a round the registry snapshot must
equal, byte for byte, that of a registry rebuilt from ``ttt`` of the final
graph.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
report goes to standard error. The exit code is 1 when a check fails and 2
when the library or the arguments are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from itertools import islice

from calibrate import REF_KERNEL_S, Calibrator
from provenance import ROOT, provenance

SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

MIN_BATCHES = 100
#: set-up is repeated and its median reported; a round repeats a cheap
#: set-up until it has spent SETUP_ROUND_S seconds on it
SETUP_MIN_REPS, SETUP_ROUND_S = 3, 0.25
#: kernel runs on each side of a set-up, which can be shorter than a batch
SETUP_KERNEL_REPS = 3
#: rounds a churn workload's update time is split into
CHURN_ROUNDS = 10
#: steps replayed by a traced run of an endless (churn) workload
TRACE_STEPS = 50

WORKLOAD_NAMES = ("community-insert", "core-churn", "extremal-churn")

#: per-layer self times, reported as "<span>_s" in seconds
SPAN_METRICS = (
    "graph.build", "graph.induced_subgraph",
    "enumeration.ttt", "enumeration.recompute",
    "delta.enum_new", "delta.subsumed", "delta.split", "delta.delete",
    "signatures.build", "signatures.hash", "signatures.probe",
    "signatures.commit", "signatures.snapshot",
    "streamio.gen_stream", "streamio.write_stream", "streamio.read_stream",
)
#: per-layer counters, summed over the traced run
COUNT_METRICS = (
    "graph.local_vertices", "enumeration.ttt_cliques",
    "delta.enum_new_cliques", "delta.subsumed_cliques",
    "delta.split_candidates", "delta.delete_del_cliques",
    "delta.delete_new_cliques", "delta.cancelled_cliques",
    "signatures.hash_calls", "signatures.probes", "signatures.probe_hits",
)


class Replay:
    """Times each public update call and checks its result."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: per batch, the calibrator index right after its preceding sample
        self.marks: list[int] = []
        self.busy_s = 0.0
        self.edges = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, state, steps, tracer, cal=None) -> bool:
        """Apply steps until they run out; False at the first failure.

        With a calibrator, the kernel runs before every batch and once after
        the last, untimed, so that each batch's time can be scaled.
        """
        from cliquedelta import delta

        for step in steps:
            mark = cal.sample() if cal is not None else 0
            tracer.batch = self.attempted
            self.attempted += 1
            before = len(state.reg)
            t0 = time.perf_counter()
            try:
                if step.deletes is None:
                    change = delta.apply_insert_batch(state.g, step.inserts,
                                                      state.reg)
                else:
                    change = delta.fully_dynamic(state.g, step.inserts,
                                                 step.deletes, state.reg)
                dt = time.perf_counter() - t0
            except Exception as e:  # a raising batch is a failed batch
                self.fail(f"batch {self.attempted - 1} raised "
                          f"{type(e).__name__}: {e}")
                return False
            self.latencies.append(dt)
            self.marks.append(mark)
            self.busy_s += dt
            self.edges += step.num_edges()
            new, dels = len(change.new_cliques), len(change.del_cliques)
            if len(state.reg) != before + new - dels:
                self.fail(f"batch {self.attempted - 1}: registry size "
                          f"{len(state.reg)} != {before} + {new} - {dels}")
                return False
            if (step.expected_change is not None
                    and new + dels != step.expected_change):
                self.fail(f"batch {self.attempted - 1}: change {new + dels} "
                          f"!= closed form {step.expected_change}")
                return False
        if cal is not None:
            cal.sample()
        return True

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)


def _reference_snapshot(g, tracer) -> bytes:
    from cliquedelta import CliqueRegistry, ttt

    with tracer.span("enumeration.recompute"):
        cliques = list(ttt(g))
    return CliqueRegistry.from_cliques(cliques).snapshot()


def _check_final(state, replay: Replay, tracer) -> bytes:
    with tracer.span("signatures.snapshot"):
        snap = state.reg.snapshot()
    if snap != _reference_snapshot(state.g, tracer):
        replay.errors.append("final registry snapshot differs from "
                             "CliqueRegistry.from_cliques(ttt(final graph))")
    return snap


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(w, seconds: int) -> tuple[Replay, dict[str, float]]:
    """Rounds of a fresh set-up followed by an episode.

    The machine's speed drifts over seconds, so set-up is repeated in every
    round, spread over the whole run, rather than in one burst at its start.
    A whole-episode workload replays its stream once per round; a churn
    workload runs ``seconds / CHURN_ROUNDS`` seconds of steps per round.

    Every reported time is scaled to the calibration kernel's reference
    speed (see ``calibrate.py``) by kernel runs right around it; the raw
    medians go to standard error.
    """
    from tracing import NullTracer

    null = NullTracer()
    cal = Calibrator()
    replay = Replay()
    setup_s: list[float] = []
    setup_scaled: list[float] = []

    def budget_left() -> bool:
        return replay.busy_s < seconds or len(replay.latencies) < MIN_BATCHES

    first_final = None
    while budget_left() or len(setup_s) < SETUP_MIN_REPS:
        state = steps = None
        round_setup_s = 0.0
        while round_setup_s < SETUP_ROUND_S or state is None:
            state = None
            gc.collect()
            mark = cal.sample(SETUP_KERNEL_REPS)
            t0 = time.perf_counter()
            state = w.setup(null)
            setup_s.append(time.perf_counter() - t0)
            cal.sample(SETUP_KERNEL_REPS)
            setup_scaled.append(setup_s[-1]
                                * cal.scale(mark, SETUP_KERNEL_REPS))
            round_setup_s += setup_s[-1]
        gc.collect()
        if w.whole_episodes:
            steps = w.episode()
        else:
            round_end = replay.busy_s + seconds / CHURN_ROUNDS
            steps = _while(lambda: replay.busy_s < round_end and budget_left(),
                           w.episode())
        if not replay.run(state, steps, null, cal):
            break
        if w.whole_episodes and first_final is not None:
            if state.reg.snapshot() != first_final:
                # a replayed stream ends in the same graph every time
                replay.errors.append("episode ended in another registry "
                                     "snapshot than the first episode")
                break
        else:
            first_final = _check_final(state, replay, null)
            if replay.errors:
                break

    raw = replay.latencies
    lat = [dt * cal.scale(mark) for dt, mark in zip(raw, replay.marks)]
    metrics: dict[str, float] = {"setup_s": statistics.median(setup_scaled)}
    if len(lat) >= 10:
        metrics["batch_ms_p50"] = statistics.median(lat) * 1e3
        metrics["batch_ms_p90"] = statistics.quantiles(lat, n=10)[8] * 1e3
        metrics["edges_per_s"] = replay.edges / sum(lat)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    print(f"# setup repeated {len(setup_s)} times; {len(lat)} batches "
          f"timed over {replay.busy_s:.3f} s of update time", file=sys.stderr)
    if len(raw) >= 10:
        print(f"# unscaled: setup_s {statistics.median(setup_s):.4f}, "
              f"batch_ms_p50 {statistics.median(raw) * 1e3:.3f}, kernel "
              f"median {statistics.median(cal.samples) * 1e3:.3f} ms against "
              f"the reference {REF_KERNEL_S * 1e3:g} ms", file=sys.stderr)
    return replay, metrics


def _while(cond, it):
    for x in it:
        if not cond():
            return
        yield x


def traced_run(w) -> tuple[Replay, dict[str, float]]:
    from tracing import NullTracer, Tracer, instrument

    steps = None if w.whole_episodes else TRACE_STEPS
    null, tracer = NullTracer(), Tracer()
    # An untraced replay of the same steps gives the overhead base and the
    # snapshot to match. The two replays take turns step by step, so that
    # the machine's drift in speed slows both alike.
    untraced, replay = Replay(), Replay()
    plain = w.setup(null)
    state = w.setup(tracer)
    ok = True
    for plain_step, step in zip(islice(w.episode(), steps),
                                islice(w.episode(), steps)):
        ok = untraced.run(plain, [plain_step], null)
        with instrument(tracer):
            ok = ok and replay.run(state, [step], tracer)
        if not ok:
            break
    if ok:
        snap = _check_final(state, replay, tracer)
        if snap != plain.reg.snapshot():
            replay.errors.append("traced and untraced final snapshots differ")

    secs = tracer.self_seconds()
    metrics = {f"{name}_s": secs.get(name, 0.0) for name in SPAN_METRICS}
    metrics.update({name: tracer.counts[name] for name in COUNT_METRICS})
    cands = tracer.counts["delta.split_candidates"]
    metrics["delta.split_yield"] = (
        tracer.counts["delta.subsumed_cliques"] / cands if cands else 0.0)
    metrics["signatures.registry_size"] = len(state.reg)
    metrics["bench.traced_batches"] = replay.attempted
    metrics["bench.trace_overhead_pct"] = (
        (replay.busy_s / untraced.busy_s - 1) * 100 if untraced.busy_s else 0.0)

    # the result line counts the batches of both replays
    replay.attempted += untraced.attempted
    replay.failed += untraced.failed
    replay.errors[:0] = untraced.errors

    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans_{w.name}_seed{w.seed}.csv"
    tracer.write_csv(span_file)
    print(f"# {len(tracer.spans)} spans written to {span_file}", file=sys.stderr)
    return replay, metrics


UNITS = {"_per_s": "1/s", "_ms_p50": "ms", "_ms_p90": "ms", "_s": "s",
         "_mb": "MB", "_pct": "%", "_yield": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not (SRC / "cliquedelta" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}/cliquedelta",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    if args.trace:
        replay, metrics = traced_run(w)
    else:
        replay, metrics = timed_run(w, args.seconds)

    correct = not replay.errors
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "batches": replay.attempted,
                      "provenance": provenance()}), file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r:>24} {unit_of(name)}", file=sys.stderr)
    for err in replay.errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": replay.attempted,
        "failed": replay.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
