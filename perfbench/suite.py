"""Run every benchmark workload, each in a fresh process, untraced and traced.

    python3 perfbench/suite.py [--seed N] [--seconds S] > results.json

Each workload runs in its own process, because ``peak_rss_mb`` is
process-wide and one workload's heap would otherwise shape the next one's
timings. Every metric is printed to standard error by name and unit; one
JSON document with the provenance and every result goes to standard output.
The exit code is 1 if any run fails a correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from provenance import ROOT, provenance
from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; returns its result line plus its exit code."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    result["returncode"] = proc.returncode
    return result


def main(argv: list[str] | None = None) -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=default_seconds)
    args = p.parse_args(argv)

    results: dict[str, dict] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run_workload(name, args.seed, args.seconds, trace)
            results.setdefault(name, {})[kind] = r
            ok &= r["correct"] is True and r["returncode"] == 0

    for name, kinds in results.items():
        for kind, r in kinds.items():
            print(f"{name} [{kind}] correct={r['correct']} "
                  f"batches={r.get('attempted')} failed={r.get('failed')}",
                  file=sys.stderr)
            for metric, m in r.get("metrics", {}).items():
                print(f"  {metric:32s} {m['value']!r:>24} {m['unit']}",
                      file=sys.stderr)
    json.dump({"provenance": provenance(), "seed": args.seed,
               "seconds": args.seconds, "results": results},
              sys.stdout, indent=1)
    print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
