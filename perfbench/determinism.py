"""Check that the benchmark's seed is used and its counts are repeatable.

    python3 perfbench/determinism.py [--seed N]

For every workload: generating the inputs twice from one seed gives the
same digest and the next seed a different one, and two traced runs with one
seed, each in a fresh process, report identical per-layer counts. The exit
code is 1 if any of this fails.
"""

from __future__ import annotations

import argparse
import sys

from provenance import ROOT
from suite import WORKLOAD_NAMES, run_workload


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOAD_NAMES:
        make = WORKLOADS[name]
        digest = make(args.seed).fingerprint()
        same = make(args.seed).fingerprint() == digest
        differs = make(args.seed + 1).fingerprint() != digest
        runs = [run_workload(name, args.seed, 1, trace=1) for _ in range(2)]
        counts = [{k: m["value"] for k, m in r.get("metrics", {}).items()
                   if m["unit"] == "count"} for r in runs]
        repeat = bool(counts[0]) and counts[0] == counts[1]
        correct = all(r["correct"] is True and r["returncode"] == 0 for r in runs)
        print(f"{name}: inputs repeat for a seed: {same}; "
              f"change with the seed: {differs}; "
              f"traced counts repeat: {repeat}; runs correct: {correct}")
        if not repeat:
            for k in sorted(set(counts[0]) | set(counts[1])):
                if counts[0].get(k) != counts[1].get(k):
                    print(f"  {k}: {counts[0].get(k)} != {counts[1].get(k)}")
        ok &= same and differs and repeat and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
