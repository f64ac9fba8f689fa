"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--trace 0|1]

Each run is ``perfbench/run.py`` at its default length, the ``run_seconds``
of BENCHMARK.json, at seeds 1, 2, ...  It prints each run's values as the run ends; then, for
every metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the quartile spread as a share of
the median next to the metric's bound; a spread above a third of the bound
is marked.  With ``--trace 1`` it also reports whether every count
repeated.  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in range(1, args.seeds + 1):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=240)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(doc)
        values = " ".join(f"{name}={m['value']:.6g}"
                          for name, m in doc["metrics"].items())
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']}"
              f" failed={doc['failed']} {values}", flush=True)

    worst = 0.0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            if name != "setup_s":
                worst = max(worst, spread / bound)
            mark = " <-- above a third of the bound" if spread > bound / 3 else ""
        repeat = "" if args.trace == 0 else (
            "  repeats" if len(set(values)) == 1 else "  varies")
        print(f"{name:40s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
              f" spread {spread:.4f}" + (f" bound {bound}" if bound else "")
              + repeat + mark)
    if args.trace == 0:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
