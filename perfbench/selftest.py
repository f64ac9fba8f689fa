"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at minimum length, timed and traced, and checks that
the last line of each run is a result with every metric that BENCHMARK.json
names, with its unit, and with every op's output correct, and that the
tracer wrapped every entry point it names in every traced process.  Then
checks that
the benchmark exits with an error, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Run it from the
root of the checkout; it takes a few minutes.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def last_json_line(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}"]
    doc = last_json_line(proc.stdout)
    if not isinstance(doc, dict):
        return [f"{where}: last line is not a JSON object"]
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(doc)}")
    if doc.get("correct") is not True or doc.get("failed") != 0:
        problems.append(f"{where}: correct={doc.get('correct')} "
                        f"failed={doc.get('failed')}")
    if not isinstance(doc.get("attempted"), int) or doc["attempted"] < 1:
        problems.append(f"{where}: attempted={doc.get('attempted')}")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = doc.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        missing = {m["name"] for m in expected} - set(metrics)
        extra = set(metrics) - {m["name"] for m in expected}
        problems.append(f"{where}: missing {sorted(missing)} extra {sorted(extra)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"),
                                                          numbers.Real):
            problems.append(f"{where}: {m['name']} reads {got}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{where}: {m['name']} is {got['value']}")
    if trace:
        for path in sorted((ROOT / ".perfbench_work" / "trace" / workload)
                           .glob("*.json")):
            missing = json.loads(path.read_text())["missing"]
            if missing:
                problems.append(f"{where}: {path.name} lacks {missing}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the program's sources the benchmark must refuse to run."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json_line(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout "
                f"{proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    for p in problems:
        print(p)
    print("self-test", "passed" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
