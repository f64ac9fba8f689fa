"""The weylflow benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to the ``run_seconds`` of BENCHMARK.json.

Run from the root of a checkout; ``src/weylflow`` is imported from there.
Workloads (see README.md for why each exists):

  verify     one fresh ``weylflow verify <sys> all`` process per system
  ansatz     one fresh ``weylflow ansatz`` process per system and sample
  integrate  one fresh ``weylflow integrate`` process per flow and method

Load is closed loop: one client, one op at a time, the next op starts when
the previous one has ended.  ``--trace 0`` measures and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass of
a fixed size and prints the per-layer metrics.  Every op's output is
checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))
import cli_ops  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("verify", "ansatz", "integrate")
DEFAULT_SEED = 0
# A CLI op that runs longer than this is killed and counted as failed; the
# slowest op at the reference commit takes under 5 s.  rk45 through the
# unguarded t3 pole of PDE_A1_1 ran for minutes, so it is in no op list.
OP_DEADLINE_S = 60.0
TRACED_DEADLINE_FACTOR = 4
# No op starts later than this after the run began, so a run whose ops
# stall still ends well within three minutes.
RUN_BUDGET_S = 150.0
SETUP_SAMPLES = 3


@dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    rss_mb: float
    error: Optional[str]
    rows: int = 0                        # trajectory rows written
    identical: Optional[bool] = None     # report bytes equal the recorded ones


class SetupError(RuntimeError):
    pass


class Clock:
    """Run-wide time budget."""

    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)


# ---------------------------------------------------------------------------
# child processes


def bench_env() -> dict:
    """The environment of every Python process of the benchmark: fixed
    hash seed, weylflow's numeric defaults, and bytecode caches that are
    written, inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WEYLFLOW_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


def spawn(argv: list[str], deadline: float, stdout_path: Path,
          stderr_path: Path) -> tuple[Optional[int], float, float, float]:
    """Run argv to completion or until the deadline, then reap it.

    Returns (exit code or None if killed, wall s, cpu s, peak RSS MB), the
    CPU and RSS read from the child's own ``wait4`` rusage.
    """
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=dict(bench_env(), PYTHONPATH=str(SRC)),
                                cwd=ROOT)

        def kill():
            with lock:
                if not state["done"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(max(deadline, 0.0), kill)
        timer.start()
        try:
            # wait without reaping, so that kill() can never hit a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["done"] = True
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    cpu = usage.ru_utime + usage.ru_stime
    return (None if state["killed"] else code), wall, cpu, usage.ru_maxrss / 1024


def run_cli_op(op: cli_ops.Op, earlier: dict, clock: Clock,
               trace_file: Optional[Path] = None) -> OpResult:
    if clock.left() <= 0:
        return OpResult(op.name, 0.0, 0.0, 0.0, "run time budget exhausted")
    if op.out_file:
        Path(op.out_file).unlink(missing_ok=True)
    if trace_file is None:
        argv = [sys.executable, "-m", "weylflow", *op.argv]
        deadline = OP_DEADLINE_S
    else:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file),
                *op.argv]
        deadline = OP_DEADLINE_S * TRACED_DEADLINE_FACTOR
    # an op started near the end of the budget is cut off soon after it
    deadline = min(deadline, clock.left() + 20.0)
    stdout_path = WORK / "op.stdout"
    stderr_path = WORK / "op.stderr"
    code, wall, cpu, rss = spawn(argv, deadline, stdout_path, stderr_path)
    out_text = None
    if op.out_file and Path(op.out_file).is_file():
        out_text = Path(op.out_file).read_text()
    outcome = cli_ops.Outcome(code, stdout_path.read_bytes(),
                              stderr_path.read_bytes(), out_text)
    try:
        error = op.check(outcome, earlier)
    except Exception as exc:  # a malformed output must fail the op, not the run
        error = f"check raised {type(exc).__name__}: {exc}"
    rows = 0
    if error is None and out_text:
        rows = out_text.count("\n") - 1
    identical = None if op.reference is None else outcome.stdout == op.reference
    return OpResult(op.name, wall, cpu, rss, error, rows, identical)


def cli_pass(ops: list[cli_ops.Op], clock: Clock,
             trace_dir: Optional[Path] = None) -> list[OpResult]:
    earlier: dict = {}
    return [run_cli_op(op, earlier, clock,
                       trace_dir / f"{op.name}.json" if trace_dir else None)
            for op in ops]


def cli_setup_s(samples: int) -> float:
    """Median wall time of a fresh interpreter running ``import weylflow``,
    after one warm-up that leaves the bytecode caches in place."""
    argv = [sys.executable, "-c", "import weylflow"]
    times = []
    for k in range(samples + 1):
        code, wall, _, _ = spawn(argv, OP_DEADLINE_S, WORK / "setup.stdout",
                                 WORK / "setup.stderr")
        if code != 0:
            raise SetupError("import weylflow failed: "
                             + (WORK / "setup.stderr").read_text()[-400:])
        if k:
            times.append(wall)
    return statistics.median(times)


def trajectory_dir() -> Path:
    out = WORK / "trajectories"
    out.mkdir(exist_ok=True)
    return out


def cli_ops_for(workload: str, seed: int) -> list[cli_ops.Op]:
    if workload == "verify":
        return cli_ops.verify_ops(seed)
    if workload == "ansatz":
        return cli_ops.ansatz_ops(seed)
    return cli_ops.integrate_ops(seed, trajectory_dir())


# ---------------------------------------------------------------------------
# metrics


def tail(results: list[OpResult]) -> tuple[float, str, int]:
    """The largest over the op list of each op's upper quartile of wall
    time, with that op's name and sample count.  A run holds too few ops
    (tens) for a percentile with ten samples above it, and the largest of
    them all would be a single sample."""
    by_name: dict[str, list[float]] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r.wall)
    quartiles = []
    for name, walls in by_name.items():
        q3 = (statistics.quantiles(walls, n=4, method="inclusive")[2]
              if len(walls) > 1 else walls[0])
        quartiles.append((q3, name, len(walls)))
    return max(quartiles)


def per_op_medians(results: list[OpResult], attr: str) -> list[float]:
    """Each op's median over the run, one value per op of the op list, so
    that a pass cut short by the end of the run does not shift the mix."""
    by_name: dict[str, list[float]] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(getattr(r, attr))
    return [statistics.median(v) for v in by_name.values()]


def per_op_median_sum(results: list[OpResult], attr: str) -> float:
    """One pass over the op list, robustly."""
    return sum(per_op_medians(results, attr))


def end_to_end(results: list[OpResult], setup_s: float,
               rss_mb: float) -> tuple[dict, str]:
    ran = [r for r in results if r.wall > 0]
    tail_s, tail_op, n = tail(ran)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (per_op_median_sum(ran, "wall"), "s"),
        "op_p50_s": (statistics.median(per_op_medians(ran, "wall")), "s"),
        "op_tail_s": (tail_s, "s"),
        "cpu_s": (per_op_median_sum(ran, "cpu"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, (f"op_tail_s is the upper quartile of {tail_op} over {n} runs "
        f"of it; {len(ran)} ops in all")


def steps_per_s(results: list[OpResult]) -> float:
    done = [r for r in results if r.error is None and r.rows]
    wall = sum(r.wall for r in done)
    return sum(r.rows for r in done) / wall if wall else 0.0


def report_identity(results: list[OpResult]) -> tuple[float, int]:
    compared = [r.identical for r in results if r.identical is not None]
    return (sum(compared) / len(compared) if compared else 0.0), len(compared)


# ---------------------------------------------------------------------------
# runs


def timed_run(workload: str, seed: int, seconds: float):
    clock = Clock()
    setup_s = cli_setup_s(SETUP_SAMPLES)
    ops = cli_ops_for(workload, seed)
    results = cli_pass(ops, clock)
    last = {r.name: r.wall for r in results}
    start = time.perf_counter() - sum(last.values())
    # keep cycling through the op list, in order, while the next op is
    # expected to end within the run
    k = 0
    while clock.left() > 0:
        op = ops[k % len(ops)]
        if time.perf_counter() - start + last[op.name] > seconds:
            break
        if k % len(ops) == 0:
            earlier = {}
        result = run_cli_op(op, earlier, clock)
        last[op.name] = result.wall
        results.append(result)
        k += 1
    metrics, note = end_to_end(results, setup_s,
                               max(r.rss_mb for r in results))
    notes = [note, f"failed_ratio {failed_ratio(results):.4g}"]
    if workload == "integrate":
        notes.append(f"steps_per_s {steps_per_s(results):.6g} rows/s")
    share, compared = report_identity(results)
    if compared:
        notes.append(f"report bytes identical in {share:.4g} of {compared}")
    return results, metrics, notes


def failed_ratio(results: list[OpResult]) -> float:
    return sum(r.error is not None for r in results) / len(results)


def traced_run(workload: str, seed: int):
    clock = Clock()
    trace_dir = WORK / "trace" / workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    cli_setup_s(1)                         # warms the bytecode caches
    ops = cli_ops_for(workload, seed)
    untraced = cli_pass(ops, clock)
    traced = cli_pass(ops, clock, trace_dir)
    snaps = []
    for op, r in zip(ops, traced):
        path = trace_dir / f"{op.name}.json"
        if not path.is_file():
            r.error = r.error or "the traced process wrote no spans"
            continue
        snap = json.loads(path.read_text())
        if snap["missing"]:
            # a renamed entry point must not read as a layer doing no work
            r.error = r.error or ("the tracer found no "
                                  + ", ".join(snap["missing"]))
        snaps.append(snap)
    results = untraced + traced
    overhead = (per_op_median_sum(traced, "wall")
                - per_op_median_sum(untraced, "wall"))
    share, compared = report_identity(results)
    extra = {"cli.report_bytes_identical": share,
             "cli.reports_compared": compared,
             "e2e.steps_per_s": steps_per_s(untraced),
             "numerics.pole_probe_failures": 0}
    if workload == "integrate":
        probes = cli_pass(cli_ops.pole_probe_ops(trajectory_dir()), clock)
        extra["numerics.pole_probe_failures"] = sum(r.error is not None
                                                    for r in probes)
        for r in probes:
            print(f"pole probe {r.name}: {r.error or 'passed'}")
    total = tracing.merge(snaps)
    for key in ("import_s", "scipy_import_s"):
        total[key] = statistics.median(s[key] for s in snaps) if snaps else 0.0
    values = tracing.layer_metrics(total)
    values.update(extra)
    values["trace.overhead_s"] = overhead
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in values.items()}
    notes = [f"traced pass minus untraced pass: {overhead:.4g} s",
             f"spans written to {trace_dir.relative_to(ROOT)}"]
    return results, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "weylflow" / "__init__.py").is_file():
        sys.stderr.write(f"no weylflow sources under {SRC}; run from the root "
                         "of a weylflow checkout\n")
        return 2
    WORK.mkdir(exist_ok=True)

    try:
        if args.trace:
            results, metrics, notes = traced_run(args.workload, args.seed)
        else:
            results, metrics, notes = timed_run(args.workload, args.seed,
                                                args.seconds)
    except SetupError as exc:
        sys.stderr.write(f"set-up failed: {exc}\n")
        return 1

    for r in results:
        if r.error is not None:
            print(f"FAILED {r.name}: {r.error}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    failed = sum(r.error is not None for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
