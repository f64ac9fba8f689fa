"""Op lists and output checks for the workloads that run the weylflow CLI.

Each op is one fresh ``weylflow`` process.  Its inputs come from the
workload seed alone; its check reads only what the process left behind
(exit code, stdout, stderr, the file named by ``--out``) and judges it by
invariants, so any seed can be checked.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Optional

REFERENCE = Path(__file__).resolve().parent / "reference"
SYSTEMS = ("A4_2", "A1_1", "PDE_A1_1")
GUARD_MESSAGE = "singularity guard triggered; trajectory is partial"


@dataclass
class Outcome:
    """What one op process left behind."""
    code: Optional[int]          # None when the op was killed or not run
    stdout: bytes
    stderr: bytes
    out_text: Optional[str]      # the --out file, for integrate


@dataclass
class Op:
    name: str
    argv: list[str]
    # check(outcome, earlier) -> error or None; ``earlier`` is a dict shared
    # by the checks of one pass, for checks that compare two ops
    check: Callable[[Outcome, dict], Optional[str]]
    out_file: Optional[str] = None
    # the report recorded at the reference commit, where one exists
    reference: Optional[bytes] = None


def _abnormal_end(outcome: Outcome) -> Optional[str]:
    if b"Traceback (most recent call last)" in outcome.stderr:
        last = outcome.stderr.strip().splitlines()[-1].decode(errors="replace")
        return f"traceback: {last[:160]}"
    if outcome.code is None:
        return "killed at the per-op deadline"
    return None


def _json_report(outcome: Outcome) -> tuple[Optional[dict], Optional[str]]:
    try:
        return json.loads(outcome.stdout), None
    except ValueError as exc:
        return None, f"stdout is not a JSON report: {exc}"


# ---------------------------------------------------------------------------
# verify


def _reference_report(kind: str, system_id: str) -> bytes:
    return (REFERENCE / f"{kind}_{system_id}.json").read_bytes()


def verify_ops(seed: int) -> list[Op]:
    rng = random.Random(f"verify-{seed}")
    ops = []
    for system_id in SYSTEMS:
        program_seed = rng.randrange(1_000_000)
        recorded = _reference_report("verify", system_id)
        names = [c["name"] for c in json.loads(recorded)["checks"]]
        # the recorded report is for --seed 0; a report differs from it only
        # in the echoed seed
        expected = recorded.replace(b'"seed": 0,',
                                    f'"seed": {program_seed},'.encode(), 1)

        def check(outcome, earlier, names=names, program_seed=program_seed):
            err = _abnormal_end(outcome)
            if err:
                return err
            if outcome.code != 0:
                return f"exit code {outcome.code}, expected 0"
            doc, err = _json_report(outcome)
            if err:
                return err
            if doc.get("passed") is not True:
                failed = [c["name"] for c in doc["checks"] if not c["passed"]]
                return f"checks failed: {failed}"
            if doc.get("seed") != program_seed:
                return f"report echoes seed {doc.get('seed')}"
            got = [c["name"] for c in doc["checks"]]
            if got != names:
                return "check names differ from the recorded list"
            return None

        ops.append(Op(f"verify-{system_id}",
                      ["verify", system_id, "all", "--seed", str(program_seed)],
                      check, reference=expected))
    return ops


# ---------------------------------------------------------------------------
# ansatz

_DENOMINATORS = (7, 11, 13, 17, 19, 23)


def _generic_alpha(rng: random.Random, system_id: str) -> dict[str, F]:
    """A point on the system's parameter relation with no zero coordinate."""
    def draw() -> F:
        q = rng.choice(_DENOMINATORS)
        return F(rng.choice([-1, 1]) * rng.randint(1, q - 1), q)

    while True:
        if system_id == "A4_2":            # a0 + 2 a1 + 2 a2 = 1
            a1, a2 = draw(), draw()
            alpha = {"a0": 1 - 2 * a1 - 2 * a2, "a1": a1, "a2": a2}
        elif system_id == "A1_1":          # a0 + a1 = 1
            a0 = draw()
            alpha = {"a0": a0, "a1": 1 - a0}
        else:                              # a0 + a1 = 0
            a0 = draw()
            alpha = {"a0": a0, "a1": -a0}
        if all(alpha.values()):
            return alpha


def _ansatz_check(system_id: str, alpha: Optional[dict]):
    """Check one ansatz report; the default-sample op (``alpha`` None)
    records its nullspace dimension, the generic-sample op must match it."""
    key = f"dims-{system_id}"

    def check(outcome, earlier):
        err = _abnormal_end(outcome)
        if err:
            return err
        doc, err = _json_report(outcome)
        if err:
            return err
        if doc.get("consistent") is not True:
            return "constraint system is inconsistent"
        if not doc.get("membership") or not all(doc["membership"].values()):
            return f"membership failed: {doc.get('membership')}"
        if outcome.code != 0:
            return f"exit code {outcome.code}, expected 0"
        dims = doc.get("nullspace_dimension")
        if alpha is None:
            earlier[key] = dims
            return None
        if doc.get("alpha") != {k: str(v) for k, v in alpha.items()}:
            return f"report echoes alpha {doc.get('alpha')}"
        if dims != earlier.get(key):
            return (f"nullspace dimension {dims} differs from "
                    f"{earlier.get(key)} at the default sample")
        return None
    return check


def ansatz_ops(seed: int) -> list[Op]:
    rng = random.Random(f"ansatz-{seed}")
    ops = []
    for system_id in SYSTEMS:
        alpha = _generic_alpha(rng, system_id)
        alpha_arg = ",".join(f"{k}={v}" for k, v in alpha.items())
        ops.append(Op(f"ansatz-{system_id}-default", ["ansatz", system_id],
                      _ansatz_check(system_id, None),
                      reference=_reference_report("ansatz", system_id)))
        ops.append(Op(f"ansatz-{system_id}-generic",
                      ["ansatz", system_id, "--alpha", alpha_arg],
                      _ansatz_check(system_id, alpha)))
    return ops


# ---------------------------------------------------------------------------
# integrate

PDE_PARAMS = "a0=1/2,a1=-1/2"
PDE_START = {"q1": 1, "p1": 1, "q2": 1, "p2": 1}
SINGLE_START = {"x": 1, "y": 0, "z": 1, "w": 1}
SINGLE_PARAMS = {"A4_2": "a0=1/3,a1=1/5,a2=2/15", "A1_1": "a0=1/3,a1=2/3"}
RK4_STEP = "1e-4"
SPAN_END = 1.0


def _read_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _interpolate(rows: list[list[float]], t: float, width: int) -> list[float]:
    """Cubic Lagrange interpolation of columns 1..width on a time grid."""
    lo, hi = 0, len(rows) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rows[mid][0] <= t:
            lo = mid
        else:
            hi = mid
    start = min(max(lo - 1, 0), max(len(rows) - 4, 0))
    pts = rows[start:start + 4]
    out = []
    for col in range(1, width + 1):
        total = 0.0
        for i, pi in enumerate(pts):
            weight = 1.0
            for j, pj in enumerate(pts):
                if j != i:
                    weight *= (t - pj[0]) / (pi[0] - pj[0])
            total += weight * pi[col]
        out.append(total)
    return out


def _integrate_check(system_id: str, start: dict, compare: bool):
    """Completed runs conserve K1-K3 and, with ``compare``, agree with the
    rk4 run of the same system earlier in the pass; guard-stopped runs exit
    1 with the guard message and a partial trajectory."""
    n_state = len(start)
    key = f"rows-{system_id}"

    def check(outcome, earlier):
        err = _abnormal_end(outcome)
        if err:
            return err
        if outcome.out_text is None:
            return "no trajectory file"
        try:
            header, rows = _read_csv(outcome.out_text)
        except (ValueError, IndexError) as exc:
            return f"unreadable trajectory: {exc}"
        if len(rows) < 2:
            return f"trajectory has {len(rows)} rows"
        first = rows[0][1:1 + n_state]
        if any(abs(a - float(b)) > 1e-15 * max(1.0, abs(a))
               for a, b in zip(first, start.values())):
            return "first row is not the initial state"
        end = rows[-1][0]
        if outcome.code == 1:
            if GUARD_MESSAGE.encode() not in outcome.stderr:
                return "exit 1 without the guard message"
            if not end < SPAN_END - 1e-9:
                return "guard-stopped trajectory reaches the span end"
            return None
        if outcome.code != 0:
            return f"exit code {outcome.code}"
        if abs(end - SPAN_END) > 1e-9:
            return f"trajectory ends at t={end!r}, not {SPAN_END}"
        if any(not math.isfinite(v) for row in rows for v in row):
            return "non-finite value in a completed trajectory"
        for k, name in enumerate(header):
            if name.startswith("K"):
                values = [row[k] for row in rows]
                drift = max(abs(v - values[0]) for v in values) / max(1.0, abs(values[0]))
                if not drift <= 1e-6:
                    return f"{name} drift {drift:.3g} > 1e-6"
        if compare:
            other = earlier.get(key)
            if other is None:
                return "no completed rk4 run to compare with"
            worst = 0.0
            for row in rows:
                if row[0] > other[-1][0]:
                    break
                ref = _interpolate(other, row[0], n_state)
                for a, b in zip(row[1:1 + n_state], ref):
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
            if not worst <= 1e-6:
                return f"rk4 and rk45 differ by {worst:.3g} at shared times"
        else:
            earlier[key] = rows
        return None
    return check


def _integrate_op_list(work: Path, specs) -> list[Op]:
    ops = []
    for name, system_id, tsym, start, params, method, compare in specs:
        out_file = str(work / f"{name}.csv")
        argv = ["integrate", "--system", system_id, "--time", tsym,
                "--initial", ",".join(f"{k}={v}" for k, v in start.items()),
                "--params", params, "--span", f"0:{SPAN_END:g}",
                "--method", method, "--out", out_file]
        if method == "rk4":
            argv += ["--step", RK4_STEP]
        ops.append(Op(name, argv, _integrate_check(system_id, start, compare),
                      out_file=out_file))
    return ops


def integrate_ops(seed: int, work: Path) -> list[Op]:
    rng = random.Random(f"integrate-{seed}")

    def near(state: dict) -> dict:
        return {k: F(v) + F(rng.randint(-5, 5), 1000) for k, v in state.items()}

    pde, a42, a11 = near(PDE_START), near(SINGLE_START), near(SINGLE_START)
    a42_params, a11_params = SINGLE_PARAMS["A4_2"], SINGLE_PARAMS["A1_1"]
    return _integrate_op_list(work, [
        # name, system, time, start, params, method, compare with rk4
        ("PDE-t1-rk4", "PDE_A1_1", "t1", pde, PDE_PARAMS, "rk4", False),
        ("PDE-t1-rk45", "PDE_A1_1", "t1", pde, PDE_PARAMS, "rk45", False),
        ("PDE-t2-rk4", "PDE_A1_1", "t2", pde, PDE_PARAMS, "rk4", False),
        ("PDE-t2-rk45", "PDE_A1_1", "t2", pde, PDE_PARAMS, "rk45", False),
        ("A4_2-rk4", "A4_2", "t", a42, a42_params, "rk4", False),
        ("A1_1-rk4", "A1_1", "t", a11, a11_params, "rk4", False),
        ("A1_1-rk45", "A1_1", "t", a11, a11_params, "rk45", True),
    ])


def pole_probe_ops(work: Path) -> list[Op]:
    """The two runs that show the known integrator defects, at the standard
    states (a perturbed t3 start can step past the pole with its first
    integrals intact).  They stay out of the timed op list."""
    return _integrate_op_list(work, [
        ("probe-A4_2-rk45", "A4_2", "t", SINGLE_START, SINGLE_PARAMS["A4_2"],
         "rk45", False),
        ("probe-PDE-t3-rk4", "PDE_A1_1", "t3", PDE_START, PDE_PARAMS, "rk4",
         False),
    ])
