"""Floating-point evaluation, ODE integration, and the numerical test battery.

The symbolic layer owns correctness; this layer owns behavior: compiled
evaluators for rational expressions, fixed-step rk4 (with cubic-Hermite
dense output) and adaptive rk45 (scipy, with its embedded interpolant),
singularity guards near denominator zeros, first-integral and divisor
diagnostics, Backlund solution transport, and residuals of the scalar
fourth-order reduction along trajectories.

Tolerance defaults can be overridden through environment variables:
WEYLFLOW_GUARD_EPS (integration denominator guard), WEYLFLOW_SKIP_EPS
(residual singular-locus skip), WEYLFLOW_ATOL / WEYLFLOW_RTOL (rk45).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from scipy.integrate import solve_ivp

from . import exprtext, flows, weyl
from .catalog import HamiltonianSystem, build_system
from .symkernel import (DYNAMICAL, PARAMETER, Polynomial, RationalExpr,
                        Scalar, SymbolError, VarTable)

GUARD_EPS_DEFAULT = 1e-10
SKIP_EPS_DEFAULT = 1e-6
ATOL_DEFAULT = 1e-12
RTOL_DEFAULT = 1e-12


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def guard_eps() -> float:
    return _env_float("WEYLFLOW_GUARD_EPS", GUARD_EPS_DEFAULT)


def skip_eps() -> float:
    return _env_float("WEYLFLOW_SKIP_EPS", SKIP_EPS_DEFAULT)


def default_atol() -> float:
    return _env_float("WEYLFLOW_ATOL", ATOL_DEFAULT)


def default_rtol() -> float:
    return _env_float("WEYLFLOW_RTOL", RTOL_DEFAULT)


class SingularityAbort(RuntimeError):
    """Integration stopped by the denominator-proximity guard."""


# ---------------------------------------------------------------------------
# compiled evaluators


def _compile_polynomial(p: Polynomial) -> str:
    """Emit an expression string; power subterms are hoisted by the caller."""
    if p.is_zero():
        return "0.0"
    pieces = []
    for e in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = float(p.terms[e])
        factors = [repr(c)]
        for i, power in enumerate(e):
            if not power:
                continue
            name = p.table.names[i]
            factors.append(name if power == 1 else f"_{name}_{power}")
        pieces.append("*".join(factors))
    return " + ".join(pieces)


class Evaluator:
    """A RationalExpr compiled to a double-precision function.

    Arguments follow ``arg_names`` (default: the full table order).  Powers
    of each input are computed once per call and shared between terms;
    coefficients are folded to double constants.
    """

    def __init__(self, expr: RationalExpr | Polynomial,
                 arg_names: Optional[Sequence[str]] = None):
        if isinstance(expr, Polynomial):
            expr = RationalExpr.from_polynomial(expr)
        self.expr = expr
        table = expr.table
        self.arg_names = tuple(arg_names) if arg_names is not None else table.names
        missing = expr.symbols() - set(self.arg_names)
        if missing:
            raise ValueError(f"expression uses symbols outside arg list: {missing}")
        maxpow: dict[str, int] = {}
        for poly in (expr.num, expr.den):
            for e in poly.terms:
                for i, power in enumerate(e):
                    if power >= 2:
                        name = table.names[i]
                        maxpow[name] = max(maxpow.get(name, 0), power)
        def power_lines() -> list[str]:
            out = []
            for name in sorted(maxpow):
                for power in range(2, maxpow[name] + 1):
                    out.append(f"    _{name}_{power} = _{name}_{power-1} * {name}"
                               if power > 2 else f"    _{name}_2 = {name} * {name}")
            return out

        lines = [f"def _eval({', '.join(self.arg_names)}):"] + power_lines()
        num_src = _compile_polynomial(expr.num)
        self.trivial_den = expr.den.is_constant()
        if self.trivial_den:
            scale = float(expr.den.constant_value())
            if scale == 1.0:
                lines.append(f"    return {num_src}")
            else:
                lines.append(f"    return ({num_src}) / {scale!r}")
        else:
            lines.append(f"    return ({num_src}) / ({_compile_polynomial(expr.den)})")
        namespace: dict = {}
        exec(compile("\n".join(lines), "<evaluator>", "exec"), namespace)
        self._fn = namespace["_eval"]
        if not self.trivial_den:
            den_lines = [f"def _den({', '.join(self.arg_names)}):"] + power_lines()
            den_lines.append(f"    return {_compile_polynomial(expr.den)}")
            ns2: dict = {}
            exec(compile("\n".join(den_lines), "<evaluator-den>", "exec"), ns2)
            self._den_fn = ns2["_den"]
        else:
            self._den_fn = None

    def __call__(self, *args: float) -> float:
        return self._fn(*args)

    def denominator(self, *args: float) -> float:
        if self._den_fn is None:
            return 1.0
        return self._den_fn(*args)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    system_id: str
    time_symbol: str
    var_names: tuple[str, ...]
    times: list[float]
    states: list[tuple[float, ...]]
    params: dict[str, Fraction]
    method: str
    meta: dict
    diagnostics: dict[str, list[float]] = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    dense: Optional[Callable[[float], tuple[float, ...]]] = None

    @property
    def singular_abort(self) -> bool:
        return bool(self.flags.get("singular_abort"))

    def state_at(self, t: float) -> tuple[float, ...]:
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        return self.dense(t)


class _FieldRuntime:
    """Compiled field components plus guard denominators for one flow."""

    def __init__(self, table: VarTable, time_symbol: str,
                 components: Sequence[tuple[str, RationalExpr]],
                 params: Mapping[str, Fraction]):
        self.table = table
        self.time_symbol = time_symbol
        self.var_names = tuple(n for n, _ in components)
        self.evaluators = [Evaluator(e) for _, e in components]
        seen: list[Evaluator] = []
        for ev in self.evaluators:
            if not ev.trivial_den:
                seen.append(ev)
        self.guards = seen
        self.param_floats = {n: float(v) for n, v in params.items()}
        self.arg_index = {n: i for i, n in enumerate(table.names)}

    def arg_vector(self, t: float, y: Sequence[float]) -> list[float]:
        args = [0.0] * len(self.table.names)
        for name, value in zip(self.var_names, y):
            args[self.arg_index[name]] = value
        for name, value in self.param_floats.items():
            args[self.arg_index[name]] = value
        if self.time_symbol in self.arg_index:
            args[self.arg_index[self.time_symbol]] = t
        return args

    def min_denominator(self, t: float, y: Sequence[float]) -> float:
        if not self.guards:
            return math.inf
        args = self.arg_vector(t, y)
        return min(abs(g.denominator(*args)) for g in self.guards)

    def __call__(self, t: float, y: Sequence[float]) -> list[float]:
        args = self.arg_vector(t, y)
        return [ev(*args) for ev in self.evaluators]


def _hermite_dense(times: list[float], states: list[tuple[float, ...]],
                   derivs: list[list[float]]) -> Callable[[float], tuple[float, ...]]:
    def interp(t: float) -> tuple[float, ...]:
        if not times:
            raise ValueError("empty trajectory")
        if t <= times[0]:
            k = 0
        elif t >= times[-1]:
            k = len(times) - 2
        else:
            lo, hi = 0, len(times) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if times[mid] <= t:
                    lo = mid
                else:
                    hi = mid
            k = lo
        if len(times) == 1:
            return states[0]
        h = times[k + 1] - times[k]
        s = (t - times[k]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        y0, y1 = states[k], states[k + 1]
        f0, f1 = derivs[k], derivs[k + 1]
        return tuple(h00 * a + h * h10 * fa + h01 * b + h * h11 * fb
                     for a, fa, b, fb in zip(y0, f0, y1, f1))
    return interp


def _integrate_runtime(runtime: _FieldRuntime, y0: Sequence[float],
                       span: tuple[float, float], method: str,
                       step: Optional[float], atol: float, rtol: float,
                       guard: float) -> tuple[list[float], list[tuple[float, ...]],
                                              Optional[Callable], dict]:
    t0, t1 = span
    flags: dict = {"singular_abort": False, "abort_time": None}
    if t1 == t0:
        y = tuple(float(v) for v in y0)
        return [t0], [y], (lambda t: y), flags

    if method == "rk4":
        if not step or step <= 0:
            raise ValueError("rk4 requires a positive step")
        n = max(1, round(abs(t1 - t0) / step))
        h = (t1 - t0) / n
        times = [t0]
        states = [tuple(float(v) for v in y0)]
        derivs = [runtime(t0, y0)]
        y = list(map(float, y0))
        t = t0
        for _ in range(n):
            if runtime.min_denominator(t, y) < guard:
                flags.update(singular_abort=True, abort_time=t)
                break
            k1 = runtime(t, y)
            k2 = runtime(t + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
            k3 = runtime(t + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
            k4 = runtime(t + h, [a + h * b for a, b in zip(y, k3)])
            y = [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            t += h
            if any(not math.isfinite(v) for v in y):
                flags.update(singular_abort=True, abort_time=t)
                break
            times.append(t)
            states.append(tuple(y))
            derivs.append(runtime(t, y))
        dense = _hermite_dense(times, states, derivs)
        return times, states, dense, flags

    if method == "rk45":
        events = None
        if runtime.guards:
            def guard_event(t, y):
                return runtime.min_denominator(t, y) - guard
            guard_event.terminal = True
            events = [guard_event]
        sol = solve_ivp(lambda t, y: runtime(t, y), (t0, t1), list(map(float, y0)),
                        method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=events)
        if sol.status == 1:
            flags.update(singular_abort=True,
                         abort_time=float(sol.t[-1]) if len(sol.t) else t0)
        elif sol.status != 0:
            raise SingularityAbort(sol.message)
        times = [float(t) for t in sol.t]
        states = [tuple(float(v) for v in sol.y[:, i]) for i in range(len(times))]
        dense = (lambda t: tuple(float(v) for v in sol.sol(t)))
        return times, states, dense, flags

    raise ValueError(f"unknown integration method {method!r}")


def integrate(sys: HamiltonianSystem, time_symbol: str,
              initial: Mapping[str, Scalar], params: Mapping[str, Scalar],
              span: tuple[float, float], method: str = "rk45",
              step: Optional[float] = None, atol: Optional[float] = None,
              rtol: Optional[float] = None) -> Trajectory:
    """Integrate one flow of a catalog system with diagnostics.

    ``initial`` binds every dynamical symbol and may bind time symbols
    (ignored); any other name raises SymbolError.  Diagnostics carry the
    value of every Hamiltonian of the system and of every invariant
    divisor at each sample.  The denominator-proximity guard aborts with a
    partial, flagged trajectory near singular loci.
    """
    from .catalog import ParameterValues

    pv = ParameterValues.make(sys.id, params)
    for name in initial:
        if sys.table.class_of(name) == PARAMETER:
            raise SymbolError(f"parameter {name!r} in the initial state")
    missing = [n for n in sys.table.symbols(DYNAMICAL) if n not in initial]
    if missing:
        raise SymbolError(f"initial state leaves {', '.join(missing)} unbound")
    field_sym = flows.hamiltonian_vector_field(sys, time_symbol)
    runtime = _FieldRuntime(sys.table, time_symbol, field_sym.components,
                            pv.as_dict())
    y0 = [float(Fraction(initial[n])) for n in runtime.var_names]
    times, states, dense, flags = _integrate_runtime(
        runtime, y0, span, method, step,
        atol if atol is not None else default_atol(),
        rtol if rtol is not None else default_rtol(), guard_eps())

    diag_exprs: list[tuple[str, Evaluator]] = []
    for tsym, ham in sys.hamiltonians:
        diag_exprs.append((sys.hamiltonian_name(tsym), Evaluator(ham)))
    for i, (f, _) in enumerate(sys.divisors):
        diag_exprs.append((f"f{i}", Evaluator(f)))
    diagnostics: dict[str, list[float]] = {name: [] for name, _ in diag_exprs}
    for t, y in zip(times, states):
        args = runtime.arg_vector(t, y)
        for name, ev in diag_exprs:
            diagnostics[name].append(ev(*args))

    return Trajectory(sys.id, time_symbol, runtime.var_names, times, states,
                      pv.as_dict(), method,
                      {"step": step, "atol": atol, "rtol": rtol, "span": list(span)},
                      diagnostics, flags, dense)


def first_integral_drift(traj: Trajectory) -> dict[str, float]:
    """max |K(t) - K(0)| / max(1, |K(0)|) per conserved diagnostic."""
    out = {}
    for name, values in traj.diagnostics.items():
        if not name.startswith("K") and name != "H":
            continue
        base = values[0]
        scale = max(1.0, abs(base))
        out[name] = max(abs(v - base) for v in values) / scale
    return out


# ---------------------------------------------------------------------------
# numerical test battery


def path_commutation_check(initial: Mapping[str, Scalar],
                           params: Mapping[str, Scalar], delta: float = 0.1,
                           order: tuple[int, int] = (1, 2),
                           tol: float = 1e-12) -> float:
    """Endpoint discrepancy of flowing t_i then t_j versus t_j then t_i."""
    sys = build_system("PDE_A1_1")
    i, j = order
    ti, tj = f"t{i}", f"t{j}"

    def flow(time_symbol: str, state: Mapping[str, Scalar]) -> dict[str, float]:
        traj = integrate(sys, time_symbol, state, params, (0.0, delta),
                         method="rk45", atol=tol, rtol=tol)
        if traj.singular_abort:
            raise SingularityAbort(f"guard triggered along {time_symbol}")
        return dict(zip(traj.var_names, traj.states[-1]))

    end_ij = flow(tj, flow(ti, initial))
    end_ji = flow(ti, flow(tj, initial))
    return max(abs(end_ij[n] - end_ji[n]) for n in end_ij)


@dataclass(frozen=True)
class TransportReport:
    system_id: str
    generator: str
    sup_error: float
    samples: int
    flagged: bool

    def as_dict(self) -> dict:
        return {"system": self.system_id, "generator": self.generator,
                "sup_error": self.sup_error, "samples": self.samples,
                "flagged": self.flagged}


def backlund_solution_check(sys: HamiltonianSystem, generator: str,
                            initial: Mapping[str, Scalar],
                            params: Mapping[str, Scalar],
                            span: tuple[float, float],
                            time_symbol: Optional[str] = None,
                            tol: float = 1e-12) -> TransportReport:
    """Transform a solution pointwise and compare with the integrated image.

    Integrates from the initial state, maps every sample through the
    generator, separately integrates from the transformed initial state
    with the transformed parameters, and reports the sup-norm difference
    on the shared time stamps (via dense output).
    """
    time_symbol = time_symbol or sys.times[0]
    gen = weyl.generators(sys.id)[generator]
    base = integrate(sys, time_symbol, initial, params, span,
                     method="rk45", atol=tol, rtol=tol)
    start = {n: Fraction(v) for n, v in initial.items()}
    start[time_symbol] = Fraction(span[0])
    new_state, new_params = weyl.apply_to_state(
        gen, start, {n: Fraction(v) for n, v in params.items()})
    image = integrate(sys, time_symbol, new_state, new_params, span,
                      method="rk45", atol=tol, rtol=tol)
    flagged = base.singular_abort or image.singular_abort

    rule_ev = [(n, Evaluator(gen.rule(n))) for n in base.var_names]
    runtime_args = _FieldRuntime(sys.table, time_symbol,
                                 tuple((n, RationalExpr.variable(sys.table, n))
                                       for n in base.var_names),
                                 {n: Fraction(v) for n, v in params.items()})
    sup = 0.0
    count = 0
    eps = guard_eps()
    t_max = min(base.times[-1], image.times[-1])
    for t, y in zip(base.times, base.states):
        if t > t_max:
            break
        args = runtime_args.arg_vector(t, y)
        if any(abs(ev.denominator(*args)) < eps for _, ev in rule_ev):
            flagged = True
            continue
        mapped = [ev(*args) for _, ev in rule_ev]
        other = image.state_at(t)
        sup = max(sup, max(abs(a - b) for a, b in zip(mapped, other)))
        count += 1
    return TransportReport(sys.id, generator, sup, count, flagged)


@dataclass(frozen=True)
class ResidualReport:
    max_residuals: tuple[float, float, float]
    skipped: int
    used: int

    def as_dict(self) -> dict:
        return {"max_residuals": list(self.max_residuals),
                "skipped": self.skipped, "used": self.used}


def scalar_residual_check(traj: Trajectory,
                        params: Mapping[str, Scalar]) -> ResidualReport:
    """Residuals of the scalar-reduction identities along a t1 trajectory.

    Maps each sample through the birational reduction and compares the
    three closed-form right sides (fourth-order equation, u_t2, u_t3)
    against the pushforward field components at the same point.  Samples
    too close to the singular locus 8u^3 + u - 4u'' = 0 or to u = 0 are
    skipped and counted.
    """
    if traj.system_id != "PDE_A1_1" or traj.time_symbol != "t1":
        raise ValueError("expected a PDE_A1_1 trajectory along t1")
    vm = flows.reduction_map()
    new_table = flows.reduced_table()
    fields = flows.reduced_fields()
    closed = [exprtext.parse(flows.FOURTH_ORDER_RHS_TEXT, new_table),
              exprtext.parse(flows.T2_RHS_TEXT, new_table),
              exprtext.parse(flows.T3_RHS_TEXT, new_table)]
    pushed = [fields["t1"].component("y"), fields["t2"].component("z"),
              fields["t3"].component("z")]
    closed_ev = [Evaluator(e) for e in closed]
    pushed_ev = [Evaluator(e) for e in pushed]
    forward_ev = [(n, Evaluator(e)) for n, e in vm.forward]

    param_floats = {n: float(Fraction(v)) for n, v in params.items()}
    old_args = {n: i for i, n in enumerate(vm.old_table.names)}
    new_args = {n: i for i, n in enumerate(new_table.names)}
    eps = skip_eps()
    maxres = [0.0, 0.0, 0.0]
    skipped = 0
    used = 0
    for t, y in zip(traj.times, traj.states):
        args_old = [0.0] * len(vm.old_table.names)
        for name, value in zip(traj.var_names, y):
            args_old[old_args[name]] = value
        for name, value in param_floats.items():
            args_old[old_args[name]] = value
        point = {n: ev(*args_old) for n, ev in forward_ev}
        x, z = point["x"], point["z"]
        if abs(8 * z ** 3 + z - 4 * x) < eps or abs(z) < eps:
            skipped += 1
            continue
        args_new = [0.0] * len(new_table.names)
        for name in ("x", "y", "z", "w"):
            args_new[new_args[name]] = point[name]
        for name, value in param_floats.items():
            args_new[new_args[name]] = value
        used += 1
        for k in range(3):
            res = abs(closed_ev[k](*args_new) - pushed_ev[k](*args_new))
            maxres[k] = max(maxres[k], res)
    if used == 0:
        raise SingularityAbort("every sample fell on the singular locus")
    return ResidualReport(tuple(maxres), skipped, used)


# ---------------------------------------------------------------------------
# trajectory export

_DIAG_ORDER = ("H", "K1", "K2", "K3", "f0", "f1", "f2")


def _format_float(v: float, encoding: str) -> str:
    if encoding == "hex":
        return float(v).hex()
    return repr(float(v))


def _parse_float(text: str) -> float:
    return float.fromhex(text) if ("0x" in text or "0X" in text) else float(text)


def trajectory_to_csv(traj: Trajectory, encoding: str = "decimal") -> str:
    """Delimited export: time, state columns, then diagnostics columns."""
    diag_names = [n for n in _DIAG_ORDER if n in traj.diagnostics]
    header = ["time", *traj.var_names, *diag_names]
    lines = [",".join(header)]
    for k, (t, y) in enumerate(zip(traj.times, traj.states)):
        row = [_format_float(t, encoding)]
        row += [_format_float(v, encoding) for v in y]
        row += [_format_float(traj.diagnostics[n][k], encoding) for n in diag_names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory, encoding: str = "decimal") -> dict:
    diag_names = [n for n in _DIAG_ORDER if n in traj.diagnostics]
    return {
        "system": traj.system_id,
        "time_symbol": traj.time_symbol,
        "variables": list(traj.var_names),
        "parameters": {n: str(v) for n, v in sorted(traj.params.items())},
        "method": traj.method,
        "meta": {k: v for k, v in traj.meta.items() if v is not None},
        "flags": {k: v for k, v in traj.flags.items() if v is not None},
        "float_encoding": encoding,
        "samples": [
            {"time": _format_float(t, encoding),
             "state": [_format_float(v, encoding) for v in y],
             "diagnostics": {n: _format_float(traj.diagnostics[n][k], encoding)
                             for n in diag_names}}
            for k, (t, y) in enumerate(zip(traj.times, traj.states))
        ],
    }


def trajectory_from_csv(text: str) -> tuple[list[float], list[tuple[float, ...]],
                                            dict[str, list[float]]]:
    """Inverse of trajectory_to_csv (times, states, diagnostics)."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    diag_names = [n for n in header if n in _DIAG_ORDER]
    n_state = len(header) - 1 - len(diag_names)
    times: list[float] = []
    states: list[tuple[float, ...]] = []
    diags: dict[str, list[float]] = {n: [] for n in diag_names}
    for ln in lines[1:]:
        cells = ln.split(",")
        times.append(_parse_float(cells[0]))
        states.append(tuple(_parse_float(c) for c in cells[1:1 + n_state]))
        for n, c in zip(diag_names, cells[1 + n_state:]):
            diags[n].append(_parse_float(c))
    return times, states, diags


def trajectory_from_json(doc: Mapping) -> tuple[list[float], list[tuple[float, ...]],
                                                dict[str, list[float]]]:
    times = []
    states = []
    diags: dict[str, list[float]] = {}
    for sample in doc["samples"]:
        times.append(_parse_float(sample["time"]))
        states.append(tuple(_parse_float(v) for v in sample["state"]))
        for n, v in sample["diagnostics"].items():
            diags.setdefault(n, []).append(_parse_float(v))
    return times, states, diags
