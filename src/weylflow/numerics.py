"""Floating-point evaluation, ODE integration, and the numerical test battery.

The symbolic layer owns correctness; this layer owns behavior: compiled
evaluators for rational expressions, fixed-step rk4 (with cubic-Hermite
dense output) and adaptive rk45 (scipy, imported on first use, with its
embedded interpolant), singularity guards near denominator zeros,
first-integral and divisor diagnostics, Backlund solution transport, and
residuals of the scalar fourth-order reduction along trajectories.

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

from . import exprtext, flows, weyl
from .catalog import SPECS, HamiltonianSystem, build_system
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


def _compile(arg_names: Sequence[str], bindings: Mapping[str, float],
             exprs: Sequence[RationalExpr], guard: bool) -> Callable:
    """Compile expressions over one table into one double-precision function.

    The function takes ``arg_names`` positionally; ``bindings`` become local
    constants.  Powers of each symbol and each distinct non-constant
    denominator are computed once per call and shared by every expression.
    Each expression keeps the term order and coefficients it has when
    compiled alone, so sharing does not change a bit of any value.  Without
    ``guard`` the function returns the value of the single expression; with
    it, every value followed by min |den| over the non-constant
    denominators (inf when there are none).
    """
    maxpow: dict[str, int] = {}
    for expr in exprs:
        for poly in (expr.num, expr.den):
            for e in poly.terms:
                for i, power in enumerate(e):
                    if power >= 2:
                        name = poly.table.names[i]
                        maxpow[name] = max(maxpow.get(name, 0), power)
    lines = [f"def _compiled({', '.join(arg_names)}):"]
    lines += [f"    {name} = {value!r}" for name, value in bindings.items()]
    for name in sorted(maxpow):
        lines.append(f"    _{name}_2 = {name} * {name}")
        lines += [f"    _{name}_{power} = _{name}_{power-1} * {name}"
                  for power in range(3, maxpow[name] + 1)]
    values: list[str] = []
    dens: dict[str, str] = {}              # denominator source -> local name
    for expr in exprs:
        num = _compile_polynomial(expr.num)
        if expr.den.is_constant():
            scale = float(expr.den.constant_value())
            values.append(num if scale == 1.0 else f"({num}) / {scale!r}")
        else:
            local = dens.setdefault(_compile_polynomial(expr.den),
                                    f"_den{len(dens)}")
            values.append(f"({num}) / {local}")
    lines += [f"    {local} = {source}" for source, local in dens.items()]
    if not guard:
        lines.append(f"    return {values[0]}")
    else:
        guards = [f"abs({local})" for local in dens.values()]
        if not guards:
            values.append("_inf")
        elif len(guards) == 1:
            values.append(guards[0])
        else:
            values.append(f"min({', '.join(guards)})")
        lines.append(f"    return ({', '.join(values)},)")
    namespace: dict = {"_inf": math.inf}
    exec(compile("\n".join(lines), "<compiled>", "exec"), namespace)
    return namespace["_compiled"]


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
        self.arg_names = tuple(arg_names) if arg_names is not None \
            else expr.table.names
        missing = expr.symbols() - set(self.arg_names)
        if missing:
            raise ValueError(f"expression uses symbols outside arg list: {missing}")
        self._fn = _compile(self.arg_names, {}, [expr], guard=False)

    def __call__(self, *args: float) -> float:
        return self._fn(*args)


def _compile_flow(table: VarTable, time_symbol: str,
                  state_names: Sequence[str],
                  exprs: Sequence[RationalExpr | Polynomial],
                  params: Mapping[str, Fraction]) -> Callable:
    """Compile expressions along one flow into ``fn(t, *state)``.

    ``fn`` returns the value of every expression followed by min |den| over
    their non-constant denominators (inf when there are none).  The time
    symbol is bound to ``t``, each parameter to ``float`` of its value, and
    every other symbol the expressions use (another flow's time) to 0.0.
    """
    exprs = [RationalExpr.from_polynomial(e) if isinstance(e, Polynomial)
             else e for e in exprs]
    used: set[str] = set().union(*(e.symbols() for e in exprs))
    bindings = {name: 0.0 for name in table.names
                if name in used and name not in state_names
                and name != time_symbol}
    bindings.update((name, float(value)) for name, value in params.items()
                    if name in used)
    time_arg = time_symbol if time_symbol in table.names else "_t"
    return _compile((time_arg, *state_names), bindings, exprs, guard=True)


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
    """One flow compiled into a single function.

    ``flow(t, *y)`` returns the field components at (t, y) followed by
    min |den| over their non-constant denominators (inf when there are
    none), the value the singularity guard compares with its threshold.
    """

    def __init__(self, table: VarTable, time_symbol: str,
                 components: Sequence[tuple[str, RationalExpr]],
                 params: Mapping[str, Fraction]):
        self.var_names = tuple(n for n, _ in components)
        self.guarded = any(not e.den.is_constant() for _, e in components)
        self.flow = _compile_flow(table, time_symbol, self.var_names,
                                  [e for _, e in components], params)


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
        flow = runtime.flow
        t = t0
        y = [float(v) for v in y0]
        # one evaluation at the end of each step is the stored derivative,
        # the next step's guard value and its k1; every k carries min |den|
        # after the components, which zip() leaves out
        f = flow(t, *y)
        times, states, derivs = [t], [tuple(y)], [f[:-1]]
        for _ in range(n):
            if f[-1] < guard:
                flags.update(singular_abort=True, abort_time=t)
                break
            k1 = f
            k2 = flow(t + h / 2, *[a + h / 2 * b for a, b in zip(y, k1)])
            k3 = flow(t + h / 2, *[a + h / 2 * b for a, b in zip(y, k2)])
            k4 = flow(t + h, *[a + h * b for a, b in zip(y, k3)])
            y = [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            t += h
            if not all(map(math.isfinite, y)):
                flags.update(singular_abort=True, abort_time=t)
                break
            f = flow(t, *y)
            times.append(t)
            states.append(tuple(y))
            derivs.append(f[:-1])
        dense = _hermite_dense(times, states, derivs)
        return times, states, dense, flags

    if method == "rk45":
        from scipy.integrate import solve_ivp

        flow = runtime.flow
        events = None
        if runtime.guarded:
            def guard_event(t, y):
                return flow(t, *y)[-1] - guard
            guard_event.terminal = True
            events = [guard_event]
        sol = solve_ivp(lambda t, y: flow(t, *y)[:-1], (t0, t1),
                        list(map(float, y0)), method="RK45", rtol=rtol,
                        atol=atol, dense_output=True, events=events)
        # status 1: the guard event ended the run; -1: the step size fell
        # below the spacing of floats, which near a movable pole the guard
        # may not have caught first.  Either way the accepted steps stand.
        if sol.status != 0:
            flags.update(singular_abort=True,
                         abort_time=float(sol.t[-1]) if len(sol.t) else t0)
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

    diag_names = [sys.hamiltonian_name(tsym) for tsym in sys.times]
    diag_names += [f"f{i}" for i in range(len(sys.divisors))]
    diag_flow = _compile_flow(
        sys.table, time_symbol, runtime.var_names,
        [ham for _, ham in sys.hamiltonians] + [f for f, _ in sys.divisors],
        pv.as_dict())
    rows = [diag_flow(t, *y) for t, y in zip(times, states)]
    diagnostics = {name: [row[k] for row in rows]
                   for k, name in enumerate(diag_names)}

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

    mapping = _compile_flow(sys.table, time_symbol, base.var_names,
                            [gen.rule(n) for n in base.var_names],
                            {n: Fraction(v) for n, v in params.items()})
    sup = 0.0
    count = 0
    eps = guard_eps()
    t_max = min(base.times[-1], image.times[-1])
    for t, y in zip(base.times, base.states):
        if t > t_max:
            break
        try:
            *mapped, min_den = mapping(t, *y)
        except ZeroDivisionError:
            min_den = 0.0
        if min_den < eps:
            flagged = True
            continue
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

def _format_float(v: float, encoding: str) -> str:
    if encoding == "hex":
        return float(v).hex()
    return repr(float(v))


def _parse_float(text: str) -> float:
    return float.fromhex(text) if ("0x" in text or "0X" in text) else float(text)


def trajectory_to_csv(traj: Trajectory, encoding: str = "decimal") -> str:
    """Delimited export: time, state columns, then diagnostics columns."""
    diag_names = list(traj.diagnostics)
    header = ["time", *traj.var_names, *diag_names]
    lines = [",".join(header)]
    for k, (t, y) in enumerate(zip(traj.times, traj.states)):
        row = [_format_float(t, encoding)]
        row += [_format_float(v, encoding) for v in y]
        row += [_format_float(traj.diagnostics[n][k], encoding) for n in diag_names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory, encoding: str = "decimal") -> dict:
    diag_names = list(traj.diagnostics)
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
    dynamical = {n for spec in SPECS.values() for n in spec.dynamical}
    diag_names = [n for n in header[1:] if n not in dynamical]
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
