"""Floating-point evaluation, ODE integration, and the numerical test battery.

The symbolic layer owns correctness; this layer owns behavior: polynomials
compiled to double-precision functions (a rational value is its compiled
numerator over its compiled denominator), fixed-step rk4 (one generated
straight-line loop per number of state variables) and adaptive rk45
(Dormand-Prince 5(4) in plain Python), each described in its section
below, first-integral and divisor diagnostics, Backlund solution
transport, and residuals of the scalar fourth-order reduction along
trajectories.  Both integrators return only their rows.  Dense output on
forward and backward spans is rebuilt from the rows when queried: cubic
Hermite for rk4, and for rk45 the step taken again from its row, with its
quartic interpolant.  Everything runs on Python floats, with no package
beyond the standard library.

Every flow integrated here is polynomial: its singularities are movable
poles, where the solution blows up, not zeros of a denominator.  A run
that reaches one stops early with a flagged, partial trajectory: rk4
after a step that leaves a non-finite value, rk45 when its step size
falls below ten spacings of floats at the current time.
"""

from __future__ import annotations

import bisect
import io
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, TextIO

from . import exprtext, flows, weyl
from .catalog import HamiltonianSystem, parameter_values
from .symkernel import (DYNAMICAL, PARAMETER, Polynomial, RationalExpr,
                        Scalar, SymbolError, VarTable)

# Backlund transport skips samples where the map's min |den| is below this
GUARD_EPS_DEFAULT = 1e-10
# scalar residuals skip samples this close to the reduction's singular locus
SKIP_EPS_DEFAULT = 1e-6
ATOL_DEFAULT = 1e-12
RTOL_DEFAULT = 1e-12
# rows per block of the diagnostics evaluation and of the CSV export, so
# that neither holds a whole trajectory's worth of temporaries
_BLOCK_ROWS = 256


class SingularityAbort(RuntimeError):
    """A numerical check that cannot go on: a flow stopped early at a
    movable pole, or every residual sample fell on the singular locus."""


# ---------------------------------------------------------------------------
# compiled evaluators


def _compile_polynomial(p: Polynomial) -> str:
    """Emit an expression string; power subterms are hoisted by the caller."""
    if p.is_zero():
        return "0.0"
    pieces = []
    for e, c in p.grlex_terms():
        factors = [repr(float(c))]
        for i, power in enumerate(e):
            if not power:
                continue
            name = p.table.names[i]
            factors.append(name if power == 1 else f"_{name}_{power}")
        pieces.append("*".join(factors))
    return " + ".join(pieces)


def _compile(arg_names: Sequence[str], bindings: Mapping[str, float],
             polys: Sequence[Polynomial]) -> Callable:
    """Compile polynomials over one table into one double-precision function.

    The function takes ``arg_names`` positionally; ``bindings`` become local
    constants.  Powers of each symbol are computed once per call and shared
    by every polynomial.  Each polynomial keeps the term order and
    coefficients it has when compiled alone, so sharing does not change a
    bit of any value.  The function returns the tuple of the values.
    """
    maxpow: dict[str, int] = {}
    for poly in polys:
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
    values = [_compile_polynomial(poly) for poly in polys]
    lines.append(f"    return ({', '.join(values)},)")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<compiled>", "exec"), namespace)
    return namespace["_compiled"]


class Evaluator:
    """A RationalExpr compiled to a double-precision function.

    Arguments follow ``arg_names`` (default: the full table order).  The
    numerator and the denominator are compiled together, sharing the powers
    of each input, with coefficients folded to double constants; a call
    returns the one over the other (a polynomial's denominator is 1.0).
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
        self._fn = _compile(self.arg_names, {}, [expr.num, expr.den])

    def __call__(self, *args: float) -> float:
        num, den = self._fn(*args)
        return num / den


def _compile_flow(table: VarTable, time_symbol: str,
                  state_names: Sequence[str], polys: Sequence[Polynomial],
                  params: Mapping[str, Fraction]) -> Callable:
    """Compile polynomials along one flow into ``fn(t, *state)``, which
    returns the tuple of their values.

    The time symbol is bound to ``t``, each parameter to ``float`` of its
    value, and every other symbol the polynomials use (another flow's
    time) to 0.0.
    """
    used: set[str] = set().union(*(p.symbols() for p in polys))
    bindings = {name: 0.0 for name in table.names
                if name in used and name not in state_names
                and name != time_symbol}
    bindings.update((name, float(value)) for name, value in params.items()
                    if name in used)
    time_arg = time_symbol if time_symbol in table.names else "_t"
    return _compile((time_arg, *state_names), bindings, polys)


# ---------------------------------------------------------------------------
# trajectories


class Trajectory:
    __slots__ = ("system_id", "time_symbol", "var_names", "times", "states",
                 "params", "method", "meta", "diagnostics", "flags", "dense")

    def __init__(self, system_id: str, time_symbol: str,
                 var_names: tuple[str, ...], times: list[float],
                 states: list[tuple[float, ...]], params: dict[str, Fraction],
                 method: str, meta: dict,
                 diagnostics: Optional[dict[str, list[float]]] = None,
                 flags: Optional[dict] = None,
                 dense: Optional[Callable[[float], tuple[float, ...]]] = None):
        self.system_id = system_id
        self.time_symbol = time_symbol
        self.var_names = var_names
        self.times = times
        self.states = states
        self.params = params
        self.method = method
        self.meta = meta
        self.diagnostics = {} if diagnostics is None else diagnostics
        self.flags = {} if flags is None else flags
        self.dense = dense

    @property
    def singular_abort(self) -> bool:
        return bool(self.flags.get("singular_abort"))

    def state_at(self, t: float) -> tuple[float, ...]:
        """The state at ``t`` from the method's dense output, on a forward
        or a backward span: cubic Hermite for rk4, with the derivative at
        each node evaluated again from its stored state, and Dormand and
        Prince's quartic for rk45, with the step taken again from its
        stored row.  Past either end the nearest step extrapolates."""
        if self.dense is None:
            raise ValueError("trajectory has no dense output")
        return self.dense(t)


def _dense_output(times: list[float], states: list[tuple[float, ...]],
                  interpolate: Callable[[int, float], tuple[float, ...]]
                  ) -> Callable[[float], tuple[float, ...]]:
    """Dense output of a run, forward or backward: ``interpolate(k, t)`` on
    the step k from ``times[k]`` to ``times[k + 1]`` whose span holds
    ``t``, ties going to the earlier step; before the start or past the
    end, the first or last step extrapolates.  A run of one row is
    constant."""
    if len(times) == 1:
        return lambda t: states[0]
    last = len(times) - 2
    if times[-1] >= times[0]:
        def index(t):
            return min(max(bisect.bisect_left(times, t) - 1, 0), last)
    else:
        def index(t):
            return min(max(bisect.bisect_left(times, -t, key=operator.neg) - 1,
                           0), last)
    return lambda t: interpolate(index(t), t)


def _hermite_step(flow: Callable, times: list[float],
                  states: list[tuple[float, ...]], k: int,
                  t: float) -> tuple[float, ...]:
    """Cubic Hermite interpolant of rk4 step k at ``t``.

    The derivative at a node is evaluated again, as
    ``flow(times[k], *states[k])``: the same call the rk4 loop made there,
    so the same bits.  At a node the interpolant returns the stored state.
    """
    h = times[k + 1] - times[k]
    s = (t - times[k]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    y0, y1 = states[k], states[k + 1]
    f0 = flow(times[k], *y0)
    f1 = flow(times[k + 1], *y1)
    return tuple(h00 * a + h * h10 * fa + h01 * b + h * h11 * fb
                 for a, fa, b, fb in zip(y0, f0, y1, f1))


# ---------------------------------------------------------------------------
# classical rk4
#
# The whole fixed-step loop over n state variables is generated once per n
# as straight-line scalar code, so a step makes no list, zip or map.  Every
# float operation and its order are those of the textbook loop over lists
# (h / 2 and h / 6 are its subexpressions, evaluated once), so a run gives
# the same bits.  The evaluation at the end of each step is the next step's
# first stage.  No derivative is stored: dense output evaluates the flow
# again at the two nodes around a query.

_RK4_KERNELS: dict[int, Callable] = {}


def _rk4_kernel(n_state: int) -> Callable:
    """``loop(flow, t, y, h, n)`` for n_state variables: n rk4 steps of
    size h from (t, y), returning the times, the state tuples and the abort
    time (None for a full run).  A run ends after a step that leaves a
    non-finite value, which is not stored; the abort time is t at that
    point."""
    kernel = _RK4_KERNELS.get(n_state)
    if kernel is not None:
        return kernel
    ys = [f"y{i}" for i in range(n_state)]

    def stage(name: str, time: str, scale: str, prev: str) -> str:
        args = ", ".join(f"y{i} + {scale} * {prev}{i}" for i in range(n_state))
        lhs = ", ".join(f"{name}{i}" for i in range(n_state))
        return f"        {lhs}, = flow({time}, {args})"

    state = f"({', '.join(ys)},)"
    finite = " and ".join(f"_isfinite({y})" for y in ys)
    lines = [
        "def _rk4_loop(flow, t, y, h, n):",
        f"    {', '.join(ys)}, = y",
        f"    f = flow(t, {', '.join(ys)})",
        f"    times, states = [t], [{state}]",
        "    h2 = h / 2",
        "    h6 = h / 6",
        "    for _ in range(n):",
        f"        {', '.join(f'a{i}' for i in range(n_state))}, = f",
        stage("b", "t + h2", "h2", "a"),
        stage("c", "t + h2", "h2", "b"),
        stage("d", "t + h", "h", "c"),
        *(f"        y{i} = y{i} + h6 * (a{i} + 2 * b{i} + 2 * c{i} + d{i})"
          for i in range(n_state)),
        "        t += h",
        f"        if not ({finite}):",
        "            return times, states, t",
        f"        f = flow(t, {', '.join(ys)})",
        "        times.append(t)",
        f"        states.append({state})",
        "    return times, states, None",
    ]
    namespace: dict = {"_isfinite": math.isfinite}
    exec(compile("\n".join(lines), "<rk4>", "exec"), namespace)
    kernel = _RK4_KERNELS[n_state] = namespace["_rk4_loop"]
    return kernel


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)
#
# The pair of Dormand and Prince, J. Comput. Appl. Math. 6 (1980) 19, with
# the step-size controller and starting step of Hairer, Norsett and Wanner,
# Solving ODEs I, sec. II.4, and the quartic dense output of Shampine,
# Math. Comp. 46 (1986) 135.  Every weighted sum runs left to right over all
# stages, zero weights included, starting from 0.0, so a run gives the same
# bits as any implementation of the same formulas in plain IEEE arithmetic
# without fused multiply-add.

_DP_C = (1/5, 3/10, 4/5, 8/9, 1.0)          # nodes of stages 2..6
_DP_A = ((1/5,),
         (3/40, 9/40),
         (44/45, -56/15, 32/9),
         (19372/6561, -25360/2187, 64448/6561, -212/729),
         (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656))
_DP_B = (35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84)
# fifth- minus fourth-order weights; the last stage is f at the new point
_DP_E = (-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
# dense output: y(t_old + x*h) = y_old + h * sum_j Q_j x^(j+1), Q = K^T P
_DP_P_COLUMNS = tuple(zip(
    (1.0, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799),
    (0.0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072),
    (0.0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632),
    (0.0, -282668133/205662961, 2019193451/616988883,
     -1453857185/822651844),
    (0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423)))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5                     # the error estimate is O(h^5)
RTOL_MIN = 100 * sys.float_info.epsilon


def _weighted_sums(rows: Sequence[Sequence[float]],
                   weights: Sequence[float], n: int) -> list[float]:
    """sum_k rows[k][i] * weights[k] for each i < n, left to right."""
    sums = [0.0] * n
    for row, w in zip(rows, weights):
        sums = [s + r * w for s, r in zip(sums, row)]
    return sums


def _rms(values: Sequence[float]) -> float:
    squares = 0.0
    for v in values:
        squares += v * v
    return math.sqrt(squares) / len(values) ** 0.5


def _dp_initial_step(flow: Callable, t0: float, y0: list[float],
                     f0: Sequence[float], t1: float, direction: float,
                     atol: float, rtol: float) -> float:
    """Starting step |h| (Hairer, Norsett and Wanner, sec. II.4)."""
    interval = abs(t1 - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = [v + h0 * direction * f for v, f in zip(y0, f0)]
    f1 = flow(t0 + h0 * direction, *y1)
    # h0 is 0 only when d1 is infinite, and then d2 does not matter
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0 \
        if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _dp_trial(flow: Callable, t: float, y: Sequence[float], f: tuple,
              h: float) -> tuple[list[float], list[tuple]]:
    """One Dormand-Prince step: the new state and the seven stages, the last
    being ``flow`` at the new state."""
    n = len(y)
    stages = [f]
    for c, a in zip(_DP_C, _DP_A):
        dy = _weighted_sums(stages, a, n)
        stages.append(flow(t + c * h, *[v + d * h for v, d in zip(y, dy)]))
    y_new = [v + h * s for v, s in zip(y, _weighted_sums(stages, _DP_B, n))]
    stages.append(flow(t + h, *y_new))
    return y_new, stages


def _dp_interpolate(t_old: float, h: float, y_old: Sequence[float],
                    stages: Sequence[tuple], t: float) -> tuple[float, ...]:
    """The quartic dense output of the step from ``t_old`` to ``t_old + h``."""
    n = len(y_old)
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    q1, q2, q3, q4 = (_weighted_sums(stages, column, n)
                      for column in _DP_P_COLUMNS)
    return tuple(v + h * (0.0 + a * x + b * x2 + c * x3 + d * x4)
                 for v, a, b, c, d in zip(y_old, q1, q2, q3, q4))


def _dp_step(flow: Callable, times: list[float],
             states: list[tuple[float, ...]], k: int,
             t: float) -> tuple[float, ...]:
    """The quartic interpolant of rk45 step k at ``t``, from the step taken
    again from row k.

    Its first stage is ``flow`` where the loop evaluated it: at
    ``times[0]`` for the first step, else at the end of step k - 1 as the
    loop computed it, ``times[k-1] + (times[k] - times[k-1])``, which need
    not round to ``times[k]``.  So every stage has the run's bits.
    """
    t_old, y = times[k], states[k]
    t_first = t_old if k == 0 else times[k - 1] + (t_old - times[k - 1])
    h = times[k + 1] - t_old
    _, stages = _dp_trial(flow, t_old, y, flow(t_first, *y), h)
    return _dp_interpolate(t_old, h, y, stages, t)


def _rk45(flow: Callable, y0: Sequence[float], t0: float, t1: float,
          atol: float, rtol: float
          ) -> tuple[list[float], list[tuple[float, ...]], Optional[float]]:
    """Adaptive Dormand-Prince 5(4) from t0 to t1 != t0: the times, the
    state tuples and the abort time (None for a full run).

    A run stops early when the step size falls below ten spacings of floats
    at the current time, as it does at a movable pole; the last row is the
    last accepted step, and its time is the abort time.
    """
    if rtol < RTOL_MIN:
        sys.stderr.write(f"rtol {rtol!r} is below 100 * machine epsilon; "
                         f"using {RTOL_MIN!r}\n")
        rtol = RTOL_MIN
    n = len(y0)
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    y = [float(v) for v in y0]
    f = flow(t, *y)
    h_abs = _dp_initial_step(flow, t, y, f, t1, direction, atol, rtol)
    times, states = [t], [tuple(y)]
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                # the step size fell below the spacing of floats
                return times, states, times[-1]
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, stages = _dp_trial(flow, t, y, f, h)
            error = _weighted_sums(stages, _DP_E, n)
            error_norm = _rms([e * h / (atol + max(abs(a), abs(b)) * rtol)
                               for e, a, b in zip(error, y, y_new)])
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, stages[-1]
        times.append(t)
        states.append(tuple(y))
    return times, states, None


def _integrate_runtime(flow: Callable, y0: Sequence[float],
                       span: tuple[float, float], method: str,
                       step: Optional[float], atol: float, rtol: float
                       ) -> tuple[list[float], list[tuple[float, ...]],
                                  Callable, dict]:
    """Rows of one run, its dense output and its flags."""
    t0, t1 = span
    if t1 == t0:
        times, states, abort_time = [t0], [tuple(float(v) for v in y0)], None
        step_interpolant = None            # a one-row run has no step
    elif method == "rk4":
        if not step or step <= 0:
            raise ValueError("rk4 requires a positive step")
        n = max(1, round(abs(t1 - t0) / step))
        times, states, abort_time = _rk4_kernel(len(y0))(
            flow, t0, [float(v) for v in y0], (t1 - t0) / n, n)
        step_interpolant = _hermite_step
    elif method == "rk45":
        times, states, abort_time = _rk45(flow, y0, t0, t1, atol, rtol)
        step_interpolant = _dp_step
    else:
        raise ValueError(f"unknown integration method {method!r}")
    flags = {"singular_abort": abort_time is not None, "abort_time": abort_time}
    dense = _dense_output(
        times, states,
        lambda k, t: step_interpolant(flow, times, states, k, t))
    return times, states, dense, flags


def _double(what: str, value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is outside the range of a double") from None


def integrate(sys: HamiltonianSystem, time_symbol: str,
              initial: Mapping[str, Scalar], params: Mapping[str, Scalar],
              span: tuple[float, float], method: str = "rk45",
              step: Optional[float] = None, atol: Optional[float] = None,
              rtol: Optional[float] = None) -> Trajectory:
    """Integrate one flow of a catalog system with diagnostics.

    ``initial`` binds every dynamical symbol and may bind time symbols
    (ignored); any other name raises SymbolError.  Diagnostics carry the
    value of every Hamiltonian of the system and of every invariant
    divisor at each sample.  A run that reaches a movable pole ends early
    with a partial trajectory flagged ``singular_abort``: rk4 after a step
    that leaves a non-finite value (that step is not stored), rk45 when its
    step size falls below ten spacings of floats.  Non-finite span ends or
    step, ``atol``/``rtol`` that are not finite and > 0, and an initial
    value or parameter outside the range of a double raise ValueError.
    """
    if not all(map(math.isfinite, span)):
        raise ValueError(f"span ends must be finite, got {span[0]!r}:{span[1]!r}")
    if step is not None and not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")
    tolerances = {"atol": ATOL_DEFAULT if atol is None else atol,
                  "rtol": RTOL_DEFAULT if rtol is None else rtol}
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    params = parameter_values(sys, params)
    for name, value in params.items():
        _double(f"parameter {name!r}", value)
    for name in initial:
        if sys.table.class_of(name) == PARAMETER:
            raise SymbolError(f"parameter {name!r} in the initial state")
    missing = [n for n in sys.table.symbols(DYNAMICAL) if n not in initial]
    if missing:
        raise SymbolError(f"initial state leaves {', '.join(missing)} unbound")
    components = flows.hamiltonian_vector_field(sys, time_symbol).components
    var_names = tuple(n for n, _ in components)
    y0 = [_double(f"initial value of {n!r}", Fraction(initial[n]))
          for n in var_names]
    flow = _compile_flow(sys.table, time_symbol, var_names,
                         [e.as_polynomial() for _, e in components], params)
    times, states, dense, flags = _integrate_runtime(
        flow, y0, span, method, step, tolerances["atol"], tolerances["rtol"])

    diag_names = [sys.hamiltonian_name(tsym) for tsym in sys.times]
    diag_names += [f"f{i}" for i in range(len(sys.divisors))]
    diag_flow = _compile_flow(
        sys.table, time_symbol, var_names,
        [ham for _, ham in sys.hamiltonians] + [f for f, _ in sys.divisors],
        params)
    diagnostics: dict[str, list[float]] = {name: [] for name in diag_names}
    for start in range(0, len(times), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        rows = map(diag_flow, times[start:stop], *zip(*states[start:stop]))
        for column, values in zip(diagnostics.values(), zip(*rows)):
            column.extend(values)

    return Trajectory(sys.id, time_symbol, var_names, times, states,
                      params, method,
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


def path_commutation_check(sys: HamiltonianSystem,
                           initial: Mapping[str, Scalar],
                           params: Mapping[str, Scalar], delta: float = 0.1,
                           order: tuple[int, int] = (1, 2),
                           tol: float = 1e-12) -> float:
    """Endpoint discrepancy of flowing along the i-th time then the j-th
    versus the j-th then the i-th, counting the times from 1."""
    ti, tj = (sys.times[k - 1] for k in order)

    def flow(time_symbol: str, state: Mapping[str, Scalar]) -> dict[str, float]:
        traj = integrate(sys, time_symbol, state, params, (0.0, delta),
                         method="rk45", atol=tol, rtol=tol)
        if traj.singular_abort:
            raise SingularityAbort(f"guard triggered along {time_symbol}")
        return dict(zip(traj.var_names, traj.states[-1]))

    end_ij = flow(tj, flow(ti, initial))
    end_ji = flow(ti, flow(tj, initial))
    return max(abs(end_ij[n] - end_ji[n]) for n in end_ij)


class TransportReport(NamedTuple):
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
    gen = weyl.generators(sys)[generator]
    base = integrate(sys, time_symbol, initial, params, span,
                     method="rk45", atol=tol, rtol=tol)
    start = {n: Fraction(v) for n, v in initial.items()}
    start[time_symbol] = Fraction(span[0])
    new_state, new_params = weyl.apply_to_state(
        gen, start, {n: Fraction(v) for n, v in params.items()})
    image = integrate(sys, time_symbol, new_state, new_params, span,
                      method="rk45", atol=tol, rtol=tol)
    flagged = base.singular_abort or image.singular_abort

    rules = [gen.rule(n) for n in base.var_names]
    # numerator and denominator of every rule, in turn
    mapping = _compile_flow(sys.table, time_symbol, base.var_names,
                            [p for rule in rules for p in (rule.num, rule.den)],
                            {n: Fraction(v) for n, v in params.items()})
    guarded = [k for k, rule in enumerate(rules) if not rule.den.is_constant()]
    sup = 0.0
    count = 0
    # the samples run from span[0] toward span[1]; stop at the earlier run end
    sign = 1.0 if span[1] >= span[0] else -1.0
    t_stop = min(sign * base.times[-1], sign * image.times[-1])
    for t, y in zip(base.times, base.states):
        if sign * t > t_stop:
            break
        values = mapping(t, *y)
        nums, dens = values[0::2], values[1::2]
        if min((abs(dens[k]) for k in guarded),
               default=math.inf) < GUARD_EPS_DEFAULT:
            flagged = True
            continue
        mapped = [a / b for a, b in zip(nums, dens)]
        other = image.state_at(t)
        sup = max(sup, max(abs(a - b) for a, b in zip(mapped, other)))
        count += 1
    return TransportReport(sys.id, generator, sup, count, flagged)


class ResidualReport(NamedTuple):
    max_residuals: tuple[float, ...]        # one per printed right side
    skipped: int
    used: int

    def as_dict(self) -> dict:
        return {"max_residuals": list(self.max_residuals),
                "skipped": self.skipped, "used": self.used}


def scalar_residual_check(sys: HamiltonianSystem, traj: Trajectory,
                          params: Mapping[str, Scalar]) -> ResidualReport:
    """Residuals of the scalar-reduction identities along a trajectory of
    the system, taken along the time of its reduction.

    Maps each sample through the birational reduction and compares every
    printed right side with the pushforward field component it names at
    the same point, in the order the spec prints them.  Samples within
    ``SKIP_EPS_DEFAULT`` of a zero of a singular factor (on PDE_A1_1, of
    the locus 8u^3 + u - 4u'' = 0 or of u = 0) are skipped and counted.
    """
    vm = flows.reduction_map(sys)
    red = sys.spec.reduction
    if traj.system_id != sys.id or traj.time_symbol != red.time:
        raise ValueError(f"expected a {sys.id} trajectory along {red.time}")
    fields = flows.reduced_fields(sys)
    exprs = [exprtext.parse(text, vm.new_table) for *_, text in red.printed]
    exprs += [fields[t].component(v) for _, t, v, _ in red.printed]
    values = {n: Fraction(v) for n, v in params.items()}

    def quotients(table, state_names, exprs):
        """``fn(*state)``: each expression's compiled numerator over its
        compiled denominator, with every time symbol 0.0 (none is used)."""
        flow = _compile_flow(table, red.time, state_names,
                             [p for e in exprs for p in (e.num, e.den)], values)

        def fn(*state):
            v = flow(0.0, *state)
            return [a / b for a, b in zip(v[0::2], v[1::2])]
        return fn

    point_names = tuple(n for n, _ in vm.forward)
    to_point = quotients(vm.old_table, traj.var_names,
                         [e for _, e in vm.forward])
    factors = [exprtext.parse_polynomial(text, vm.new_table)
               for text in red.singular]
    singular = _compile_flow(vm.new_table, red.time, point_names, factors,
                             values)
    sides = quotients(vm.new_table, point_names, exprs)
    n = len(red.printed)
    maxres = [0.0] * n
    skipped = 0
    used = 0
    for y in traj.states:
        point = to_point(*y)
        if min(map(abs, singular(0.0, *point))) < SKIP_EPS_DEFAULT:
            skipped += 1
            continue
        used += 1
        v = sides(*point)
        for k in range(n):
            maxres[k] = max(maxres[k], abs(v[k] - v[k + n]))
    if used == 0:
        raise SingularityAbort("every sample fell on the singular locus")
    return ResidualReport(tuple(maxres), skipped, used)


# ---------------------------------------------------------------------------
# trajectory export

def _format_columns(traj: Trajectory, encoding: str) -> list:
    """Time, state and diagnostics columns as text, one iterator of str
    each."""
    fmt = float.hex if encoding == "hex" else repr
    # lazy state columns, so that no transposed copy of the states is made
    states = [map(operator.itemgetter(i), traj.states)
              for i in range(len(traj.var_names))]
    columns = [traj.times, *states, *traj.diagnostics.values()]
    # float() so that an int time (a span given as ints) prints as a float
    return [map(fmt, map(float, column)) for column in columns]


def trajectory_to_csv(traj: Trajectory, encoding: str = "decimal",
                      out: Optional[TextIO] = None) -> Optional[str]:
    """Delimited export: time, state columns, then diagnostics columns.

    Rows are formatted and written in blocks of ``_BLOCK_ROWS``.  With
    ``out`` (a text file) every block is written there as it is made, so
    the whole text is never held, and None is returned; without it, the
    text is returned.
    """
    target = io.StringIO() if out is None else out
    target.write(",".join(["time", *traj.var_names, *traj.diagnostics]) + "\n")
    rows = map(",".join, zip(*_format_columns(traj, encoding)))
    while True:
        # join() makes its own list of the block's rows, freed before write
        block = "\n".join(itertools.islice(rows, _BLOCK_ROWS))
        if not block:
            break
        target.write(block)
        target.write("\n")
    return target.getvalue() if out is None else None


def trajectory_to_json(traj: Trajectory, encoding: str = "decimal") -> dict:
    diag_names = list(traj.diagnostics)
    n_state = len(traj.var_names)
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
            {"time": row[0],
             "state": list(row[1:1 + n_state]),
             "diagnostics": dict(zip(diag_names, row[1 + n_state:]))}
            for row in zip(*_format_columns(traj, encoding))
        ],
    }
