"""Evaluators, integrators, pole stops, transport, residuals, export."""

import copy
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from weylflow import catalog as cat
from weylflow import exprtext as et
from weylflow import flows as fl
from weylflow import numerics as num
from weylflow import symkernel as sk
from weylflow import weyl as wl

from trajectory_files import trajectory_from_csv, trajectory_from_json

A42 = cat.build_system(cat.SPECS["A4_2"])
A11 = cat.build_system(cat.SPECS["A1_1"])
PDE = cat.build_system(cat.SPECS["PDE_A1_1"])

PDE_PARAMS = {"a0": F(1, 2), "a1": F(-1, 2)}
PDE_ONES = {"q1": 1, "p1": 1, "q2": 1, "p2": 1}


def test_evaluator_matches_exact_arithmetic():
    ham = A42.hamiltonian("t")
    ev = num.Evaluator(ham)
    rng = random.Random(1)
    for _ in range(100):
        pt = {n: F(rng.randint(-40, 40), rng.randint(1, 20))
              for n in A42.table.names}
        exact = float(ham.evaluate(pt))
        got = ev(*[float(pt[n]) for n in A42.table.names])
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


def test_evaluator_rational_and_denominator():
    expr = et.parse("(x + z^2)/(w - 1)", A42.table)
    ev = num.Evaluator(expr)
    args = dict.fromkeys(A42.table.names, 0.0)
    args.update(x=1.0, z=2.0, w=3.0)
    vec = [args[n] for n in A42.table.names]
    assert ev(*vec) == pytest.approx(2.5, abs=1e-15)
    # a compiled flow returns exactly the values it was asked for
    flow = num._compile_flow(A42.table, "t", ("x", "z", "w"),
                             [expr.num, expr.den], {})
    assert flow(0.0, 1.0, 2.0, 3.0) == (5.0, 2.0)
    assert ev(*vec) == 5.0 / 2.0
    with pytest.raises(ValueError):
        num.Evaluator(expr, arg_names=("x", "z"))


def test_import_does_not_load_scipy():
    # scipy costs most of a cold start, so the import keeps it out
    code = ("import sys, weylflow; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(num.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def _src_env(**extra):
    """The environment of a child Python that imports this checkout."""
    src = str(Path(num.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_rk45_integrate_loads_neither_scipy_nor_numpy(tmp_path):
    argv = ["integrate", "--system", "A1_1", "--initial", "x=1,y=0,z=1,w=1",
            "--params", "a0=1/3,a1=2/3", "--span", "0:0.1",
            "--method", "rk45", "--out", str(tmp_path / "run.csv")]
    code = ("import sys; from weylflow import cli; "
            f"code = cli.main({argv!r}); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_src_env(), timeout=60)
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "run.csv").read_text().count("\n") > 10


def _flows_and_maps():
    """(system, time, components) for every flow of every system, and for
    every Backlund generator's rules along each flow (some rational)."""
    for system_id in cat.SYSTEM_IDS:
        sys_ = cat.build_system(cat.SPECS[system_id])
        dynamical = sys_.table.symbols(sk.DYNAMICAL)
        for tsym in sys_.times:
            yield sys_, tsym, fl.hamiltonian_vector_field(sys_, tsym).components
            for gen in wl.generators(sys_).values():
                yield sys_, tsym, tuple((n, gen.rule(n)) for n in dynamical)


def _flow_args(sys_, tsym, var_names, state, params, t):
    """The argument vector of a per-component evaluator at a point of a
    flow: the flow's time bound, every other time at 0.0."""
    args = dict.fromkeys(sys_.table.names, 0.0)
    args.update(zip(var_names, state))
    args.update((n, float(v)) for n, v in params.items())
    args[tsym] = t
    return [args[n] for n in sys_.table.names]


def test_fused_flow_matches_per_component_evaluators():
    rng = random.Random(6)
    for sys_, tsym, components in _flows_and_maps():
        # the numerator and the denominator of every component, in turn
        polys = [p for _, e in components for p in (e.num, e.den)]
        evaluators = [num.Evaluator(p) for p in polys]
        for _ in range(20):
            params = {n: F(rng.randint(-30, 30), rng.randint(1, 9))
                      for n in sys_.table.symbols(sk.PARAMETER)}
            var_names = [n for n, _ in components]
            flow = num._compile_flow(sys_.table, tsym, var_names, polys,
                                     params)
            state = [rng.uniform(-2, 2) for _ in components]
            t = rng.uniform(-2, 2)
            vec = _flow_args(sys_, tsym, var_names, state, params, t)
            assert flow(t, *state) == tuple(ev(*vec) for ev in evaluators)


def test_every_flow_is_polynomial():
    # the integrators stop only on a non-finite state (rk4) or a step-size
    # underflow (rk45), which is all a polynomial field needs: its
    # singularities are movable poles, never zeros of a denominator
    rng = random.Random(7)
    for system_id in cat.SYSTEM_IDS:
        sys_ = cat.build_system(cat.SPECS[system_id])
        for tsym in sys_.times:
            components = fl.hamiltonian_vector_field(sys_, tsym).components
            assert all(e.den.is_constant() for _, e in components), tsym
            params = {n: F(rng.randint(-30, 30), rng.randint(1, 9))
                      for n in sys_.table.symbols(sk.PARAMETER)}
            var_names = [n for n, _ in components]
            # the field as integrate compiles it gives each component's
            # rational value to the bit
            flow = num._compile_flow(sys_.table, tsym, var_names,
                                     [e.as_polynomial() for _, e in components],
                                     params)
            state = [rng.uniform(-2, 2) for _ in components]
            t = rng.uniform(-2, 2)
            vec = _flow_args(sys_, tsym, var_names, state, params, t)
            assert flow(t, *state) == tuple(num.Evaluator(e)(*vec)
                                            for _, e in components)


def test_rk4_first_integral_drift_within_tolerance():
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 1.0),
                         method="rk4", step=1e-3)
    assert not traj.singular_abort
    drift = num.first_integral_drift(traj)
    assert set(drift) == {"K1", "K2", "K3"}
    assert all(v <= 1e-6 for v in drift.values()), drift


def test_rk4_drift_under_other_flows():
    # the t3 flow traverses the t1 orbit at speed |K1| ~ 2.5, so its span
    # stops short of the pulled-in pole
    for tsym, span in (("t2", (0.0, 1.0)), ("t3", (0.0, 0.3))):
        traj = num.integrate(PDE, tsym, PDE_ONES, PDE_PARAMS, span,
                             method="rk4", step=1e-3)
        assert not traj.singular_abort
        assert all(v <= 1e-6 for v in num.first_integral_drift(traj).values())


def test_rk4_fourth_order_convergence():
    drifts = []
    for h in (4e-2, 2e-2, 1e-2):
        traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 1.0),
                             method="rk4", step=h)
        drifts.append(max(num.first_integral_drift(traj).values()))
    assert drifts[0] / drifts[1] >= 8
    assert drifts[1] / drifts[2] >= 8


def test_origin_is_fixed_point_at_zero_shift():
    traj = num.integrate(PDE, "t1", {"q1": 0, "p1": 0, "q2": 0, "p2": 0},
                         {"a0": 0, "a1": 0}, (0.0, 1.0), method="rk4",
                         step=1e-2)
    assert all(v == 0.0 for state in traj.states for v in state)


def test_zero_span_single_sample():
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.0))
    assert len(traj.times) == 1 and traj.times[0] == 0.0


def test_integrate_validates_inputs():
    with pytest.raises(sk.RelationError):
        num.integrate(PDE, "t1", PDE_ONES, {"a0": 1, "a1": 1}, (0.0, 0.1))
    with pytest.raises(ValueError):
        num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.1),
                      method="rk4", step=None)
    with pytest.raises(ValueError):
        num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.1),
                      method="euler")


def test_integrate_validates_initial_state():
    with pytest.raises(sk.SymbolError, match="p2"):
        num.integrate(PDE, "t1", {"q1": 1, "p1": 1, "q2": 1}, PDE_PARAMS,
                      (0.0, 0.1))
    with pytest.raises(sk.SymbolError, match="'q'"):
        num.integrate(PDE, "t1", {**PDE_ONES, "q": 3}, PDE_PARAMS, (0.0, 0.1))
    with pytest.raises(sk.SymbolError, match="'a0'"):
        num.integrate(PDE, "t1", {**PDE_ONES, "a0": 3}, PDE_PARAMS, (0.0, 0.1))
    # time symbols may ride along, as Backlund transport passes them
    traj = num.integrate(PDE, "t1", {**PDE_ONES, "t2": 5}, PDE_PARAMS,
                         (0.0, 0.0))
    assert traj.states == [(1.0, 1.0, 1.0, 1.0)]


def test_a42_energy_balance_against_quadrature():
    # dH/dt = 2x along the flow, so H(end) - H(start) = integral of 2x dt;
    # the solution from this seed has a movable pole near t = 0.515, so the
    # balance is checked on a pre-pole window
    traj = num.integrate(A42, "t", {"x": 1, "y": 0, "z": 1, "w": 1},
                         {"a0": 1, "a1": 0, "a2": 0}, (0.0, 0.4),
                         method="rk4", step=1e-3)
    assert not traj.singular_abort
    h_values = traj.diagnostics["H"]
    xs = [s[0] for s in traj.states]
    # trapezoid quadrature of 2x over the recorded samples
    integral = 0.0
    for k in range(len(traj.times) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        integral += dt * (2 * xs[k] + 2 * xs[k + 1]) / 2
    assert abs((h_values[-1] - h_values[0]) - integral) <= 1e-5


def test_a42_blowup_flags_partial_trajectory():
    traj = num.integrate(A42, "t", {"x": 1, "y": 0, "z": 1, "w": 1},
                         {"a0": 1, "a1": 0, "a2": 0}, (0.0, 1.0),
                         method="rk4", step=1e-3)
    assert traj.singular_abort
    assert 0.4 < traj.flags["abort_time"] < 0.6


def _pole_flow(s, y):
    """dy/ds = 1/(1 - y), as the float expression a compiled rational
    field gave for it: its numerator over its denominator."""
    return (-1.0 / (y + -1.0),)


def test_singularity_guard_flags_partial_trajectory():
    # dy/dt = 1/(1 - y) from y = 0 reaches y = 1 at t = 1/2, where the
    # adaptive method's step size underflows; that ends the run, flagged,
    # keeping the accepted steps
    times, states, dense, flags = num._integrate_runtime(
        _pole_flow, [0.0], (0.0, 1.0), "rk45", None, 1e-12, 1e-12)
    assert flags["singular_abort"]
    assert flags["abort_time"] == times[-1]
    assert 0.49 < times[-1] < 0.51
    assert times[0] == 0.0 and states[0] == (0.0,)
    assert dense(times[-1]) == pytest.approx(states[-1])


def reference_rk4(flow, y0, span, step):
    """The rk4 loop over lists that the generated kernel replaced: times,
    states, derivatives and flags."""
    t0, t1 = span
    flags = {"singular_abort": False, "abort_time": None}
    n = max(1, round(abs(t1 - t0) / step))
    h = (t1 - t0) / n
    t = t0
    y = [float(v) for v in y0]
    f = flow(t, *y)
    times, states, derivs = [t], [tuple(y)], [f]
    for _ in range(n):
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
        derivs.append(f)
    return times, states, derivs, flags


def _field_flow(sys_, tsym, params):
    """The compiled field of one flow and its state variables' names."""
    components = fl.hamiltonian_vector_field(sys_, tsym).components
    var_names = [n for n, _ in components]
    return num._compile_flow(sys_.table, tsym, var_names,
                             [e.as_polynomial() for _, e in components],
                             params), var_names


def _rk4_cases():
    """(label, flow, y0, span, step) for the kernel tests."""
    single = {"x": 1, "y": 0, "z": 1, "w": 1}
    starts = {"A4_2": (single, {"a0": F(1, 3), "a1": F(1, 5), "a2": F(2, 15)}),
              "A1_1": (single, {"a0": F(1, 3), "a1": F(2, 3)}),
              "PDE_A1_1": (PDE_ONES, PDE_PARAMS)}

    def case(label, sys_, tsym, start, params, span, step):
        flow, var_names = _field_flow(sys_, tsym, params)
        return label, flow, [float(F(start[n])) for n in var_names], span, step

    for sys_ in (A42, A11, PDE):
        start, params = starts[sys_.id]
        for tsym in sys_.times:
            yield case(f"{sys_.id}-{tsym}", sys_, tsym, start, params,
                       (0.0, 0.05), 1e-3)
    yield case("backward", PDE, "t2", PDE_ONES, PDE_PARAMS, (0.0, -0.05), 1e-3)
    yield case("one-step", PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.01), 0.5)
    yield case("int-span", A11, "t", single, starts["A1_1"][1], (0, 1), 1e-2)
    # a polynomial field into the movable pole near t = 0.514: rows of
    # 1e95 are stored before the step that leaves a non-finite value
    yield case("A4_2-pole", A42, "t", single, starts["A4_2"][1], (0.0, 1.0),
               1e-3)
    # no denominator at all, and the first step overflows
    yield case("A1_1-nonfinite", A11, "t", {**single, "x": F(10) ** 300},
               starts["A1_1"][1], (0.0, 1.0), 1e-2)


@pytest.mark.parametrize("case", list(_rk4_cases()), ids=lambda c: c[0])
def test_rk4_kernel_matches_reference_loop(case):
    _, flow, y0, span, step = case
    times, states, derivs, flags = reference_rk4(flow, y0, span, step)
    n = max(1, round(abs(span[1] - span[0]) / step))
    got = num._rk4_kernel(len(y0))(flow, span[0], list(y0),
                                   (span[1] - span[0]) / n, n)
    # repr tells the int start time of an int span from 0.0, and -0.0 from
    # 0.0
    assert repr(got) == repr((times, states, flags["abort_time"]))
    # the kernel keeps no derivatives: dense output evaluates the flow again
    # at a node, and must get the bits the reference loop stored there (repr
    # also prints a non-finite derivative, where nan != nan)
    for t, y, f in zip(got[0], got[1], derivs, strict=True):
        assert repr(flow(t, *y)) == repr(f)
    run = num._integrate_runtime(flow, y0, span, "rk4", step, 1e-12, 1e-12)
    assert repr((run[0], run[1], run[3])) == repr((times, states, flags))


def test_rk4_cases_reach_every_exit():
    # a full run, and a step that leaves a non-finite value, which is not
    # stored
    exits, runs = {}, {}
    for label, flow, y0, span, step in _rk4_cases():
        times, states, _, flags = runs[label] = reference_rk4(
            flow, y0, span, step)
        abort = flags["abort_time"]
        exits[label] = "full" if abort is None else "non-finite"
        assert abort is None or abort != times[-1], label
    assert exits["A4_2-pole"] == exits["A1_1-nonfinite"] == "non-finite"
    assert exits["one-step"] == exits["int-span"] == "full"
    assert len(runs["one-step"][0]) == 2
    assert type(runs["int-span"][0][0]) is int
    assert max(max(map(abs, y)) for y in runs["A4_2-pole"][1]) > 1e90
    assert len(runs["A1_1-nonfinite"][0]) == 1


@pytest.mark.parametrize("span", [(0.0, 0.5), (0.0, -0.5)],
                         ids=["forward", "backward"])
def test_rk4_dense_output_on_forward_and_backward_spans(span):
    rk4 = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, span, method="rk4",
                        step=1e-2)
    rk45 = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, span, method="rk45")
    assert not rk4.singular_abort and len(rk4.times) == 51
    for t, y in zip(rk4.times, rk4.states):
        assert rk4.state_at(t) == y
    for a, b in zip(rk4.times, rk4.times[1:]):
        mid = (a + b) / 2
        assert rk4.state_at(mid) == pytest.approx(rk45.state_at(mid), abs=1e-6)


def test_rk45_dense_output_takes_each_first_stage_where_the_run_did():
    # the loop evaluates the first stage of step k at the end of step k - 1
    # as it computed it, times[k-1] + (times[k] - times[k-1]), which need
    # not round to times[k]; here it is 0.0, not 1e-20
    calls = []

    def flow(t, y):
        calls.append(t)
        return (-y,)

    times, states = [1.0, 1e-20, 0.5], [(1.0,), (2.0,), (3.0,)]
    num._dp_step(flow, times, states, 1, 0.25)
    assert calls[0] == 1.0 + (1e-20 - 1.0) == 0.0
    calls.clear()
    num._dp_step(flow, times, states, 0, 0.5)
    assert calls[0] == times[0]


def test_import_compiles_no_rk4_kernel():
    code = ("import weylflow; from weylflow import numerics as n; "
            "print(n._RK4_KERNELS); "
            "weylflow.integrate(weylflow.build_system("
            "weylflow.catalog.SPECS['A1_1']), 't', "
            "{'x': 1, 'y': 0, 'z': 1, 'w': 1}, {'a0': 1, 'a1': 0}, (0, 0.1), "
            "method='rk4', step=0.05); print(sorted(n._RK4_KERNELS))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_src_env(), timeout=60)
    assert out.stdout.split("\n")[:2] == ["{}", "[4]"]


def test_import_builds_no_system():
    code = ("import weylflow; from weylflow import catalog, holomorphy, weyl; "
            "print([f.cache_info().currsize for f in (weyl.generators, "
            "catalog.build_system, holomorphy.charts)])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_src_env(), timeout=60)
    assert out.stdout == "[0, 0, 0]\n"


def test_path_commutation():
    for order in ((1, 2), (1, 3), (2, 3)):
        d = num.path_commutation_check(PDE, PDE_ONES, PDE_PARAMS, 0.1, order)
        assert d <= 1e-7, (order, d)
    assert num.path_commutation_check(PDE, PDE_ONES, PDE_PARAMS, 0.1, (2, 2)) \
        <= 1e-12


@pytest.mark.parametrize("system_id,gen,initial,params", [
    ("A4_2", "s2", {"x": 1, "y": 0, "z": 1, "w": 1},
     {"a0": F(1, 3), "a1": F(1, 5), "a2": F(2, 15)}),
    ("A1_1", "s1", {"x": 1, "y": 0, "z": 1, "w": 1},
     {"a0": F(1, 3), "a1": F(2, 3)}),
    ("PDE_A1_1", "s1", PDE_ONES, PDE_PARAMS),
])
def test_backlund_transport(system_id, gen, initial, params):
    sys_ = cat.build_system(cat.SPECS[system_id])
    rep = num.backlund_solution_check(sys_, gen, initial, params, (0.0, 0.5))
    assert not rep.flagged
    assert rep.sup_error <= 1e-6, rep.as_dict()


def test_backlund_transport_backward_span():
    # the samples run toward span[1] = -0.1, so the comparison must not stop
    # at the first one
    rep = num.backlund_solution_check(A11, "s0", {"x": 1, "y": 0, "z": 1, "w": 1},
                                      {"a0": F(1, 3), "a1": F(2, 3)}, (0.0, -0.1))
    assert not rep.flagged
    assert rep.samples > 1, rep.as_dict()
    assert rep.sup_error <= 1e-9, rep.as_dict()


def test_backlund_transport_skips_samples_near_a_pole_of_the_map(monkeypatch):
    # every |den| of the s0 rules is below this guard, so every sample is
    # skipped, before any division, and the report is flagged
    monkeypatch.setattr(num, "GUARD_EPS_DEFAULT", 1e300)
    rep = num.backlund_solution_check(A11, "s0", {"x": 1, "y": 0, "z": 1, "w": 1},
                                      {"a0": F(1, 3), "a1": F(2, 3)}, (0.0, 0.1))
    assert rep.flagged and rep.samples == 0, rep.as_dict()


def test_backlund_identity_generator():
    rep = num.backlund_solution_check(A11, "s1", {"x": 1, "y": 0, "z": 1, "w": 1},
                                      {"a0": 1, "a1": 0}, (0.0, 0.5))
    assert rep.sup_error <= 1e-9


def test_backlund_error_monotone_in_tolerance():
    errs = []
    for tol in (1e-8, 1e-10, 1e-12):
        rep = num.backlund_solution_check(
            A42, "s2", {"x": 1, "y": 0, "z": 1, "w": 1},
            {"a0": F(1, 3), "a1": F(1, 5), "a2": F(2, 15)}, (0.0, 0.5), tol=tol)
        errs.append(rep.sup_error)
    assert errs[0] > errs[1] > errs[2]


def test_scalar_residuals_small_along_trajectory():
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.5),
                         method="rk45", atol=1e-12, rtol=1e-12)
    rep = num.scalar_residual_check(PDE, traj, PDE_PARAMS)
    assert rep.used > 0
    assert max(rep.max_residuals) <= 1e-6, rep.as_dict()


def test_scalar_residual_two_evaluation_paths_agree():
    # closed form and pushforward of the u_t2 equation agree pointwise
    from weylflow import flows as fl
    new = fl.reduction_map(PDE).new_table
    printed = {name: text for name, *_, text in PDE.spec.reduction.printed}
    closed = num.Evaluator(et.parse(printed["u_t2"], new))
    pushed = num.Evaluator(
        sk.reduce_parameters(fl.reduced_fields(PDE)["t2"].component("z"),
                             PDE.relation))
    rng = random.Random(3)
    for _ in range(25):
        args = {n: rng.uniform(-2, 2) for n in new.names}
        args["a1"] = -args["a0"]
        if abs(args["z"]) < 0.2 or abs(8 * args["z"] ** 3 + args["z"]
                                       - 4 * args["x"]) < 0.2:
            continue
        vec = [args[n] for n in new.names]
        a, b = closed(*vec), pushed(*vec)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_scalar_residual_singular_samples_are_skipped():
    # craft a state on the singular locus 8u^3 + u - 4u'' = 0: with q2 = 1,
    # x = 9/4 needs q1 = -1
    singular = (F(-1), F(1), F(1), F(1))
    fine = (F(1), F(1), F(1), F(1))
    traj = num.Trajectory(
        "PDE_A1_1", "t1", ("q1", "p1", "q2", "p2"), [0.0, 0.1],
        [tuple(map(float, singular)), tuple(map(float, fine))],
        dict(PDE_PARAMS), "rk4", {})
    rep = num.scalar_residual_check(PDE, traj, PDE_PARAMS)
    assert rep.skipped == 1 and rep.used == 1


def test_scalar_residual_all_skipped_raises():
    singular = (-1.0, 1.0, 1.0, 1.0)
    traj = num.Trajectory("PDE_A1_1", "t1", ("q1", "p1", "q2", "p2"), [0.0],
                          [singular], dict(PDE_PARAMS), "rk4", {})
    with pytest.raises(num.SingularityAbort):
        num.scalar_residual_check(PDE, traj, PDE_PARAMS)


def test_scalar_residual_rejects_wrong_trajectory():
    traj = num.integrate(PDE, "t2", PDE_ONES, PDE_PARAMS, (0.0, 0.0))
    with pytest.raises(ValueError):
        num.scalar_residual_check(PDE, traj, PDE_PARAMS)


def test_diagnostics_columns_per_system():
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.01),
                         method="rk4", step=1e-2)
    assert sorted(traj.diagnostics) == ["K1", "K2", "K3", "f0", "f1"]
    traj = num.integrate(A42, "t", {"x": 1, "y": 0, "z": 1, "w": 1},
                         {"a0": 1, "a1": 0, "a2": 0}, (0.0, 0.01),
                         method="rk4", step=1e-2)
    assert sorted(traj.diagnostics) == ["H", "f0", "f1", "f2"]


def test_diagnostics_over_several_blocks_match_each_row():
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.6),
                         method="rk4", step=1e-3)
    assert len(traj.times) > 2 * num._BLOCK_ROWS
    exprs = dict(zip(traj.diagnostics, [h for _, h in PDE.hamiltonians]
                     + [f for f, _ in PDE.divisors]))
    for name, values in traj.diagnostics.items():
        ev = num.Evaluator(exprs[name])
        expected = []
        for t, y in zip(traj.times, traj.states):
            point = {**dict(zip(traj.var_names, y)), "t1": t, "t2": 0.0,
                     "t3": 0.0, **{n: float(v) for n, v in PDE_PARAMS.items()}}
            expected.append(ev(*(point[n] for n in ev.arg_names)))
        assert values == expected, name


@pytest.mark.parametrize("encoding", ["decimal", "hex"])
def test_export_round_trip_bit_exact(encoding):
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.05),
                         method="rk4", step=1e-2)
    text = num.trajectory_to_csv(traj, encoding)
    times, states, diags = trajectory_from_csv(text)
    assert times == traj.times
    assert states == [tuple(s) for s in traj.states]
    assert diags == traj.diagnostics
    doc = num.trajectory_to_json(traj, encoding)
    json.dumps(doc)
    times, states, diags = trajectory_from_json(doc)
    assert times == traj.times and diags == traj.diagnostics


def reference_format_float(v, encoding):
    """The per-cell formatter the column export replaced."""
    if encoding == "hex":
        return float(v).hex()
    return repr(float(v))


def reference_csv(traj, encoding):
    diag_names = list(traj.diagnostics)
    lines = [",".join(["time", *traj.var_names, *diag_names])]
    for k, (t, y) in enumerate(zip(traj.times, traj.states)):
        row = [reference_format_float(t, encoding)]
        row += [reference_format_float(v, encoding) for v in y]
        row += [reference_format_float(traj.diagnostics[n][k], encoding)
                for n in diag_names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_json_samples(traj, encoding):
    return [
        {"time": reference_format_float(t, encoding),
         "state": [reference_format_float(v, encoding) for v in y],
         "diagnostics": {n: reference_format_float(traj.diagnostics[n][k], encoding)
                         for n in traj.diagnostics}}
        for k, (t, y) in enumerate(zip(traj.times, traj.states))]


@pytest.mark.parametrize("encoding", ["decimal", "hex"])
def test_column_export_matches_per_cell_reference(encoding):
    runs = [num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, -0.05),
                          method="rk4", step=1e-2),
            # int span ends: the first time is the int 0
            num.integrate(A11, "t", {"x": 1, "y": 0, "z": 1, "w": 1},
                          {"a0": F(1, 3), "a1": F(2, 3)}, (0, 1),
                          method="rk4", step=0.25),
            num.integrate(A11, "t", {"x": 1, "y": 0, "z": 1, "w": 1},
                          {"a0": F(1, 3), "a1": F(2, 3)}, (0.0, 0.2),
                          method="rk45"),
            # several blocks of rows, the last one partly filled
            num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, -0.6),
                          method="rk4", step=1e-3)]
    assert type(runs[1].times[0]) is int
    assert len(runs[3].times) // num._BLOCK_ROWS >= 2
    assert len(runs[3].times) % num._BLOCK_ROWS
    column = [math.inf, -math.inf, math.nan, -0.0, 5e-324]
    traj = copy.copy(runs[1])
    traj.diagnostics = {**traj.diagnostics, "f9": column[:len(traj.times)]}
    runs.append(traj)
    for traj in runs:
        text = num.trajectory_to_csv(traj, encoding)
        assert text == reference_csv(traj, encoding)
        written = io.StringIO()
        assert num.trajectory_to_csv(traj, encoding, out=written) is None
        assert written.getvalue() == text
        doc = num.trajectory_to_json(traj, encoding)
        assert doc["samples"] == reference_json_samples(traj, encoding)
    lines = num.trajectory_to_csv(runs[-1], encoding).splitlines()
    assert [ln.rsplit(",", 1)[1] for ln in lines[1:4]] == ["inf", "-inf", "nan"]


def test_csv_export_to_a_file_holds_no_whole_text():
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 1.0),
                         method="rk4", step=1e-4)
    assert len(traj.times) == 10001
    size = len(num.trajectory_to_csv(traj))
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            num.trajectory_to_csv(traj, out=fh)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < size / 4, (peak, size)


def test_times_strictly_monotone():
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.3),
                         method="rk45", atol=1e-10, rtol=1e-10)
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    assert all(len(s) == 4 for s in traj.states)


def test_integrate_rejects_non_finite_or_non_positive_inputs():
    def run(**kwargs):
        args = {"span": (0.0, 0.1), "method": "rk45", **kwargs}
        return num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, **args)

    for kwargs, message in (
            ({"span": (0.0, math.nan)}, "span"),
            ({"span": (-math.inf, 0.0)}, "span"),
            ({"method": "rk4", "step": math.inf}, "step"),
            ({"method": "rk4", "step": math.nan}, "step"),
            ({"atol": 0.0}, "atol"), ({"atol": -1e-9}, "atol"),
            ({"atol": math.nan}, "atol"), ({"rtol": math.inf}, "rtol"),
            ({"rtol": 0.0}, "rtol")):
        with pytest.raises(ValueError, match=message):
            run(**kwargs)


def test_rk45_raises_tiny_rtol_to_its_floor(capsys):
    tiny = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.1),
                         atol=1e-14, rtol=1e-15)
    err = capsys.readouterr().err
    floor = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.1),
                          atol=1e-14, rtol=num.RTOL_MIN)
    assert capsys.readouterr().err == ""
    assert err.count("\n") == 1 and "rtol 1e-15" in err
    assert tiny.times == floor.times and tiny.states == floor.states


# ---------------------------------------------------------------------------
# rk45 against scipy's RK45
#
# The port sums left to right without fused multiply-add.  scipy does the
# same sums in BLAS, whose kernels for FMA-capable CPUs fuse in an order of
# their own, so the reference runs in a child process on OpenBLAS's Nehalem
# kernel (no FMA), chosen before numpy loads, and first checks that its
# sums are plain.

def _rk45_cases():
    """name -> (flow, y0, span, atol, rtol)."""
    starts = {"A4_2": ("x=1,y=0,z=1,w=1", "a0=1/3,a1=1/5,a2=2/15", 1.0),
              "A1_1": ("x=1,y=0,z=1,w=1", "a0=1/3,a1=2/3", 0.5),
              "PDE_A1_1": ("q1=1,p1=1,q2=1,p2=1", "a0=1/2,a1=-1/2", 0.5)}
    cases = {}
    for system_id, (start, params, end) in starts.items():
        sys_ = cat.build_system(cat.SPECS[system_id])
        initial = dict(kv.split("=") for kv in start.split(","))
        pv = {k: F(v) for k, v in (kv.split("=") for kv in params.split(","))}
        for tsym in sys_.times:
            flow, var_names = _field_flow(sys_, tsym, pv)
            y0 = [float(F(initial[n])) for n in var_names]
            # A4_2 runs into its pole and stops when the step underflows
            cases[f"{system_id}-{tsym}"] = (flow, y0, (0.0, end),
                                            1e-12, 1e-12)
            if tsym == "t1":
                cases[f"{system_id}-{tsym}-backward"] = (
                    flow, y0, (0.0, -0.3), 1e-10, 1e-10)
            if system_id == "A1_1":
                # the field overflows at the start: no step is accepted
                cases["A1_1-overflow"] = (flow, [1e300, *y0[1:]],
                                          (0.0, 1.0), 1e-12, 1e-12)
    # dy/dt = 1/(1 - y) reaches y = 1 at t = 1/2, where the step underflows
    cases["pole"] = (_pole_flow, [0.0], (0.0, 1.0), 1e-12, 1e-12)
    return cases


def _rk45_record(times, states, dense, flags):
    """A run as JSON-ready floats, with dense output at fixed points: nine
    across the run, one step time and one past the end (none when no step
    was taken)."""
    t0, t_end = times[0], times[-1]
    points = [t0 + k * (t_end - t0) / 8 for k in range(9)]
    points += [times[len(times) // 2], t_end + (t_end - t0) / 64]
    return {"times": list(times), "states": [list(s) for s in states],
            "flags": [flags["singular_abort"], flags["abort_time"]],
            "dense": [[t, list(dense(t))] for t in points]
            if len(times) > 1 else None}


def _solve_ivp_reference(flow, y0, span, atol, rtol):
    """The rk45 branch of ``numerics._integrate_runtime`` as scipy's
    solve_ivp computes it."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: flow(t, *y), span,
                    list(map(float, y0)), method="RK45", rtol=rtol,
                    atol=atol, dense_output=True)
    flags = {"singular_abort": False, "abort_time": None}
    if sol.status != 0:
        flags.update(singular_abort=True,
                     abort_time=float(sol.t[-1]) if len(sol.t) else span[0])
    times = [float(t) for t in sol.t]
    states = [tuple(float(v) for v in sol.y[:, i]) for i in range(len(times))]
    dense = (lambda t: tuple(float(v) for v in sol.sol(t)))
    return times, states, dense, flags


def _assert_blas_sums_left_to_right():
    """np.dot, K.T @ P and np.linalg.norm equal plain left-to-right sums on
    random 7x4 probes, as they do without FMA and fail to with it."""
    import numpy as np

    def plain(xs, ws):
        total = 0.0
        for x, w in zip(xs, ws):
            total += x * w
        return total

    rng = random.Random(9)
    for _ in range(20):
        K = np.array([[rng.uniform(-3, 3) for _ in range(4)]
                      for _ in range(7)])
        P = np.array([[rng.uniform(-3, 3) for _ in range(4)]
                      for _ in range(7)])
        a = np.array([rng.uniform(-3, 3) for _ in range(7)])
        cols, p_cols = K.T.tolist(), P.T.tolist()
        assert np.dot(K.T, a).tolist() == [plain(c, a.tolist()) for c in cols]
        assert (K.T @ P).tolist() == [[plain(c, pc) for pc in p_cols]
                                      for c in cols]
        v = cols[0]
        assert float(np.linalg.norm(np.array(v))) == math.sqrt(plain(v, v))


def test_rk45_matches_scipy_rk45_on_non_fma_blas():
    if importlib.util.find_spec("scipy") is None:
        pytest.skip("scipy (the test extra) is not installed")
    child = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        timeout=600, env=_src_env(OPENBLAS_CORETYPE="Nehalem"))
    assert child.returncode == 0, child.stderr
    reference = json.loads(child.stdout)
    assert sorted(reference) == sorted(_rk45_cases())
    for name, (flow, y0, span, atol, rtol) in _rk45_cases().items():
        port = _rk45_record(*num._integrate_runtime(
            flow, y0, span, "rk45", None, atol, rtol))
        assert port == reference[name], name


if __name__ == "__main__":
    # the child of test_rk45_matches_scipy_rk45_on_non_fma_blas
    _assert_blas_sums_left_to_right()
    records = {name: _rk45_record(*_solve_ivp_reference(*case))
               for name, case in _rk45_cases().items()}
    print(json.dumps(records))
