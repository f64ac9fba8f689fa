"""Acceptance criteria, one test per criterion, with a pass/fail line each.

One sub-claim of criterion 10 (polynomiality of the six underived
reduction coefficients) is contradicted by the computation itself: those
coefficients close birationally in the new variables but are rational,
not polynomial.  That check asserts the claim as stated and is an
expected failure; test_flows pins the actual derived behavior.  Every
other criterion passes.
"""

import time
from fractions import Fraction as F

from weylflow import catalog as cat
from weylflow import exprtext as et
from weylflow import flows as fl
from weylflow import holomorphy as hol
from weylflow import numerics as num
from weylflow import symkernel as sk
from weylflow import weyl

A42 = cat.build_system(cat.SPECS["A4_2"])
A11 = cat.build_system(cat.SPECS["A1_1"])
PDE = cat.build_system(cat.SPECS["PDE_A1_1"])

PDE_PARAMS = {"a0": F(1, 2), "a1": F(-1, 2)}
PDE_ONES = {"q1": 1, "p1": 1, "q2": 1, "p2": 1}


def _report(number, label, ok):
    print(f"ACCEPTANCE {number:>2} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_01_symmetry():
    start = time.time()
    failures = []
    total = 0
    for system_id in cat.SYSTEM_IDS:
        sys_ = cat.build_system(cat.SPECS[system_id])
        for name, gen in weyl.generators(sys_).items():
            rep = weyl.verify_symmetry(sys_, gen)
            total += len(rep.checks)
            failures += [(system_id, name, c.time_symbol, c.variable)
                         for c in rep.checks if not c.passed]
    elapsed = time.time() - start
    ok = not failures and total == 44 and elapsed < 300
    assert _report(1, f"symmetry ({total} identities, {elapsed:.1f}s)", ok), \
        failures


def test_criterion_02_poisson_commutation():
    ok = True
    for a in PDE.times:
        for b in PDE.times:
            br = sk.poisson_bracket(PDE.hamiltonian(a), PDE.hamiltonian(b),
                                    PDE.pairing)
            ok &= sk.reduce_parameters(br, PDE.relation).is_zero()
    assert _report(2, "poisson commutation {Ki,Kj}=0", ok)


def test_criterion_03_compatibility():
    fields = {t: fl.hamiltonian_vector_field(PDE, t) for t in PDE.times}
    symbolic = all(
        sk.reduce_parameters(c, PDE.relation).is_zero()
        for a in PDE.times for b in PDE.times
        for _, c in fl.lie_bracket(fields[a], fields[b]).components)
    numeric = all(
        num.path_commutation_check(PDE, PDE_ONES, PDE_PARAMS, 0.1, order,
                                   tol=1e-12) <= 1e-7
        for order in ((1, 2), (1, 3), (2, 3)))
    assert _report(3, "compatibility (symbolic + numeric)",
                   symbolic and numeric)


def test_criterion_04_first_integrals():
    symbolic = all(
        sk.reduce_parameters(
            fl.time_derivative_along(PDE, PDE.hamiltonian(m), j),
            PDE.relation).is_zero()
        for m in PDE.times for j in PDE.times)
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 1.0),
                         method="rk4", step=1e-3)
    drift_ok = (not traj.singular_abort
                and all(v <= 1e-6
                        for v in num.first_integral_drift(traj).values()))
    drifts = []
    for h in (4e-2, 2e-2, 1e-2):
        t = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 1.0),
                          method="rk4", step=h)
        drifts.append(max(num.first_integral_drift(t).values()))
    order_ok = drifts[0] / drifts[1] >= 8 and drifts[1] / drifts[2] >= 8
    assert _report(4, "first integrals (dK/dt=0, drift, 4th order)",
                   symbolic and drift_ok and order_ok)


def test_criterion_05_holomorphy_list_and_witness():
    listed = [
        hol.check_polynomiality(hol.charts(A42)[c], A42.hamiltonian("t")).passed
        for c in ("r0", "r1", "r2")]
    listed += [
        hol.check_polynomiality(hol.charts(A11)[c], A11.hamiltonian("t")).passed
        for c in ("r0", "r1")]
    listed += [
        hol.check_polynomiality(hol.charts(PDE)[c],
                                PDE.hamiltonian(t)).passed
        for c in ("R0", "R1") for t in PDE.times]
    perturbed = A42.hamiltonian("t") + sk.Polynomial.variable(A42.table, "x")
    results = [hol.check_polynomiality(c, perturbed)
               for c in hol.charts(A42).values()]
    witnessed = any(not r.passed and r.witness is not None for r in results)
    assert _report(5, "holomorphy list + perturbation witness",
                   all(listed) and witnessed)


def test_criterion_06_ansatz_uniqueness_forward():
    ok = True
    for sys_ in (A42, A11, PDE):
        dims = []
        for alpha in hol.default_alpha_samples(sys_):
            rep = hol.ansatz_solve(sys_, alpha=alpha)
            ok &= rep.consistent and all(m for _, m in rep.membership)
            dims.append(rep.nullspace_dimension)
        ok &= dims[0] == dims[1]
    assert _report(6, "ansatz membership, stable nullspace dims", ok)


def test_criterion_07_invariant_divisors():
    ok = all(fl.divisor_invariance(sys_, t, i).passed
             for sys_ in (A42, A11, PDE)
             for t in sys_.times
             for i in range(len(sys_.divisors)))
    closed1 = sk.is_identically_equal(
        fl.time_derivative_along(A42, A42.divisors[1][0], "t"),
        et.parse("(4*y + 2*z)*(x + z^2) - 2*a1", A42.table))
    closed2 = sk.is_identically_equal(
        fl.time_derivative_along(A11, A11.divisors[0][0], "t"),
        et.parse("2*y*(x + z^2) - a0", A11.table))
    assert _report(7, "invariant divisors + closed forms",
                   ok and closed1 and closed2)


def test_criterion_08_translations_and_orders():
    nm = weyl.named_maps(A42)
    offsets = (weyl.translation_offset(nm["T1"]) == (F(-2), F(1), F(0))
               and weyl.translation_offset(nm["T2"]) == (F(0), F(-1), F(1))
               and weyl.translation_offset(weyl.named_maps(A11)["T"])
               == (F(-2), F(2)))
    involutions = all(weyl.is_involution(g)
                      for sys_ in (A42, A11, PDE)
                      for g in weyl.generators(sys_).values())
    order = weyl.relation_order(A11, 0, 1, 8)
    gens = weyl.generators(A11)
    pair_offset = weyl.translation_offset(weyl.compose(gens["s1"], gens["s0"]))
    justified = (order is weyl.EXCEEDS_MAX and pair_offset is not None
                 and any(v != 0 for v in pair_offset))
    assert _report(8, "translations, involutions, infinite order",
                   offsets and involutions and justified)


def test_criterion_09_exponential_formula():
    ok = True
    for system_id in cat.SYSTEM_IDS:
        sys_ = cat.build_system(cat.SPECS[system_id])
        for i in range(len(sys_.divisors)):
            for v in sys_.table.symbols(sk.DYNAMICAL):
                rep = weyl.exponential_formula_check(
                    sys_, i, sk.Polynomial.variable(sys_.table, v))
                ok &= rep.terminated and bool(rep.matches) and rep.order <= 2
    assert _report(9, "exponential bracket formula, order <= 2", ok)


def test_criterion_10_reduction_chain():
    rep = fl.scalar_reduction_identity(PDE)
    identities = rep.passed
    traj = num.integrate(PDE, "t1", PDE_ONES, PDE_PARAMS, (0.0, 0.5),
                         method="rk45", atol=1e-12, rtol=1e-12)
    residuals = num.scalar_residual_check(PDE, traj, PDE_PARAMS)
    numeric = residuals.used > 0 and max(residuals.max_residuals) <= 1e-6
    assert _report(10, "reduction chain (identities + residuals)",
                   identities and numeric)


def test_criterion_10_underived_components_polynomial():
    # Expected failure: the six underived coefficients are rational, not
    # polynomial (pinned in test_flows); the claim is asserted as stated.
    rep = fl.scalar_reduction_identity(PDE)
    flat = dict(rep.polynomial_components)
    ok = all(flat.values())
    _report(10, f"underived components polynomial {flat}", ok)
    assert ok, "the derived coefficients are rational, not polynomial"


def test_criterion_11_backlund_transport():
    cases = [
        (A42, "s2", {"x": 1, "y": 0, "z": 1, "w": 1},
         {"a0": F(1, 3), "a1": F(1, 5), "a2": F(2, 15)}),
        (A11, "s1", {"x": 1, "y": 0, "z": 1, "w": 1},
         {"a0": F(1, 3), "a1": F(2, 3)}),
        (PDE, "s1", PDE_ONES, PDE_PARAMS),
    ]
    ok = True
    for sys_, gen, initial, params in cases:
        rep = num.backlund_solution_check(sys_, gen, initial, params,
                                          (0.0, 0.5), tol=1e-12)
        ok &= (not rep.flagged) and rep.sup_error <= 1e-6
    errs = []
    for tol in (1e-8, 1e-10, 1e-12):
        rep = num.backlund_solution_check(
            A42, "s2", {"x": 1, "y": 0, "z": 1, "w": 1},
            {"a0": F(1, 3), "a1": F(1, 5), "a2": F(2, 15)}, (0.0, 0.5),
            tol=tol)
        errs.append(rep.sup_error)
    ok &= errs[0] > errs[1] > errs[2]
    assert _report(11, "Backlund transport, monotone in tolerance", ok)
