"""Vector fields, flow commutation, divisor dynamics, scalar reduction."""

from fractions import Fraction as F

import pytest

from weylflow import catalog as cat
from weylflow import exprtext as et
from weylflow import flows as fl
from weylflow import holomorphy as hol
from weylflow import symkernel as sk

A42 = cat.build_system("A4_2")
A11 = cat.build_system("A1_1")
PDE = cat.build_system("PDE_A1_1")


def test_field_components_match_hand_derivatives():
    X = fl.hamiltonian_vector_field(A42, "t")
    t = A42.table
    assert X.component("x") == et.parse("4*x*y - 2*a1 + 2*z*w", t)
    assert X.component("z") == et.parse("z^2 - w + x + 2*y*z", t)
    X1 = fl.hamiltonian_vector_field(PDE, "t1")
    assert X1.component("q2") == et.parse("-1/2*p2 + p1*q2", PDE.table)


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_field_agrees_with_poisson_construction(system_id):
    sys_ = cat.build_system(system_id)
    for tsym in sys_.times:
        X = fl.hamiltonian_vector_field(sys_, tsym)
        ham = sys_.hamiltonian(tsym)
        for v in sys_.table.symbols(sk.DYNAMICAL):
            via_bracket = sk.poisson_bracket(
                ham, sk.Polynomial.variable(sys_.table, v), sys_.pairing)
            assert sk.is_identically_equal(via_bracket, X.component(v))


def test_pde_lie_brackets_vanish():
    fields = {tsym: fl.hamiltonian_vector_field(PDE, tsym) for tsym in PDE.times}
    for a in PDE.times:
        for b in PDE.times:
            br = fl.lie_bracket(fields[a], fields[b])
            assert all(sk.reduce_parameters(c, PDE.relation).is_zero()
                       for _, c in br.components), (a, b)


def test_lie_bracket_of_field_with_itself_is_zero():
    X = fl.hamiltonian_vector_field(PDE, "t1")
    br = fl.lie_bracket(X, X)
    assert all(c.is_zero() for _, c in br.components)


def test_pde_first_integrals():
    for m in PDE.times:
        K = PDE.hamiltonian(m)
        for j in PDE.times:
            d = fl.time_derivative_along(PDE, K, j)
            assert sk.reduce_parameters(d, PDE.relation).is_zero(), (m, j)


def test_nonautonomous_hamiltonian_total_derivative():
    # dH/dt along the flow equals the explicit t-derivative: 2x resp. x
    d = fl.time_derivative_along(A42, A42.hamiltonian("t"), "t")
    assert d == et.parse("2*x", A42.table)
    d = fl.time_derivative_along(A11, A11.hamiltonian("t"), "t")
    assert d == et.parse("x", A11.table)


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_divisor_invariance_every_divisor_every_time(system_id):
    sys_ = cat.build_system(system_id)
    for tsym in sys_.times:
        for i in range(len(sys_.divisors)):
            rep = fl.divisor_invariance(sys_, tsym, i)
            assert rep.passed, rep.as_dict()


def test_divisor_closed_form_regressions():
    # df1/dt = (4y + 2z) f1 - 2 a1 for the first system
    f1 = A42.divisors[1][0]
    d = fl.time_derivative_along(A42, f1, "t")
    closed = et.parse("(4*y + 2*z)*(x + z^2) - 2*a1", A42.table)
    assert sk.is_identically_equal(d, closed)
    # dw/dt = -(2y + 2z) w - a0
    d = fl.time_derivative_along(A42, A42.divisors[0][0], "t")
    assert sk.is_identically_equal(d, et.parse("-(2*y + 2*z)*w - a0", A42.table))
    # df0/dt = 2y f0 - a0 for the degenerate system
    d = fl.time_derivative_along(A11, A11.divisors[0][0], "t")
    assert sk.is_identically_equal(d, et.parse("2*y*(x + z^2) - a0", A11.table))


def test_divisor_reports_carry_cofactors_and_affine_constants():
    rep = fl.divisor_invariance(A42, "t", 1)
    assert rep.cofactor == et.parse_polynomial("4*y + 2*z", A42.table)
    assert rep.affine_constant == F(-2)
    rep = fl.divisor_invariance(A11, "t", 0)
    assert rep.cofactor == et.parse_polynomial("2*y", A11.table)
    assert rep.affine_constant == F(-1)
    rep = fl.divisor_invariance(A42, "t", 2)
    assert rep.affine_constant == F(2)


def test_reduction_map_inverse_closed_forms():
    vm = fl.reduction_map()
    inv = dict(vm.inverse)
    new = fl.reduced_table()
    assert sk.is_identically_equal(inv["q1"], et.parse("1/8 - x/(2*z)", new))
    assert inv["q2"] == et.parse("z", new)


def test_reduction_map_round_trip():
    assert hol.verify_chart_roundtrip(fl.reduction_map())
    assert hol.verify_chart_roundtrip(fl.reduction_map(), "sampled", seed=11)


def test_pushforward_t1_flow_is_the_jet_prolongation():
    rep = fl.scalar_reduction_identity()
    flags = dict(rep.checks)
    assert flags["xdot_t1_is_y"]
    assert flags["zdot_t1_is_w"]
    assert flags["wdot_t1_is_x"]


def test_scalar_reduction_identities_all_pass():
    rep = fl.scalar_reduction_identity()
    assert rep.passed, rep.as_dict()


def test_pushforward_matches_direct_chain_rule_at_points():
    import random
    vm = fl.reduction_map()
    pushed = fl.reduced_fields()
    rng = random.Random(7)
    fields = {tsym: fl.hamiltonian_vector_field(PDE, tsym) for tsym in PDE.times}
    done = 0
    while done < 3:
        pt = {n: sk.random_rational(rng, 20) for n in ("q1", "p1", "q2", "p2")}
        a0 = sk.random_rational(rng, 20)
        pt["a0"], pt["a1"] = a0, -a0
        try:
            new_pt = {n: e.evaluate(pt) for n, e in vm.forward}
        except sk.ZeroDenominatorError:
            continue
        new_pt["a0"], new_pt["a1"] = a0, -a0
        for tsym in PDE.times:
            for v, fwd in vm.forward:
                direct = sum((fwd.derivative(u).evaluate(pt)
                              * fields[tsym].component(u).evaluate(pt)
                              for u in ("q1", "p1", "q2", "p2")), F(0))
                assert direct == pushed[tsym].component(v).evaluate(new_pt)
        done += 1


def test_underived_components_are_not_polynomial():
    # regression for what the derivation actually yields: the six unprinted
    # coefficients close birationally but are not polynomial
    rep = fl.scalar_reduction_identity()
    assert all(not ok for _, ok in rep.polynomial_components), \
        rep.polynomial_components


def test_pushforward_requires_inverse():
    vm = fl.reduction_map()
    broken = fl.VariableMap(vm.old_table, vm.new_table, vm.forward, ())
    with pytest.raises(ValueError):
        fl.pushforward_field(broken, [fl.hamiltonian_vector_field(PDE, "t1")])
