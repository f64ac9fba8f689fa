"""Charts, polynomiality of transformed Hamiltonians, ansatz solver."""

from fractions import Fraction as F

import pytest

from weylflow import catalog as cat
from weylflow import exprtext as et
from weylflow import flows as fl
from weylflow import holomorphy as hol
from weylflow import symkernel as sk

A42 = cat.build_system(cat.SPECS["A4_2"])
A11 = cat.build_system(cat.SPECS["A1_1"])
PDE = cat.build_system(cat.SPECS["PDE_A1_1"])


# The charts as the catalog spelled them out before they were derived from
# the divisors: the forward rules keyed by the new symbols in table order,
# and the correction.
CATALOG_CHARTS = {
    "A4_2": {
        "r0": ({"x0": "x", "y0": "y", "z0": "1/z",
                "w0": "-(w*z + a0)*z"}, "0"),
        "r1": ({"x1": "-((x + z^2)*y - a1)*y", "y1": "1/y",
                "z1": "z", "w1": "w - 2*y*z"}, "0"),
        "r2": ({"x2": "-((x + y^2 + w + t)*y - a2)*y",
                "y2": "1/y", "z2": "z + y", "w2": "w"}, "y"),
    },
    "A1_1": {
        "r0": ({"x0": "-((x + z^2)*y - a0)*y", "y0": "1/y",
                "z0": "z", "w0": "w - 2*y*z"}, "0"),
        "r1": ({"x1": "-((x + y^2 + w^2 + t)*y - a1)*y",
                "y1": "1/y", "z1": "z + 2*y*w", "w1": "w"}, "y"),
    },
    "PDE_A1_1": {
        "R0": ({"x0": "-((q1 + q2^2)*p1 - a0)*p1", "y0": "1/p1",
                "z0": "q2", "w0": "p2 - 2*p1*q2"}, "0"),
        "R1": ({"x1": "-((q1 + p1^2 + p2^2)*p1 - a1)*p1",
                "y1": "1/p1", "z1": "q2 + 2*p1*p2", "w1": "p2"}, "0"),
    },
}


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_derived_charts_equal_the_catalog_formulas(system_id):
    sys_ = cat.build_system(cat.SPECS[system_id])
    table = sys_.table
    charts = hol.charts(sys_)
    assert list(charts) == list(CATALOG_CHARTS[system_id])
    for name, (rules, correction) in CATALOG_CHARTS[system_id].items():
        chart = charts[name]
        assert chart.forward == tuple((n, et.parse(text, table))
                                      for n, text in rules.items()), name
        assert chart.correction == et.parse_polynomial(correction, table), name


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_derived_charts_are_canonical(system_id):
    # {u, v} of the forward rules under the old pairing is the new pairing's
    # {u, v}: 1 or -1 within a chart pair, 0 everywhere else
    sys_ = cat.build_system(cat.SPECS[system_id])
    old_names = sys_.table.symbols(sk.DYNAMICAL)
    for name, chart in hol.charts(sys_).items():
        renamed = dict(zip(old_names, chart.new_table.symbols(sk.DYNAMICAL)))
        new_pairing = sk.CanonicalStructure(
            tuple((renamed[c], renamed[m]) for c, m in sys_.pairing.pairs))
        for u, fu in chart.forward:
            for v, fv in chart.forward:
                expected = sk.poisson_bracket(
                    sk.Polynomial.variable(chart.new_table, u),
                    sk.Polynomial.variable(chart.new_table, v), new_pairing)
                bracket = sk.poisson_bracket(fu, fv, sys_.pairing)
                assert bracket == expected.num.constant_value(), (name, u, v)


@pytest.mark.parametrize("text,message", [
    ("x*y + z^2", "no member of a canonical pair with coefficient 1"),
    ("w + y", "linear in the momentum y but is not y"),
    ("w + t", "linear in the momentum w but is not w"),
    ("x + z*w", r"the shift of \(z, w\) is not first order"),
    ("x + z^2 + w", r"the shift of \(z, w\) is not first order"),
    ("x + y*z", r"the shift of \(z, w\) is not first order"),
])
def test_divisor_chart_rejects_untested_shapes(text, message):
    f = et.parse_polynomial(text, A42.table)
    with pytest.raises(ValueError, match=message):
        hol._divisor_chart(f, "a0", A42.pairing)


def test_r0_inverse_closed_form():
    r0 = hol.charts(A42)["r0"]
    inv = dict(r0.inverse)
    assert inv["x"] == et.parse("x0", r0.new_table)
    assert inv["y"] == et.parse("y0", r0.new_table)
    assert sk.is_identically_equal(inv["z"], et.parse("1/z0", r0.new_table))
    assert inv["w"] == et.parse("-w0*z0^2 - a0*z0", r0.new_table)


def test_r1_inverse_closed_form():
    r1 = hol.charts(A42)["r1"]
    inv = dict(r1.inverse)
    assert sk.is_identically_equal(inv["y"], et.parse("1/y1", r1.new_table))
    assert sk.is_identically_equal(inv["x"],
                                   et.parse("-x1*y1^2 + a1*y1 - z1^2",
                                            r1.new_table))
    assert sk.is_identically_equal(inv["w"],
                                   et.parse("w1 + 2*z1/y1", r1.new_table))


def test_identity_chart_inverts_to_identity():
    new = sk.VarTable.make(dynamical=("x9", "y9", "z9", "w9"), times=("t",),
                           parameters=("a0", "a1", "a2"))
    forward = tuple((f"{n}9", et.parse(n, A42.table)) for n in ("x", "y", "z", "w"))
    chart = hol.Chart.derive(A42.table, new, forward, system=A42,
                             name="id", correction=sk.Polynomial.zero(A42.table))
    for name, rule in chart.inverse:
        assert rule == et.parse(f"{name}9", new)


def test_noninvertible_rules_error():
    from weylflow.solve import NotInvertibleError
    new = sk.VarTable.make(dynamical=("x9", "y9", "z9", "w9"), times=("t",),
                           parameters=("a0", "a1", "a2"))
    forward = (("x9", et.parse("x^2", A42.table)),
               ("y9", et.parse("y", A42.table)),
               ("z9", et.parse("z", A42.table)),
               ("w9", et.parse("w", A42.table)))
    with pytest.raises(NotInvertibleError):
        hol.Chart.derive(A42.table, new, forward, system=A42, name="bad",
                         correction=sk.Polynomial.zero(A42.table))


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_chart_roundtrips_symbolic_by_default(system_id):
    sys_ = cat.build_system(cat.SPECS[system_id])
    for name, chart in hol.charts(sys_).items():
        assert hol.verify_chart_roundtrip(chart), name


def test_r0_roundtrip_symbolic_spot_check():
    assert hol.verify_chart_roundtrip(hol.charts(A42)["r0"])


def test_linear_pair_step_inverts_a_coupled_map():
    # u = x + y*z and v = x - y*z share x and y once z is solved: the
    # univariate steps stop there and the pair step finishes the inverse
    new = sk.VarTable.make(dynamical=("u", "v", "z9", "w9"), times=("t",),
                           parameters=("a0", "a1", "a2"))
    forward = (("u", et.parse("x + y*z", A42.table)),
               ("v", et.parse("x - y*z", A42.table)),
               ("z9", et.parse("z", A42.table)),
               ("w9", et.parse("w", A42.table)))
    m = fl.VariableMap.derive(A42.table, new, forward)
    inv = dict(m.inverse)
    assert sk.is_identically_equal(inv["x"], et.parse("(u + v)/2", new))
    assert sk.is_identically_equal(inv["y"], et.parse("(u - v)/(2*z9)", new))
    assert hol.verify_chart_roundtrip(m)


def test_singular_linear_pair_errors():
    from weylflow.solve import NotInvertibleError
    new = sk.VarTable.make(dynamical=("u", "v", "z9", "w9"), times=("t",),
                           parameters=("a0", "a1", "a2"))
    forward = (("u", et.parse("x + y", A42.table)),
               ("v", et.parse("2*x + 2*y", A42.table)),
               ("z9", et.parse("z", A42.table)),
               ("w9", et.parse("w", A42.table)))
    with pytest.raises(NotInvertibleError):
        fl.VariableMap.derive(A42.table, new, forward)


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_chart_fields_are_polynomial_on_the_relation(system_id):
    # the flows pushed through each chart are regular there: every
    # component is polynomial once the parameter relation is imposed
    sys_ = cat.build_system(cat.SPECS[system_id])
    for cname, chart in hol.charts(sys_).items():
        fields = [fl.hamiltonian_vector_field(sys_, t) for t in sys_.times]
        for field in fl.pushforward_field(chart, fields):
            for v, comp in field.components:
                image = sk.reduce_parameters(comp, sys_.relation)
                assert image.is_polynomial(), (cname, field.time_symbol, v)


def test_constant_transforms_to_itself():
    r0 = hol.charts(A42)["r0"]
    image = hol.transform_hamiltonian(r0, sk.Polynomial.one(A42.table))
    assert image == sk.RationalExpr.const(r0.new_table, 1)


def test_polynomiality_stated_list():
    H42 = A42.hamiltonian("t")
    for cname in ("r0", "r1", "r2"):
        assert hol.check_polynomiality(hol.charts(A42)[cname], H42).passed
    H11 = A11.hamiltonian("t")
    for cname in ("r0", "r1"):
        assert hol.check_polynomiality(hol.charts(A11)[cname], H11).passed
    for cname in ("R0", "R1"):
        for tsym in PDE.times:
            assert hol.check_polynomiality(hol.charts(PDE)[cname],
                                           PDE.hamiltonian(tsym)).passed


def _with_correction(chart, correction):
    return hol.Chart(chart.old_table, chart.new_table, chart.forward,
                     chart.inverse, chart.system, chart.name, correction)


def test_corrections_are_exactly_as_stated():
    # dropping the +y correction on the corrected charts breaks polynomiality,
    # and adding a spurious +y on the uncorrected ones breaks it too
    H42 = A42.hamiltonian("t")
    r2 = hol.charts(A42)["r2"]
    bare = _with_correction(r2, sk.Polynomial.zero(A42.table))
    assert not hol.check_polynomiality(bare, H42).passed
    # a spurious correction must involve a symbol the chart inverts
    # non-polynomially (+y is r0-polynomial and would be absorbed)
    r0 = hol.charts(A42)["r0"]
    spurious = _with_correction(r0, sk.Polynomial.variable(A42.table, "z"))
    assert not hol.check_polynomiality(spurious, H42).passed
    r1_11 = hol.charts(A11)["r1"]
    bare = _with_correction(r1_11, sk.Polynomial.zero(A11.table))
    assert not hol.check_polynomiality(bare, A11.hamiltonian("t")).passed
    R0 = hol.charts(PDE)["R0"]
    spurious = _with_correction(R0, sk.Polynomial.variable(PDE.table, "p1"))
    assert not hol.check_polynomiality(spurious, PDE.hamiltonian("t1")).passed


def test_perturbed_hamiltonian_rejected_with_witness():
    cases = {"A4_2": ("x", "r2"), "A1_1": ("x", "r1"), "PDE_A1_1": ("q1", "R1")}
    for system_id, (pert, expected_chart) in cases.items():
        sys_ = cat.build_system(cat.SPECS[system_id])
        perturbed = sys_.hamiltonians[0][1] \
            + sk.Polynomial.variable(sys_.table, pert)
        failing = {name: hol.check_polynomiality(chart, perturbed)
                   for name, chart in hol.charts(sys_).items()}
        rejected = {n for n, res in failing.items() if not res.passed}
        assert expected_chart in rejected
        assert failing[expected_chart].witness is not None


@pytest.mark.parametrize("system_id,expected_dim", [
    ("A4_2", 3), ("A1_1", 3), ("PDE_A1_1", 4)])
def test_ansatz_membership_and_dimension(system_id, expected_dim):
    sys_ = cat.build_system(cat.SPECS[system_id])
    dims = []
    for alpha in hol.default_alpha_samples(sys_):
        rep = hol.ansatz_solve(sys_, alpha=alpha)
        assert rep.consistent
        assert all(ok for _, ok in rep.membership), rep.membership
        dims.append(rep.nullspace_dimension)
    assert dims[0] == dims[1]
    # dimensions recorded empirically (1, t, t^2 for the non-autonomous
    # systems; 1, K1, K2, K3 for the autonomous one)
    assert dims[0] == expected_dim


def test_ansatz_nullspace_contents():
    rep = hol.ansatz_solve(A11)
    assert sorted(rep.nullspace_basis) == ["1", "t", "t^2"]
    rep = hol.ansatz_solve(PDE)
    assert "1" in rep.nullspace_basis
    # K1 itself spans one of the nullspace directions
    table = PDE.table
    k1 = PDE.hamiltonian("t1")
    bound = sk.substitute(k1, {"a0": sk.Polynomial.const(table, F(1, 2)),
                               "a1": sk.Polynomial.const(table, F(-1, 2))})
    texts = set(rep.nullspace_basis)
    assert et.poly_text(bound.as_polynomial()) in texts


def test_dropping_any_chart_enlarges_solution_space():
    for sys_ in (A42, A11, PDE):
        full = hol.ansatz_solve(sys_)
        for drop in full.chart_names:
            sub = hol.ansatz_solve(sys_, chart_names=[
                n for n in full.chart_names if n != drop])
            assert sub.nullspace_dimension > full.nullspace_dimension


def test_ansatz_rejects_bad_inputs():
    with pytest.raises(sk.RelationError):
        hol.ansatz_solve(A42, alpha={"a0": 1, "a1": 1, "a2": 1})
    with pytest.raises(ValueError):
        hol.ansatz_solve(PDE, t_degree_bound=2)
    with pytest.raises(ValueError, match="repeated chart"):
        hol.ansatz_solve(A42, chart_names=["r2", "r2"])
    with pytest.raises(ValueError, match="negative time-degree"):
        hol.ansatz_solve(A11, t_degree_bound=-1)


def _substitute_constraints(chart, basis, alpha):
    """Reference assembly: one substitute call per basis monomial."""
    table = chart.old_table
    new = chart.new_table
    bind = {n: sk.RationalExpr.const(new, v) for n, v in alpha.items()}
    for n in new.symbols(sk.DYNAMICAL) + new.symbols(sk.TIME):
        bind[n] = sk.RationalExpr.variable(new, n)
    inverse = {old: sk.substitute(rule, bind, new)
               for old, rule in chart.inverse_rules().items()}

    def negative_parts(image):
        (de, dc), = image.den.terms.items()
        out = {}
        for e, c in image.num.terms.items():
            lau = tuple(a - b for a, b in zip(e, de))
            if min(lau) < 0:
                out[lau] = c / dc
        return out

    rows, rhs = {}, {}
    for col, mono in enumerate(basis):
        image = sk.substitute(sk.Polynomial(table, {mono: 1}), inverse, new)
        for lau, c in negative_parts(image).items():
            rows.setdefault(lau, {})[col] = c
    corr = sk.substitute(chart.correction, inverse, new)
    for lau, c in negative_parts(corr).items():
        rows.setdefault(lau, {})
        rhs[lau] = -c
    return rows, rhs


@pytest.mark.parametrize("system_id,chart_name", [
    (system_id, name) for system_id in cat.SYSTEM_IDS
    for name in hol.charts(cat.build_system(cat.SPECS[system_id]))])
def test_cached_image_assembly_matches_substitute(system_id, chart_name):
    sys_ = cat.build_system(cat.SPECS[system_id])
    chart = hol.charts(sys_)[chart_name]
    basis = hol._ansatz_basis(sys_, 0 if system_id == "PDE_A1_1" else 2)
    shifts = chart.new_table._shifts

    def exponents(key):
        # slot by slot, less the slot of the Laurent monomial 1
        return tuple(((key >> s) & sk._SLOT_MASK) - ((origin >> s) & sk._SLOT_MASK)
                     for s in shifts)

    for alpha in hol.default_alpha_samples(sys_):
        packed_rows, packed_rhs, origin, factor = hol._chart_constraints(
            chart, basis, alpha)
        rows = {exponents(k): {col: F(v, factor) for col, v in row.items()}
                for k, row in packed_rows.items()}
        rhs = {exponents(k): F(v, factor) for k, v in packed_rhs.items()}
        assert len(rows) == len(packed_rows)
        ref_rows, ref_rhs = _substitute_constraints(chart, basis, alpha)
        assert rows == ref_rows
        assert rhs == ref_rhs
        assert any(rhs.values()) == (not chart.correction.is_zero())


def test_report_serializes():
    import json
    rep = hol.ansatz_solve(PDE)
    doc = rep.as_dict()
    json.dumps(doc)
    assert doc["matrix_shape"][1] == 210
