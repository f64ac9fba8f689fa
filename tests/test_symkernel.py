"""Exact arithmetic kernel: ring axioms, division, brackets, equality."""

import random
from fractions import Fraction

import pytest

from weylflow import catalog as cat
from weylflow import exprtext as et
from weylflow import flows
from weylflow import holomorphy as hol
from weylflow import symkernel as sk
from weylflow import weyl

TABLE = sk.VarTable.make(dynamical=("x", "y", "z", "w"), times=("t",),
                         parameters=("a0", "a1", "a2"))
PAIRING = sk.CanonicalStructure((("x", "y"), ("z", "w")))


def var(name):
    return sk.Polynomial.variable(TABLE, name)


def rand_poly(rng, max_terms=5, max_deg=2, bound=6):
    terms = {}
    width = len(TABLE)
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * width
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(width)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-bound, bound),
                                   rng.randint(1, bound))
    return sk.Polynomial(TABLE, terms)


def test_table_rejects_duplicates_and_unknown_classes():
    with pytest.raises(ValueError):
        sk.VarTable(("x", "x"), (sk.DYNAMICAL, sk.DYNAMICAL))
    with pytest.raises(ValueError):
        sk.VarTable(("x",), ("weird",))
    with pytest.raises(sk.SymbolError):
        TABLE.index("nope")


def test_mismatched_tables_error():
    other = sk.VarTable.make(dynamical=("u",))
    with pytest.raises(sk.TableMismatchError):
        var("x") + sk.Polynomial.variable(other, "u")


def test_additive_inverse_and_difference_of_squares():
    x, z = var("x"), var("z")
    assert (x + (-x)).is_zero()
    assert (x + z) * (x - z) == x * x - z * z


def test_pow_matches_repeated_multiplication():
    base = var("x") + var("y") ** 2
    by_mul = sk.Polynomial.one(TABLE)
    for _ in range(2):
        by_mul = by_mul * base
    assert base ** 2 == by_mul
    assert base ** 0 == sk.Polynomial.one(TABLE)
    with pytest.raises(ValueError):
        base ** -1


def test_ring_axioms_on_random_triples():
    rng = random.Random(2024)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_derivative_examples():
    # term-by-term oracle for the first Hamiltonian block
    h = et.parse_polynomial("2*x*y^2 + 2*x^2 + 2*t*x - 2*a1*y", TABLE)
    by_terms = (2 * var("x") * (2 * var("y"))) - 2 * var("a1")
    assert h.derivative("y") == by_terms
    assert sk.Polynomial.const(TABLE, 5).derivative("x").is_zero()
    # quotient rule oracle on a0/w
    f = et.parse("a0/w", TABLE)
    d = f.derivative("w")
    num = (sk.Polynomial.zero(TABLE) * var("w")
           - sk.Polynomial.variable(TABLE, "a0") * sk.Polynomial.one(TABLE))
    oracle = sk.RationalExpr(num, var("w") * var("w"))
    assert sk.is_identically_equal(d, oracle)


def test_derivative_unknown_symbol_errors():
    with pytest.raises(sk.SymbolError):
        et.parse("x", TABLE).derivative("nope")


def test_substitution_examples():
    w_rule = et.parse("-w*z^2 - a0*z", TABLE)
    out = sk.substitute(sk.RationalExpr.variable(TABLE, "w"), {"w": w_rule})
    assert out == w_rule
    f = et.parse("y - a1/(x + z^2)", TABLE)
    assert sk.substitute(f, {}) == f
    out = sk.substitute(et.parse("x + z^2", TABLE), {"z": et.parse("1/z", TABLE)})
    assert sk.is_identically_equal(out, et.parse("(x*z^2 + 1)/z^2", TABLE))


def test_substitution_zero_denominator_errors():
    f = et.parse("1/(x - y)", TABLE)
    with pytest.raises(sk.ZeroDenominatorError):
        sk.substitute(f, {"x": et.parse("y", TABLE)})


def test_exact_divide_examples(monkeypatch):
    x, z, y = var("x"), var("z"), var("y")
    assert sk.exact_divide(x * x - z * z, x - z) == x + z
    assert sk.exact_divide(x * x + 1, x) is None
    f1 = x + z * z
    cof = 4 * y + 2 * z
    assert sk.exact_divide(cof * f1, f1) == cof
    with pytest.raises(sk.ZeroDenominatorError):
        sk.exact_divide(x, sk.Polynomial.zero(TABLE))
    # the leading term of x*x + y is a multiple of x, that of x + z, but its
    # lowest term y is not a multiple of z, so no division step is taken
    _, remainder = sk.divide_with_remainder(x * x + y, x + z)
    assert not remainder.is_zero()

    def no_division(*args, **kwargs):
        raise AssertionError("division attempted")

    monkeypatch.setattr(sk, "_divide", no_division)
    assert sk.exact_divide(x * x + y, x + z) is None


def test_exact_divide_agrees_with_remainder():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(300):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        kind = rng.randrange(3)
        if kind == 0:
            r = sk.Polynomial.zero(TABLE)
        elif kind == 1:
            r = rand_poly(rng) * b
        else:
            r = rand_poly(rng, max_deg=3)
        num = a * b + r
        _, remainder = sk.divide_with_remainder(num, b)
        rejected = sk.exact_divide(num, b) is None
        assert rejected == (not remainder.is_zero()), (num, b)
        outcomes.add(rejected)
    assert outcomes == {True, False}


def test_exact_divide_of_products_recovers_factor():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero():
            continue
        assert sk.exact_divide(a * b, b) == a


def test_divide_with_remainder_witness():
    x = var("x")
    q, r = sk.divide_with_remainder(x * x + 1, x)
    assert q == x and r == sk.Polynomial.one(TABLE)


def test_poisson_bracket_convention_and_antisymmetry():
    one = sk.RationalExpr.const(TABLE, 1)
    assert sk.poisson_bracket(var("y"), var("x"), PAIRING) == one
    assert sk.poisson_bracket(var("w"), var("z"), PAIRING) == one
    h = et.parse_polynomial("2*x*y^2 + z^2*w + x*w", TABLE)
    assert sk.poisson_bracket(h, h, PAIRING).is_zero()


def test_poisson_bracket_unpaired_symbol_errors():
    bad = sk.CanonicalStructure((("x", "y"),))
    with pytest.raises(sk.SymbolError):
        sk.poisson_bracket(var("x"), var("z"), bad)


def test_poisson_jacobi_identity_on_random_triples():
    rng = random.Random(11)
    for _ in range(15):
        f, g, h = (rand_poly(rng, max_terms=3, max_deg=2) for _ in range(3))
        jac = (sk.poisson_bracket(f, sk.poisson_bracket(g, h, PAIRING), PAIRING)
               + sk.poisson_bracket(g, sk.poisson_bracket(h, f, PAIRING), PAIRING)
               + sk.poisson_bracket(h, sk.poisson_bracket(f, g, PAIRING), PAIRING))
        assert jac.is_zero()


def test_equality_modes():
    lhs = et.parse("(x^2 - z^2)/(x - z)", TABLE)
    rhs = et.parse("x + z", TABLE)
    assert sk.is_identically_equal(lhs, rhs)
    assert sk.is_identically_equal(lhs, rhs, "sampled", seed=5)
    assert not sk.is_identically_equal(et.parse("x", TABLE),
                                       et.parse("x + a1", TABLE))
    with pytest.raises(ValueError):
        sk.is_identically_equal(lhs, rhs, "bogus")


def test_equality_modes_agree_on_random_corpus():
    rng = random.Random(3)
    for k in range(25):
        a = rand_poly(rng)
        b = rand_poly(rng)
        d = rand_poly(rng)
        if d.is_zero():
            continue
        fa = sk.RationalExpr(a * d, d)      # equals a
        fb = sk.RationalExpr(b * d, d)      # equals b
        eq_sym = sk.is_identically_equal(fa, sk.RationalExpr.from_polynomial(a))
        eq_smp = sk.is_identically_equal(fa, sk.RationalExpr.from_polynomial(a),
                                         "sampled", seed=k)
        assert eq_sym and eq_smp
        same_sym = sk.is_identically_equal(fa, fb)
        same_smp = sk.is_identically_equal(fa, fb, "sampled", seed=k)
        assert same_sym == same_smp == (a == b)


def test_sampled_equality_skips_denominator_zeros():
    lhs = et.parse("(x*y)/(x)", TABLE)
    assert sk.is_identically_equal(lhs, et.parse("y", TABLE), "sampled", seed=9)


def test_reduce_parameters_all_three_relations():
    rel_a42 = sk.AffineRelation.make({"a0": 1, "a1": 2, "a2": 2}, 1, "a2")
    out = sk.reduce_parameters(et.parse("a0 + 2*a1 + 2*a2", TABLE), rel_a42)
    assert out == sk.RationalExpr.const(TABLE, 1)
    rel_a11 = sk.AffineRelation.make({"a0": 1, "a1": 1}, 1, "a1")
    assert sk.reduce_parameters(et.parse("a0 + a1", TABLE), rel_a11) \
        == sk.RationalExpr.const(TABLE, 1)
    rel_pde = sk.AffineRelation.make({"a0": 1, "a1": 1}, 0, "a1")
    assert sk.reduce_parameters(et.parse("a0 + a1", TABLE), rel_pde) \
        == sk.RationalExpr.const(TABLE, 0)


def test_relation_not_solvable_errors():
    rel = sk.AffineRelation.make({"a0": 0, "a1": 1}, 1, "a1")
    with pytest.raises(sk.RelationError):
        rel.solve_for(TABLE, "a0")
    with pytest.raises(sk.RelationError):
        sk.AffineRelation.make({"a0": 1}, 1, "a1")


def test_rational_canonical_form():
    # monomial content cancelled, denominator monic
    f = sk.RationalExpr(2 * var("x") * var("z"), 4 * var("z") * var("z"))
    assert f.num == Fraction(1, 2) * var("x")
    assert f.den == var("z")
    with pytest.raises(sk.ZeroDenominatorError):
        sk.RationalExpr(var("x"), sk.Polynomial.zero(TABLE))
    # sums and products cancel each operand denominator that divides the
    # numerator on its own, here the second one only
    x, y, w = var("x"), var("y"), var("w")
    a = sk.RationalExpr(w + 1, x + 1)
    assert a * sk.RationalExpr(y, w + 1) == sk.RationalExpr(y, x + 1)
    assert sk.RationalExpr(y, x + 1) + sk.RationalExpr(w + 1, w + 1) \
        == sk.RationalExpr(x + y + 1, x + 1)


def test_cast_relabels_symbols():
    other = sk.VarTable.make(dynamical=("q1", "p1", "q2", "p2"),
                             times=("t1",), parameters=("a0",))
    out = sk.cast(et.parse("x + z^2", TABLE), other,
                  rename={"x": "q1", "z": "q2"})
    assert out == et.parse("q1 + q2^2", other)
    with pytest.raises(sk.SymbolError):
        sk.cast(et.parse("x + y", TABLE), other, rename={"x": "q1"})


def test_parse_and_print_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        p = rand_poly(rng)
        assert et.parse_polynomial(et.poly_text(p), TABLE) == p
    f = et.parse("y - a1/(x + z^2)", TABLE)
    again = et.parse(et.expr_text(f), TABLE)
    assert sk.is_identically_equal(f, again)


def test_parse_errors():
    with pytest.raises(et.ParseError):
        et.parse("x +", TABLE)
    with pytest.raises(et.ParseError):
        et.parse("(x", TABLE)
    with pytest.raises(sk.SymbolError):
        et.parse("nope + 1", TABLE)
    with pytest.raises(et.ParseError):
        et.parse_polynomial("1/x", TABLE)
    with pytest.raises(et.ParseError):
        et.parse("x $ y", TABLE)


# -- differential checks of the packed kernel ---------------------------------
#
# Products and substitution images run on packed integer exponents and
# cleared integer coefficients.  The references below are the plain Fraction
# algorithms they replaced; results must be equal as dicts.


def fraction_product(a, b):
    """Product of two polynomials, term by term on Fraction coefficients."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(map(int.__add__, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return sk.Polynomial(a.table, out)


def reference_substitute(f, rules):
    """substitute() with every product taken by fraction_product.

    Each of num and den maps to (sum of c_e * prod_i num_i^e_i *
    den_i^(m_i - e_i), prod_i den_i^m_i), m_i the largest power of symbol i.
    """
    src = f.table
    target = next(iter(rules.values())).table if rules else src

    def rule(name):
        if name in rules:
            return rules[name]
        assert target == src, f"no rule for {name}"
        return sk.RationalExpr.variable(target, name)

    def image(p):
        one = sk.Polynomial.one(target)
        if p.is_zero():
            return sk.Polynomial.zero(target), one
        maxes = {}
        for e in p.terms:
            for i, power in enumerate(e):
                if power:
                    maxes[i] = max(maxes.get(i, 0), power)
        order = sorted(maxes)
        npow, dpow = {}, {}
        for i in order:
            r = rule(src.names[i])
            npow[i], dpow[i] = [one], [one]
            for _ in range(maxes[i]):
                npow[i].append(fraction_product(npow[i][-1], r.num))
                dpow[i].append(fraction_product(dpow[i][-1], r.den))
        total = sk.Polynomial.zero(target)
        for e, c in p.terms.items():
            term = sk.Polynomial.const(target, c)
            for i in order:
                term = fraction_product(term, npow[i][e[i]])
                term = fraction_product(term, dpow[i][maxes[i] - e[i]])
            total = total + term
        common = one
        for i in order:
            common = fraction_product(common, dpow[i][maxes[i]])
        return total, common

    if isinstance(f, sk.Polynomial):
        f = sk.RationalExpr.from_polynomial(f)
    n_img, n_den = image(f.num)
    d_img, d_den = image(f.den)
    return sk._reduced(fraction_product(n_img, d_den),
                       fraction_product(d_img, n_den))


def rand_operand(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return sk.Polynomial.zero(TABLE)
    if kind == 1:
        return sk.Polynomial.const(TABLE, Fraction(rng.randint(-9, 9),
                                                   rng.randint(1, 9)))
    if kind == 2:
        # exponents that need more than 8 bits per slot
        e = [0] * len(TABLE)
        e[rng.randrange(len(TABLE))] = rng.randint(200, 400)
        return rand_poly(rng) * sk.Polynomial(TABLE, {tuple(e): 1})
    # mixed denominators, up to degree 6 in every slot
    return rand_poly(rng, max_terms=12, max_deg=6, bound=50)


def test_packed_product_matches_fraction_product():
    rng = random.Random(11)
    for _ in range(300):
        a, b = rand_operand(rng), rand_operand(rng)
        assert (a * b).terms == fraction_product(a, b).terms
        assert (b * a).terms == fraction_product(a, b).terms


def test_packed_product_does_not_carry_between_slots():
    x, y = var("x"), var("y")
    assert ((x ** 300) * (x ** 300)).terms == {(600, 0, 0, 0, 0, 0, 0, 0): 1}
    p = x ** 255 + y
    square = p * p
    assert square.terms == fraction_product(p, p).terms
    assert square.coefficient((510, 0, 0, 0, 0, 0, 0, 0)) == 1
    assert square.coefficient((255, 1, 0, 0, 0, 0, 0, 0)) == 2
    assert (x ** 1000).total_degree() == 1000


def _system_targets(system_id):
    sys_ = cat.build_system(system_id)
    targets = [ham for _, ham in sys_.hamiltonians]
    for tsym in sys_.times:
        field = flows.hamiltonian_vector_field(sys_, tsym)
        targets += [c for _, c in field.components]
    targets += [f for f, _ in sys_.divisors]
    return targets


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_packed_substitute_matches_reference(system_id):
    sys_ = cat.build_system(system_id)
    targets = _system_targets(system_id)
    name, expr = sys_.relation.solve_for(sys_.table)
    for f in targets:
        assert sk.reduce_parameters(f, sys_.relation) == reference_substitute(
            f, {name: sk.RationalExpr.from_polynomial(expr)})
    for gen in weyl.generators(system_id).values():
        rules = gen.full_rules()
        for f in targets:
            assert sk.substitute(f, rules) == reference_substitute(f, rules)
    for chart in hol.charts(system_id).values():
        rules = chart.inverse_rules()
        for f in targets:
            assert sk.substitute(f, rules, chart.new_table) \
                == reference_substitute(f, rules)


def test_packed_substitute_matches_reference_on_random_rules():
    rng = random.Random(5)
    for _ in range(60):
        f = sk.RationalExpr(rand_poly(rng, max_deg=3),
                            rand_poly(rng, max_deg=2) + 1)
        rules = {}
        for name in rng.sample(TABLE.names, 3):
            den = rand_poly(rng)
            if den.is_zero():
                den = sk.Polynomial.one(TABLE)
            rules[name] = sk.RationalExpr(rand_poly(rng), den)
        try:
            expected = reference_substitute(f, rules)
        except sk.ZeroDenominatorError:
            with pytest.raises(sk.ZeroDenominatorError):
                sk.substitute(f, rules)
            continue
        assert sk.substitute(f, rules) == expected
    # identity rules (explicit or absent) keep a symbol fixed; mix them
    # with constants, affine parameter rules and rational rules
    params = TABLE.symbols(sk.PARAMETER)
    for _ in range(60):
        f = sk.RationalExpr(rand_poly(rng, max_deg=3),
                            rand_poly(rng, max_deg=2) + 1)
        rules = {}
        for name in TABLE.names:
            kind = rng.randrange(5)
            if kind == 0:
                continue
            if kind == 1:
                rules[name] = sk.RationalExpr.variable(TABLE, name)
            elif kind == 2:
                rules[name] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            elif kind == 3:
                rules[name] = sk.Polynomial.const(TABLE, rng.randint(1, 5)) + sum(
                    rng.randint(-2, 2) * var(q) for q in params)
            else:
                den = rand_poly(rng)
                if den.is_zero():
                    den = sk.Polynomial.one(TABLE)
                rules[name] = sk.RationalExpr(rand_poly(rng), den)
        ref_rules = {k: sk._as_rational(TABLE, v) for k, v in rules.items()}
        try:
            expected = reference_substitute(f, ref_rules)
        except sk.ZeroDenominatorError:
            with pytest.raises(sk.ZeroDenominatorError):
                sk.substitute(f, rules)
            continue
        assert sk.substitute(f, rules) == expected
    # x stays fixed at exponents above 255 while y and a0 move; a slot
    # width taken from the moved rules alone would carry x into y
    x, y, z, w, a0 = var("x"), var("y"), var("z"), var("w"), var("a0")
    f = sk.RationalExpr(x ** 300 * y ** 2 + x ** 256 * a0 + y ** 3 - w,
                        x ** 257 + y)
    rules = {"x": sk.RationalExpr.variable(TABLE, "x"),
             "y": sk.RationalExpr(z + a0, w + 1),
             "a0": sk.RationalExpr.from_polynomial(1 - var("a1") - var("a2"))}
    out = sk.substitute(f, rules)
    assert out == reference_substitute(f, rules)
    assert max(e[0] for e in out.num.terms) == 300


def test_reduce_parameters_moves_only_the_eliminated_parameter(monkeypatch):
    sys_ = cat.build_system("PDE_A1_1")
    k3 = dict(sys_.hamiltonians)["t3"]
    products = []
    packed_mul = sk._packed_mul

    def counting(a, b):
        products.append(1)
        return packed_mul(a, b)

    monkeypatch.setattr(sk, "_packed_mul", counting)
    sk.reduce_parameters(k3, sys_.relation)
    # the image of one affine rule, plus the two products of the final
    # cancellation; a product per term and symbol would be about 200
    assert len(products) <= 10
