"""Exact arithmetic kernel: ring axioms, division, brackets, equality."""

import hashlib
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
# Polynomials store packed monomials with integer coefficients over one
# denominator, and products, division and substitution run on that storage.
# The references below are the plain Fraction algorithms on the ``terms``
# view; results must be equal as dicts.


def fraction_product(a, b):
    """Product of two polynomials, term by term on Fraction coefficients."""
    out = {}
    b_terms = b.terms.items()
    for ea, ca in a.terms.items():
        for eb, cb in b_terms:
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


def test_packed_key_order_is_grlex_order():
    rng = random.Random(21)
    n = len(TABLE)
    tuples = [tuple(rng.randint(0, 40) for _ in range(n)) for _ in range(300)]
    for _ in range(100):
        e = [rng.choice((0, 1, 2)) for _ in range(n)]
        e[rng.randrange(n)] = sk._MAX_DEGREE - sum(e) - rng.randint(0, 3)
        tuples.append(tuple(e))
    keys = {e: sk._key(TABLE, e) for e in tuples}
    assert sorted(tuples, key=keys.__getitem__) == sorted(tuples, key=sk._grlex)
    assert all(sk._exponents(TABLE, keys[e]) == e for e in tuples)
    p = sk.Polynomial(TABLE, {e: 1 for e in tuples})
    assert p.leading()[0] == max(tuples, key=sk._grlex)
    assert p.total_degree() == max(map(sum, tuples))


def test_guard_bit_divisibility_matches_componentwise_test():
    rng = random.Random(22)
    n = len(TABLE)
    top = sk._MAX_DEGREE
    pairs = [((top,) + (0,) * (n - 1), (top,) + (0,) * (n - 1)),
             ((top,) + (0,) * (n - 1), (top - 1, 1) + (0,) * (n - 2)),
             ((0,) * (n - 1) + (1,), (top - 1,) + (0,) * (n - 2) + (1,)),
             ((0,) * n, (0,) * (n - 1) + (top,))]
    for _ in range(3000):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        pairs.append((a, tuple(max(0, p + rng.randint(-1, 2)) for p in a)))
    seen = set()
    for a, b in pairs:
        expected = all(map(int.__ge__, b, a))
        assert sk._divides(TABLE, sk._key(TABLE, a), sk._key(TABLE, b)) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_degree_past_the_slot_limit_raises():
    x, y = var("x"), var("y")
    top = sk._MAX_DEGREE
    assert (x ** top).total_degree() == top
    assert (x ** (top - 1) * y).coefficient((top - 1, 1) + (0,) * 6) == 1
    with pytest.raises(sk.DegreeLimitError, match="exceeds"):
        x ** top * x
    with pytest.raises(sk.DegreeLimitError):
        x ** (top + 1)
    # every slot fits, the total degree does not
    with pytest.raises(sk.DegreeLimitError):
        x ** (top // 2 + 1) * y ** (top // 2 + 1)
    with pytest.raises(sk.DegreeLimitError):
        sk.Polynomial(TABLE, {(top // 2 + 1, top // 2 + 1) + (0,) * 6: 1})
    with pytest.raises(sk.DegreeLimitError):
        sk.substitute(x ** top, {"x": x * y})


def test_terms_is_a_read_only_view():
    p = et.parse_polynomial("3/2*x*y^2 - 5*z + 1/3", TABLE)
    view = p.terms
    assert len(view) == 3
    assert view == {(1, 2, 0, 0, 0, 0, 0, 0): Fraction(3, 2),
                    (0, 0, 1, 0, 0, 0, 0, 0): -5, (0,) * 8: Fraction(1, 3)}
    assert (0, 0, 1, 0, 0, 0, 0, 0) in view and (9,) * 8 not in view
    assert view.get((1,) * 8) is None and view.get((-1,) + (0,) * 7, 0) == 0
    with pytest.raises(TypeError):
        view[(0,) * 8] = 1
    # content-normalised storage: equal values are stored alike
    assert p * Fraction(2, 3) * Fraction(3, 2) == p
    assert p._den == 6 and sorted(p._coeffs.values()) == [-30, 2, 9]


def fraction_divide(num, den):
    """Division under graded lex, step by step on Fraction coefficients."""
    de, dc = den.leading()
    work = dict(num.terms)
    q, r = {}, {}
    while work:
        e = max(work, key=sk._grlex)
        c = work.pop(e)
        ne = tuple(map(int.__sub__, e, de))
        if min(ne) < 0:
            r[e] = c
            continue
        q[ne] = q.get(ne, 0) + c / dc
        for fe, fc in den.terms.items():
            if fe != de:
                ge = tuple(map(int.__add__, ne, fe))
                work[ge] = work.get(ge, 0) - c / dc * fc
                if not work[ge]:
                    del work[ge]
    return sk.Polynomial(num.table, q), sk.Polynomial(num.table, r)


def test_integer_division_matches_fraction_division():
    rng = random.Random(23)
    exact = inexact = 0
    for _ in range(300):
        den = rand_operand(rng)
        if den.is_zero():
            continue
        num = rand_operand(rng)
        if rng.randrange(2):
            num = num * den + rand_poly(rng) * rng.randrange(2)
        assert sk.divide_with_remainder(num, den) == fraction_divide(num, den)
        q, r = fraction_divide(num, den)
        expected = q if r.is_zero() else None
        assert sk.exact_divide(num, den) == expected
        exact += expected is not None
        inexact += expected is None
    assert exact > 50 and inexact > 50


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


def assert_same_fraction(out, expected):
    assert out.num.terms == expected.num.terms
    assert out.den.terms == expected.den.terms


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
    # rule denominators g, g^2 and g*h share powers of g, which cancel
    # between the images of num and den before anything is multiplied out
    kept = 0
    for _ in range(40):
        g = rand_poly(rng, max_terms=3) + var(rng.choice(("x", "z")))
        h = rand_poly(rng, max_terms=2) + var("w")
        den = rand_poly(rng, max_deg=2) + 1
        if g.is_constant() or h.is_constant() or den.is_zero():
            continue
        rules = {name: sk.RationalExpr(rand_poly(rng), d)
                 for name, d in zip(rng.sample(TABLE.names, 3), (g, g * g, g * h))}
        for f in (sk.RationalExpr(rand_poly(rng, max_deg=3), den),
                  rand_poly(rng, max_deg=3)):
            try:
                expected = reference_substitute(f, rules)
            except sk.ZeroDenominatorError:
                with pytest.raises(sk.ZeroDenominatorError):
                    sk.substitute(f, rules)
                continue
            assert_same_fraction(sk.substitute(f, rules), expected)
            kept += not expected.den.is_constant()
    assert kept > 40
    # images of num and den that cancel exactly: each generator applied to
    # its own image of a variable gives the variable back (the reference
    # takes seconds on the 15-term rules, so it checks the shorter ones)
    for system_id in cat.SYSTEM_IDS:
        for gen in weyl.generators(system_id).values():
            rules = gen.full_rules()
            for v, rule in gen.rules:
                out = sk.substitute(rule, rules)
                assert out == sk.RationalExpr.variable(gen.table, v)
                if len(rule.num.terms) <= 5:
                    assert_same_fraction(out, reference_substitute(rule, rules))


def test_substitute_pins_a_non_cancelling_image():
    # the image of a fraction under rules over g, g^2 and g*h that no
    # factor divides; the text is that of the implementation this kernel
    # replaced, which formed the images over expanded denominators
    p = lambda text: et.parse(text, TABLE)
    g, h = "(x + z^2)", "(w - t)"
    rules = {"y": p(f"(z + a0)/{g}"), "w": p(f"(x*w - a1)/{g}^2"),
             "z": p(f"(y*w + 1)/({g}*{h})")}
    out = sk.substitute(p("(x*y^2 + z*w - a2) / (y*z + w + 1)"), rules)
    text = et.expr_text(out)
    assert (len(out.num.terms), len(out.den.terms), len(text)) == (158, 142, 5324)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "a3d51ac1ea0eecf1"


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
    # the image of one affine rule; a polynomial has no denominator to
    # image, and a product per term and symbol would be about 200
    assert len(products) <= 2
