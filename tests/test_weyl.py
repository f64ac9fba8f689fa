"""Backlund maps: generator formulas, group structure, solution symmetry."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from weylflow import catalog as cat
from weylflow import cli
from weylflow import exprtext as et
from weylflow import flows
from weylflow import symkernel as sk
from weylflow import weyl

A42 = cat.build_system("A4_2")
A11 = cat.build_system("A1_1")
PDE = cat.build_system("PDE_A1_1")


def test_generator_formulas_match_closed_forms():
    g = weyl.generators("A4_2")
    t = A42.table
    assert sk.is_identically_equal(weyl.apply_map(g["s0"], et.parse("z", t)),
                                   et.parse("z + a0/w", t))
    f2 = "(x + y^2 + w + t)"
    assert sk.is_identically_equal(
        weyl.apply_map(g["s2"], et.parse("x", t)),
        et.parse(f"x + 2*a2*y/{f2} - a2^2/{f2}^2", t))
    g11 = weyl.generators("A1_1")
    assert sk.is_identically_equal(
        weyl.apply_map(g11["s0"], et.parse("w", A11.table)),
        et.parse("w - 2*a0*z/(x + z^2)", A11.table))
    gp = weyl.generators("PDE_A1_1")
    f1 = "(q1 + p1^2 + p2^2)"
    assert sk.is_identically_equal(
        weyl.apply_map(gp["s1"], et.parse("q2", PDE.table)),
        et.parse(f"q2 + 2*a1*p2/{f1}", PDE.table))


# The generators as the catalog spelled them out before they were derived
# from the divisors and the Cartan matrix: the variable rules of the moved
# dynamical symbols, in table order, and the parameter-action rows
# (a_p -> sum_q row[q] * a_q, absent entries from the identity).
CATALOG_GENERATORS = {
    "A4_2": {
        "s0": ({"z": "z + a0/w"},
               {"a0": {"a0": -1}, "a1": {"a1": 1, "a0": 1}}),
        "s1": ({"y": "y - a1/(x + z^2)",
                "w": "w - 2*a1*z/(x + z^2)"},
               {"a0": {"a0": 1, "a1": 2}, "a1": {"a1": -1},
                "a2": {"a2": 1, "a1": 1}}),
        "s2": ({"x": "x + 2*a2*y/(x + y^2 + w + t)"
                     " - a2^2/(x + y^2 + w + t)^2",
                "y": "y - a2/(x + y^2 + w + t)",
                "z": "z + a2/(x + y^2 + w + t)"},
               {"a1": {"a1": 1, "a2": 2}, "a2": {"a2": -1}}),
    },
    "A1_1": {
        "s0": ({"y": "y - a0/(x + z^2)",
                "w": "w - 2*a0*z/(x + z^2)"},
               {"a0": {"a0": -1}, "a1": {"a1": 1, "a0": 2}}),
        "s1": ({"x": "x + 2*a1*y/(x + y^2 + w^2 + t)"
                     " - a1^2/(x + y^2 + w^2 + t)^2",
                "y": "y - a1/(x + y^2 + w^2 + t)",
                "z": "z + 2*a1*w/(x + y^2 + w^2 + t)"},
               {"a0": {"a0": 1, "a1": 2}, "a1": {"a1": -1}}),
    },
    "PDE_A1_1": {
        "s0": ({"p1": "p1 - a0/(q1 + q2^2)",
                "p2": "p2 - 2*a0*q2/(q1 + q2^2)"},
               {"a0": {"a0": -1}, "a1": {"a1": 1, "a0": 2}}),
        "s1": ({"q1": "q1 + 2*a1*p1/(q1 + p1^2 + p2^2)"
                      " - a1^2/(q1 + p1^2 + p2^2)^2",
                "p1": "p1 - a1/(q1 + p1^2 + p2^2)",
                "q2": "q2 + 2*a1*p2/(q1 + p1^2 + p2^2)"},
               {"a0": {"a0": 1, "a1": 2}, "a1": {"a1": -1}}),
    },
}


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_derived_generators_equal_the_catalog_formulas(system_id):
    table = cat.build_system(system_id).table
    params = table.symbols(sk.PARAMETER)
    gens = weyl.generators(system_id)
    assert list(gens) == list(CATALOG_GENERATORS[system_id])
    for name, (rules, rows) in CATALOG_GENERATORS[system_id].items():
        gen = gens[name]
        assert [v for v, _ in gen.rules] == list(rules), (system_id, name)
        for v, rule in gen.rules:
            parsed = et.parse(rules[v], table)
            assert rule.num == parsed.num and rule.den == parsed.den, \
                (system_id, name, v)
        matrix = tuple(tuple(rows.get(p, {}).get(q, int(p == q)) for q in params)
                       for p in params)
        assert gen.action == weyl.ParameterAction(params, matrix,
                                                  (F(0),) * len(params))


def test_coxeter_orders():
    assert [weyl.coxeter_order(p) for p in range(4)] == [2, 3, 4, 6]
    assert weyl.coxeter_order(4) is weyl.EXCEEDS_MAX
    assert weyl.coxeter_order(9) is weyl.EXCEEDS_MAX


@pytest.fixture
def respec(monkeypatch):
    """Replace fields of one system's spec for the test, with the caches
    built from the specs cleared on the way in and on the way out."""
    caches = (cat.build_system, weyl.generators, weyl.named_maps)

    def apply(system_id, **fields):
        monkeypatch.setitem(cat.SPECS, system_id,
                            replace(cat.SPECS[system_id], **fields))
        for cache in caches:
            cache.cache_clear()

    yield apply
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()


def test_nonterminating_divisor_raises(respec):
    # {x*y, x} = x, so the series of s0(x) never ends
    respec("A1_1", divisors=(("x*y", "a0"), ("x + y^2 + w^2 + t", "a1")))
    with pytest.raises(ValueError, match="s0"):
        weyl.generators("A1_1")


def _verify_fails(system_id, suite, capsys):
    code = cli.main(["verify", system_id, suite])
    doc = json.loads(capsys.readouterr().out)
    return code == 1, {c["name"] for c in doc["checks"] if not c["passed"]}


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_changed_cartan_entry_fails_verify(system_id, respec, capsys):
    cartan = cat.SPECS[system_id].cartan
    n = len(cartan)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            changed = [list(row) for row in cartan]
            changed[i][j] -= 1
            respec(system_id, cartan=tuple(map(tuple, changed)))
            assert _verify_fails(system_id, "relations", capsys)[0] \
                or _verify_fails(system_id, "symmetry", capsys)[0], (i, j)


def test_order_check_compares_with_the_coxeter_order(respec, capsys):
    # A_02 = -1 makes m_02 = 3 where s0 s2 still has order 2
    respec("A4_2", cartan=((2, -1, -1), (-2, 2, -1), (0, -2, 2)))
    failed, names = _verify_fails("A4_2", "relations", capsys)
    assert failed and "order/s0s2" in names


def test_parameter_action_on_expression():
    g = weyl.generators("A4_2")
    out = weyl.apply_map(g["s0"], et.parse("a0 + a1", A42.table))
    assert sk.is_identically_equal(out, et.parse("a1", A42.table))


def test_s0_with_zero_shift_is_identity_on_state():
    g = weyl.generators("A4_2")["s0"]
    state = {"x": 1, "y": 2, "z": 3, "w": 4, "t": 5}
    new_state, new_params = weyl.apply_to_state(
        g, state, {"a0": 0, "a1": F(1, 2), "a2": 0})
    assert {k: new_state[k] for k in state} == {k: F(v) for k, v in state.items()}
    assert new_params == {"a0": F(0), "a1": F(1, 2), "a2": F(0)}


def test_apply_to_state_pole_raises():
    g = weyl.generators("A4_2")["s0"]
    with pytest.raises(sk.ZeroDenominatorError):
        weyl.apply_to_state(g, {"x": 0, "y": 0, "z": 0, "w": 0, "t": 0},
                            {"a0": 1, "a1": 0, "a2": 0})


def test_translation_actions_match_printed_offsets():
    nm = weyl.named_maps("A4_2")
    assert weyl.translation_offset(nm["T1"]) == (F(-2), F(1), F(0))
    assert weyl.translation_offset(nm["T2"]) == (F(0), F(-1), F(1))
    assert weyl.translation_offset(weyl.named_maps("A1_1")["T"]) == (F(-2), F(2))


def test_word_map_matches_named_translation():
    byword = weyl.word_map("A4_2", ["s1", "s2", "s1", "s0"])
    assert byword.action == weyl.named_maps("A4_2")["T1"].action
    with pytest.raises(sk.SymbolError):
        weyl.word_map("A4_2", ["s9"])


def test_translations_commute():
    nm = weyl.named_maps("A4_2")
    t12 = weyl.compose(nm["T1"], nm["T2"])
    t21 = weyl.compose(nm["T2"], nm["T1"])
    assert t12.action == t21.action
    rng = random.Random(5)
    checked = 0
    while checked < 4:
        state = {n: sk.random_rational(rng, 30) for n in ("x", "y", "z", "w", "t")}
        params = {"a0": F(1, 3), "a1": F(1, 5), "a2": F(2, 15)}
        try:
            s1, v1 = weyl.apply_to_state(t12, state, params)
            s2, v2 = weyl.apply_to_state(t21, state, params)
        except sk.ZeroDenominatorError:
            continue
        assert s1 == s2 and v1 == v2
        checked += 1


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_generators_are_involutions(system_id):
    for name, gen in weyl.generators(system_id).items():
        assert weyl.is_involution(gen), (system_id, name)
        # each rule of g composed with g cancels down to the polynomial v
        square = weyl.compose(gen, gen)
        for v in square.table.symbols(sk.DYNAMICAL):
            assert square.rule(v) == sk.RationalExpr.variable(square.table, v), \
                (system_id, name, v)


def test_involution_via_explicit_composition():
    # s1(s1(y)) == y, via symbolic substitution
    s1 = weyl.generators("A4_2")["s1"]
    once = weyl.apply_map(s1, et.parse("y", A42.table))
    twice = weyl.apply_map(s1, once)
    assert sk.is_identically_equal(twice, et.parse("y", A42.table))


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_actions_preserve_relation_hyperplane(system_id):
    for name, gen in weyl.generators(system_id).items():
        assert weyl.preserves_relation(gen), (system_id, name)


def test_relation_orders():
    assert weyl.relation_order("A4_2", 0, 0, 2) == 1
    assert weyl.relation_order("A1_1", 0, 1, 8) is weyl.EXCEEDS_MAX
    found = weyl.relation_order("A4_2", 0, 2, 8)
    assert isinstance(found, int)


def reference_relation_order(system_id, i, j, max_n, *, seed=0, samples=4):
    """relation_order drawing every orbit to max_n and trying every n."""
    sys_ = cat.build_system(system_id)
    gens = weyl.generators(system_id)
    si, sj = gens[f"s{i}"], gens[f"s{j}"]
    pair_action = sj.action.after(si.action)

    def action_power_is_identity(n):
        acc = weyl.ParameterAction.identity(pair_action.params)
        for _ in range(n):
            acc = pair_action.after(acc)
        probe = weyl.BirationalMap(system_id, "probe", sys_.table, (), acc)
        off = weyl.translation_offset(probe, sys_)
        return off is not None and all(v == 0 for v in off)

    rng = random.Random(seed)
    dyn = sys_.table.symbols(sk.DYNAMICAL)
    times = sys_.table.symbols(sk.TIME)
    params = sys_.table.symbols(sk.PARAMETER)

    def random_start():
        state = {name: sk.random_rational(rng, 50) for name in dyn}
        for name in times:
            state[name] = sk.random_rational(rng, 50)
        vals = {name: sk.random_rational(rng, 50) for name in params[:-1]}
        name, expr = sys_.relation.solve_for(sys_.table, params[-1])
        vals[name] = expr.evaluate(vals)
        return state, vals

    orbits = []
    attempts = 0
    while len(orbits) < samples:
        attempts += 1
        if attempts > 64 * samples:
            raise sk.ZeroDenominatorError("no pole-free sample orbits")
        state, vals = random_start()
        try:
            traj = [(dict(state), dict(vals))]
            for _ in range(max_n):
                st, v = traj[-1]
                st, v = weyl.apply_to_state(si, st, v)
                st, v = weyl.apply_to_state(sj, st, v)
                traj.append((st, v))
            orbits.append(traj)
        except sk.ZeroDenominatorError:
            continue

    for n in range(1, max_n + 1):
        if not action_power_is_identity(n):
            continue
        if all(traj[n][0] == traj[0][0] for traj in orbits):
            return n
    return weyl.EXCEEDS_MAX


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_relation_order_matches_exhaustive_reference(system_id):
    indices = range(len(cat.build_system(system_id).generator_names))
    for i in indices:
        for j in indices:
            if i > j:
                continue
            for seed in (0, 1, 2):
                for max_n in (2, 8):
                    assert weyl.relation_order(system_id, i, j, max_n, seed=seed) \
                        == reference_relation_order(system_id, i, j, max_n,
                                                    seed=seed), \
                        (system_id, i, j, seed, max_n)


def test_relation_order_draws_only_the_orbits_it_needs(monkeypatch):
    calls = []
    apply_to_state = weyl.apply_to_state

    def counting(*args):
        calls.append(args)
        return apply_to_state(*args)

    monkeypatch.setattr(weyl, "apply_to_state", counting)
    # (s0 s1) translates the parameters of A1_1: no n can be the order
    assert weyl.relation_order("A1_1", 0, 1, 8) is weyl.EXCEEDS_MAX
    assert calls == []
    # on PDE_A1_1 the first orbit, 8 steps of s0 then s1, refutes every n
    assert weyl.relation_order("PDE_A1_1", 0, 1, 8) is weyl.EXCEEDS_MAX
    assert len(calls) == 2 * 8


def reference_preserves_relation(m, sys_):
    """preserves_relation by substituting the affine rules into the
    relation's residual and reducing the image symbolically."""
    image = sk.substitute(sys_.relation.residual(sys_.table),
                          m.action.rules(sys_.table))
    return sk.reduce_parameters(image, sys_.relation).is_zero()


def reference_translation_offset(action, sys_):
    """The shift of an action on the relation hyperplane, by reducing each
    affine rule alpha -> action(alpha) symbolically."""
    rules = action.rules(sys_.table)
    offsets = []
    for p in action.params:
        delta = rules[p] - sk.Polynomial.variable(sys_.table, p)
        red = sk.reduce_parameters(delta, sys_.relation)
        if not red.is_polynomial() or not red.as_polynomial().is_constant():
            return None
        offsets.append(red.as_polynomial().constant_value())
    return tuple(offsets)


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_translation_offset_matches_symbolic_reference(system_id):
    sys_ = cat.build_system(system_id)
    gens = weyl.generators(system_id)
    params = sys_.table.symbols(sk.PARAMETER)
    rng = random.Random(3)
    actions = [m.action for m in weyl.named_maps(system_id).values()]
    actions += [weyl.ParameterAction(
        params, tuple(tuple(rng.randint(-1, 1) for _ in params) for _ in params),
        tuple(F(rng.randint(-2, 2), 2) for _ in params)) for _ in range(20)]
    # and the powers of every pair action up to 8, whose zero offsets are
    # the candidate orders of relation_order
    names = [f"s{i}" for i in range(len(sys_.generator_names))]
    for si in names:
        for sj in names:
            pair = gens[sj].action.after(gens[si].action)
            acc = weyl.ParameterAction.identity(params)
            for _ in range(8):
                acc = pair.after(acc)
                actions.append(acc)
    outcomes = set()
    for action in actions:
        probe = weyl.BirationalMap(system_id, "probe", sys_.table, (), action)
        expected = reference_translation_offset(action, sys_)
        assert weyl.translation_offset(probe, sys_) == expected
        assert weyl.relation_offset(action, sys_.relation) == expected
        outcomes.add(None if expected is None else any(expected))
    assert {None, False} <= outcomes


def test_a11_infinite_order_justified_by_translation():
    gens = weyl.generators("A1_1")
    pair = weyl.compose(gens["s1"], gens["s0"])   # s0 first
    off = weyl.translation_offset(pair)
    assert off is not None and any(v != 0 for v in off)


@pytest.mark.parametrize("system_id,gen_name", [
    ("A4_2", "s0"), ("A4_2", "s1"), ("A4_2", "s2"),
    ("A1_1", "s0"), ("A1_1", "s1"),
    ("PDE_A1_1", "s0"), ("PDE_A1_1", "s1"),
])
def test_symmetry_verification(system_id, gen_name):
    sys_ = cat.build_system(system_id)
    rep = weyl.verify_symmetry(sys_, weyl.generators(system_id)[gen_name])
    assert rep.passed, rep.as_dict()
    assert len(rep.checks) == 4 * len(sys_.times)


def test_exponential_formula_examples():
    t = A42.table
    rep = weyl.exponential_formula_check(A42, 2, sk.Polynomial.variable(t, "x"))
    assert rep.terminated and rep.order == 2 and rep.matches
    rep = weyl.exponential_formula_check(A42, 1, sk.Polynomial.variable(t, "y"))
    assert rep.terminated and rep.order == 1 and rep.matches
    # bracket chain backing the s2 series: {f2,x}=2y, {f2,2y}=-2, {f2,-2}=0
    f2 = A42.divisors[2][0]
    b1 = sk.poisson_bracket(f2, sk.Polynomial.variable(t, "x"), A42.pairing)
    assert b1 == sk.RationalExpr.from_polynomial(2 * sk.Polynomial.variable(t, "y"))
    b2 = sk.poisson_bracket(f2, b1.as_polynomial(), A42.pairing)
    assert b2 == sk.RationalExpr.const(t, -2)
    assert sk.poisson_bracket(f2, b2.as_polynomial(), A42.pairing).is_zero()


def test_exponential_formula_nonterminating_is_flagged_not_fatal():
    rep = weyl.exponential_formula_check(
        A42, 2, sk.Polynomial.variable(A42.table, "x"), max_order=1)
    assert not rep.terminated
    assert rep.matches is None
    assert rep.order == 1


def test_exponential_formula_on_own_divisor_is_trivial():
    for i, (f_i, _) in enumerate(A42.divisors):
        rep = weyl.exponential_formula_check(A42, i, f_i)
        assert rep.terminated and rep.matches


def test_generators_divide_only_by_own_divisor_powers():
    for system_id in cat.SYSTEM_IDS:
        sys_ = cat.build_system(system_id)
        for i, (f_i, _) in enumerate(sys_.divisors):
            gen = weyl.generators(system_id)[f"s{i}"]
            image = weyl.apply_map(gen, f_i)
            cleared = None
            power = sk.Polynomial.one(sys_.table)
            for k in range(5):
                product = image * power
                if product.is_polynomial():
                    cleared = k
                    break
                power = power * f_i
            assert cleared is not None, (system_id, i)


def reduce_last_checks(sys_, m):
    """verify_symmetry's booleans with the relation applied to both sides
    of each identity after they are formed."""
    out = []
    for time_symbol in sys_.times:
        field = flows.hamiltonian_vector_field(sys_, time_symbol)
        for v, component in field.components:
            lhs = flows.derivative_along(field, m.rule(v))
            rhs = weyl.apply_map(m, component)
            out.append(sk.is_identically_equal(
                sk.reduce_parameters(lhs, sys_.relation),
                sk.reduce_parameters(rhs, sys_.relation)))
    return out


def sign_flipped(gen, param):
    """gen with the sign of its action on ``param`` flipped."""
    action = gen.action
    k = action.params.index(param)
    matrix = tuple(tuple(-c for c in row) if i == k else row
                   for i, row in enumerate(action.matrix))
    return replace(gen, action=replace(action, matrix=matrix))


def perturbed_generators(system_id):
    """Each generator with one rule shifted by 1, and with the sign of its
    action on its own parameter flipped (on a0 where its own parameter is
    the eliminated one, which the Hamiltonians do not hold)."""
    eliminated = cat.build_system(system_id).relation.eliminated
    out = []
    for name, gen in weyl.generators(system_id).items():
        (v, rule), *rest = gen.rules
        out.append((f"{name}/rule-{v}", replace(gen, rules=((v, rule + 1), *rest))))
        param = f"a{name[1:]}"
        if param == eliminated:
            param = "a0"
        out.append((f"{name}/sign-{param}", sign_flipped(gen, param)))
    return out


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_symmetry_verification_rejects_perturbed_generators(system_id):
    sys_ = cat.build_system(system_id)
    for label, bad in perturbed_generators(system_id):
        assert not weyl.verify_symmetry(sys_, bad).passed, (system_id, label)


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_symmetry_reduce_first_matches_reduce_last(system_id):
    sys_ = cat.build_system(system_id)
    gens = weyl.generators(system_id)
    maps = list(gens.items()) + perturbed_generators(system_id)
    # the fields hold no eliminated parameter on A4_2 and A1_1, so a wrong
    # action on it passes there, both ways (``preserves_relation`` fails)
    maps += [(f"{name}/sign-{sys_.relation.eliminated}",
              sign_flipped(gen, sys_.relation.eliminated)) for name, gen in gens.items()]
    for label, m in maps:
        report = weyl.verify_symmetry(sys_, m)
        assert [c.passed for c in report.checks] == reduce_last_checks(sys_, m), \
            (system_id, label)


@pytest.mark.parametrize("system_id", cat.SYSTEM_IDS)
def test_preserves_relation_matches_symbolic_reference(system_id):
    sys_ = cat.build_system(system_id)
    gens = weyl.generators(system_id)
    params = sys_.table.symbols(sk.PARAMETER)
    rng = random.Random(5)
    maps = list(weyl.named_maps(system_id).items())
    maps += perturbed_generators(system_id)
    maps += [(f"{name}/sign-{sys_.relation.eliminated}",
              sign_flipped(gen, sys_.relation.eliminated))
             for name, gen in gens.items()]
    for k in range(20):
        action = weyl.ParameterAction(
            params, tuple(tuple(rng.randint(-1, 1) for _ in params) for _ in params),
            tuple(F(rng.randint(-2, 2), 2) for _ in params))
        maps.append((f"random-{k}", weyl.BirationalMap(
            system_id, "probe", sys_.table, (), action)))
    outcomes = set()
    for label, m in maps:
        expected = reference_preserves_relation(m, sys_)
        assert weyl.preserves_relation(m, sys_) == expected, (system_id, label)
        outcomes.add(expected)
    assert outcomes == {True, False}
