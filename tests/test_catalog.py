"""System catalog: exact transcriptions, evaluation, divisor tables."""

import json
import types
from fractions import Fraction as F

import pytest

from weylflow import catalog as cat
from weylflow import exprtext as et
from weylflow import holomorphy
from weylflow import symkernel as sk


def test_a42_hamiltonian_has_exactly_nine_monomials():
    sys_ = cat.build_system(cat.SPECS["A4_2"])
    h = sys_.hamiltonian("t")
    assert len(h.terms) == 9
    expected = et.parse_polynomial(
        "2*x*y^2 + 2*x^2 + 2*t*x - 2*a1*y + z^2*w - 1/2*w^2 + a0*z"
        " + x*w + 2*y*z*w", sys_.table)
    assert h == expected


# Hamiltonian building blocks, which the spec texts expand
def h_second_painleve(table, x, y, t, a):
    """Painleve-II block: x*y^2 + x^2 + t*x - a*y."""
    return et.parse_polynomial(f"{x}*{y}^2 + {x}^2 + {t}*{x} - {a}*{y}", table)


def h_second_painleve_auto(table, z, w, a):
    """Autonomous Painleve-II block: z^2*w - w^2/2 + a*z."""
    return et.parse_polynomial(f"{z}^2*{w} - 1/2*{w}^2 + {a}*{z}", table)


def h_quadratic(table, z, w):
    """Hyperbolic quadratic block: z^2/4 - w^2/4."""
    return et.parse_polynomial(f"1/4*{z}^2 - 1/4*{w}^2", table)


def test_a42_decomposition_identity():
    sys_ = cat.build_system(cat.SPECS["A4_2"])
    t = sys_.table
    built = (2 * h_second_painleve(t, "x", "y", "t", "a1")
             + h_second_painleve_auto(t, "z", "w", "a0")
             + et.parse_polynomial("x*w + 2*y*z*w", t))
    assert sys_.hamiltonian("t") == built


def test_a11_decomposition_identity():
    sys_ = cat.build_system(cat.SPECS["A1_1"])
    t = sys_.table
    built = (h_second_painleve(t, "x", "y", "t", "a0")
             + h_quadratic(t, "z", "w")
             + et.parse_polynomial("y*z*w", t))
    assert sys_.hamiltonian("t") == built


def test_dynamical_degree_bounded_by_six():
    for sid in cat.SYSTEM_IDS:
        sys_ = cat.build_system(cat.SPECS[sid])
        for _, h in sys_.hamiltonians:
            assert h.degree_in_class(sk.DYNAMICAL) <= 6


def test_evaluate_a42_at_ones():
    h = cat.build_system(cat.SPECS["A4_2"]).hamiltonian("t")
    v = h.evaluate({"x": 1, "y": 1, "z": 1, "w": 1, "t": 0,
                    "a0": 1, "a1": 0, "a2": 0})
    # term-by-term: 2 + 2 + 0 - 0 + 1 - 1/2 + 1 + 1 + 2
    assert v == F(2) + 2 + 0 - 0 + 1 - F(1, 2) + 1 + 1 + 2 == F(17, 2)


def test_evaluate_a11_origin_is_zero():
    h = cat.build_system(cat.SPECS["A1_1"]).hamiltonian("t")
    assert h.evaluate({"x": 0, "y": 0, "z": 0, "w": 0, "t": 0,
                       "a0": F(1, 3), "a1": F(2, 3)}) == 0


def test_evaluate_pde_k1_and_k2():
    sys_ = cat.build_system(cat.SPECS["PDE_A1_1"])
    ones = {"q1": 1, "p1": 1, "q2": 1, "p2": 1, "a0": 1, "a1": -1}
    # term-by-term: 1 + 1 - 1 + 1/4 - 1/4 + 1
    assert sys_.hamiltonian("t1").evaluate(ones) == 2
    zeros = {"q1": 0, "p1": 0, "q2": 0, "p2": 0, "a0": F(1, 2), "a1": F(-1, 2)}
    assert sys_.hamiltonian("t2").evaluate(zeros) == 0


def test_evaluate_errors():
    sys_ = cat.build_system(cat.SPECS["A4_2"])
    with pytest.raises(sk.SymbolError, match="'y' unbound"):
        sys_.hamiltonian("t").evaluate({"x": 1})
    with pytest.raises(sk.SymbolError):
        sys_.hamiltonian("t9")


def test_divisor_tables():
    a42 = cat.build_system(cat.SPECS["A4_2"])
    assert [(et.poly_text(f), a) for f, a in a42.divisors] == [
        ("w", "a0"), ("z^2 + x", "a1"), ("y^2 + x + w + t", "a2")]
    a11 = cat.build_system(cat.SPECS["A1_1"])
    assert a11.divisors[0][0] == et.parse_polynomial("x + z^2", a11.table)
    assert a11.divisors[1][0] == et.parse_polynomial("x + y^2 + w^2 + t",
                                                     a11.table)
    pde = cat.build_system(cat.SPECS["PDE_A1_1"])
    assert pde.divisors[0] == (et.parse_polynomial("q1 + q2^2", pde.table), "a0")
    assert pde.divisors[1] == (et.parse_polynomial("q1 + p1^2 + p2^2",
                                                   pde.table), "a1")


def test_parameter_values_validate_relation():
    a42 = cat.build_system(cat.SPECS["A4_2"])
    a11 = cat.build_system(cat.SPECS["A1_1"])
    pv = cat.parameter_values(a42, {"a2": "2/15", "a0": F(1, 3),
                                    "a1": F(1, 5)})
    assert list(pv.items()) == [("a0", F(1, 3)), ("a1", F(1, 5)),
                                ("a2", F(2, 15))]
    assert all(type(v) is F for v in pv.values())
    assert list(cat.parameter_values(a11, {"a1": 1, "a0": 0})) \
        == ["a0", "a1"]
    with pytest.raises(sk.RelationError):
        cat.parameter_values(a42, {"a0": 1, "a1": 1, "a2": 1})
    with pytest.raises(sk.RelationError):
        cat.parameter_values(a11, {"a0": 1})
    # a read-only mapping is a parameter point too
    alpha = types.MappingProxyType({"a1": F(2, 3), "a0": F(1, 3)})
    report = holomorphy.ansatz_solve(a11, alpha=alpha)
    assert report.alpha == (("a0", F(1, 3)), ("a1", F(2, 3)))
    assert report.consistent and all(ok for _, ok in report.membership)


def test_relations_and_time_counts():
    a42 = cat.build_system(cat.SPECS["A4_2"])
    assert a42.relation.holds({"a0": 1, "a1": 0, "a2": 0})
    assert len(a42.times) == 1
    assert len(cat.build_system(cat.SPECS["A1_1"]).times) == 1
    assert len(cat.build_system(cat.SPECS["PDE_A1_1"]).times) == 3


def test_serialization_is_json_ready_and_complete():
    for sid in cat.SYSTEM_IDS:
        doc = cat.serialize_system(cat.build_system(cat.SPECS[sid]))
        text = json.dumps(doc, sort_keys=True)
        back = json.loads(text)
        assert back["id"] == sid
        assert {v["name"] for v in back["variables"]} \
            >= set(n for p in back["pairs"] for n in p)
        for name, ham in back["hamiltonians"].items():
            assert ham["terms"], name
    pde = cat.serialize_system(cat.build_system(cat.SPECS["PDE_A1_1"]))
    assert sorted(pde["hamiltonians"]) == ["K1", "K2", "K3"]


def test_specs_are_consistent():
    assert cat.SYSTEM_IDS == tuple(cat.SPECS)
    for sid, spec in cat.SPECS.items():
        sys_ = cat.build_system(spec)
        assert spec.name == sys_.id == sid and sys_.spec is spec
        params = sys_.table.symbols(sk.PARAMETER)
        assert tuple(t for t, _ in spec.hamiltonians) == sys_.times
        assert set(spec.relation.names()) == set(params)
        # one generator s_i per divisor f_i, one Cartan row and column each
        n = len(spec.divisors)
        assert sys_.generator_names == tuple(f"s{i}" for i in range(n))
        assert len(spec.cartan) == n and all(len(row) == n for row in spec.cartan)
        assert {alpha for _, alpha in spec.divisors} == set(params)
        for _, (word, offset) in spec.translations:
            assert word.split() and len(offset) == len(params)
        assert len(spec.alpha_samples) == 2
        for sample in spec.alpha_samples:
            assert sys_.relation.holds(dict(sample))


def test_cartan_matrices():
    """2 on the diagonal, and the relation's coefficient vector (1, 2, 2) or
    (1, 1) in divisor order is a null vector of A, so delta = sum c_i a_i
    is fixed by every s_i."""
    for sid, spec in cat.SPECS.items():
        a = spec.cartan
        assert all(a[i][i] == 2 for i in range(len(a))), sid
        c = [spec.relation.coeff(alpha) for _, alpha in spec.divisors]
        assert c == ([1, 2, 2] if sid == "A4_2" else [1, 1])
        assert all(sum(a_ij * c_j for a_ij, c_j in zip(row, c)) == 0
                   for row in a), sid


def test_unknown_system_errors(capsys):
    from weylflow import cli
    # only the command line looks a system up by name, and names it back
    for argv in (["verify", "BOGUS", "all"], ["apply", "BOGUS", "s0"],
                 ["integrate", "--system", "BOGUS"], ["ansatz", "BOGUS"],
                 ["export", "BOGUS"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "unknown system 'BOGUS'\n")
