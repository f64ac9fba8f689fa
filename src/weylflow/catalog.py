"""The coupled Painleve-type systems: one declarative spec per system.

``SPECS`` holds, for every registered system, all the data the paper gives
for it: variables and canonical pairing, Hamiltonians by time, the affine
parameter relation, invariant divisors f_i with their parameters, Backlund
generators s_i with their parameter actions, named translations with their
expected offsets, holomorphy charts r_i / R_i with their corrections, and
two generic parameter samples.  Formulas are strings in the ``exprtext``
syntax, parsed on first use; every other module builds its objects from
these specs, so adding a system means adding one ``SystemSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from . import exprtext
from .symkernel import (AffineRelation, CanonicalStructure, DYNAMICAL,
                        PARAMETER, Polynomial, RelationError, Scalar,
                        SymbolError, VarTable)


@dataclass(frozen=True)
class SystemSpec:
    """Everything one system is built from, as text and literal tables.

    The time symbols are the keys of ``hamiltonians``.  ``generators`` maps
    s_i to its variable rules (moved dynamical symbols only) and its
    parameter-action rows (alpha_p -> sum_q row[q] * alpha_q, absent entries
    from the identity).  ``translations`` maps a name to a word over earlier
    map names (leftmost acts first) and the offset it must shift the
    parameters by on the relation hyperplane.  ``charts`` maps a chart name
    to its forward rules, keyed by the new dynamical symbols in table order,
    and its additive correction to the Hamiltonian.
    """

    dynamical: tuple[str, ...]
    parameters: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    hamiltonians: Mapping[str, str]                   # time symbol -> H
    relation: AffineRelation
    divisors: tuple[tuple[str, str], ...]
    generators: Mapping[str, tuple[Mapping[str, str], Mapping[str, Mapping[str, int]]]]
    translations: Mapping[str, tuple[str, tuple[int, ...]]]
    charts: Mapping[str, tuple[Mapping[str, str], str]]
    alpha_samples: tuple[Mapping[str, Fraction], ...]


SPECS: dict[str, SystemSpec] = {
    # four-dimensional coupled system: 2 * (Painleve-II block in x, y with
    # a1) + (autonomous Painleve-II block in z, w with a0) + x*w + 2*y*z*w
    "A4_2": SystemSpec(
        dynamical=("x", "y", "z", "w"), parameters=("a0", "a1", "a2"),
        pairs=(("x", "y"), ("z", "w")),
        hamiltonians={"t": "2*x*y^2 + 2*x^2 + 2*t*x - 2*a1*y"
                           " + z^2*w - 1/2*w^2 + a0*z + x*w + 2*y*z*w"},
        relation=AffineRelation.make({"a0": 1, "a1": 2, "a2": 2}, 1, "a2"),
        divisors=(("w", "a0"), ("x + z^2", "a1"), ("x + y^2 + w + t", "a2")),
        generators={
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
        translations={"T1": ("s1 s2 s1 s0", (-2, 1, 0)),
                      "T2": ("s1 T1 s1", (0, -1, 1))},
        charts={
            "r0": ({"x0": "x", "y0": "y", "z0": "1/z",
                    "w0": "-(w*z + a0)*z"}, "0"),
            "r1": ({"x1": "-((x + z^2)*y - a1)*y", "y1": "1/y",
                    "z1": "z", "w1": "w - 2*y*z"}, "0"),
            "r2": ({"x2": "-((x + y^2 + w + t)*y - a2)*y",
                    "y2": "1/y", "z2": "z + y", "w2": "w"}, "y"),
        },
        alpha_samples=(
            {"a0": Fraction(1, 3), "a1": Fraction(1, 5), "a2": Fraction(2, 15)},
            {"a0": Fraction(3, 7), "a1": Fraction(1, 11), "a2": Fraction(15, 77)}),
    ),
    # its degeneration: (Painleve-II block in x, y with a0)
    # + (hyperbolic quadratic block in z, w) + y*z*w
    "A1_1": SystemSpec(
        dynamical=("x", "y", "z", "w"), parameters=("a0", "a1"),
        pairs=(("x", "y"), ("z", "w")),
        hamiltonians={"t": "x*y^2 + x^2 + t*x - a0*y"
                           " + 1/4*z^2 - 1/4*w^2 + y*z*w"},
        relation=AffineRelation.make({"a0": 1, "a1": 1}, 1, "a1"),
        divisors=(("x + z^2", "a0"), ("x + y^2 + w^2 + t", "a1")),
        generators={
            "s0": ({"y": "y - a0/(x + z^2)",
                    "w": "w - 2*a0*z/(x + z^2)"},
                   {"a0": {"a0": -1}, "a1": {"a1": 1, "a0": 2}}),
            "s1": ({"x": "x + 2*a1*y/(x + y^2 + w^2 + t)"
                         " - a1^2/(x + y^2 + w^2 + t)^2",
                    "y": "y - a1/(x + y^2 + w^2 + t)",
                    "z": "z + 2*a1*w/(x + y^2 + w^2 + t)"},
                   {"a0": {"a0": 1, "a1": 2}, "a1": {"a1": -1}}),
        },
        translations={"T": ("s1 s0", (-2, 2))},
        charts={
            "r0": ({"x0": "-((x + z^2)*y - a0)*y", "y0": "1/y",
                    "z0": "z", "w0": "w - 2*y*z"}, "0"),
            "r1": ({"x1": "-((x + y^2 + w^2 + t)*y - a1)*y",
                    "y1": "1/y", "z1": "z + 2*y*w", "w1": "w"}, "y"),
        },
        alpha_samples=({"a0": Fraction(1, 3), "a1": Fraction(2, 3)},
                       {"a0": Fraction(4, 7), "a1": Fraction(3, 7)}),
    ),
    # the autonomous multi-time system with commuting K1, K2, K3
    "PDE_A1_1": SystemSpec(
        dynamical=("q1", "p1", "q2", "p2"), parameters=("a0", "a1"),
        pairs=(("q1", "p1"), ("q2", "p2")),
        hamiltonians={
            "t1": "q1*p1^2 + q1^2 - a0*p1 + 1/4*q2^2 - 1/4*p2^2 + p1*q2*p2",
            "t2": "q2^2*p2^2 - 1/4*q2^2 + 1/4*p2^2 - 2*a0*q2*p2 + q1*q2^2"
                  " + q1*p2^2 - p1*q2*p2 + p1^2*q2^2",
            # The two q1^2-terms are forced: without them the three flows do
            # not commute and the t3 flow cannot reproduce the scalar u_t3
            # equation.  With a1 = -a0 this K3 equals K1^2/2 identically.
            "t3": "1/2*q1^2*p1^4 + q1^3*p1^2 + 1/2*q1^4 - a0*q1*p1^3"
                  " + a1*q1^2*p1 + 1/2*a0^2*p1^2 + 1/32*q2^4 + 1/32*p2^4"
                  " - 1/16*q2^2*p2^2 + q1*p1^3*q2*p2 + 1/2*p1^2*q2^2*p2^2"
                  " - 1/4*q1*p1^2*p2^2 - 1/4*p1*q2*p2^3 + q1^2*p1*q2*p2"
                  " + 1/4*q1*p1^2*q2^2 + 1/4*p1*q2^3*p2 - a0*p1^2*q2*p2"
                  " + 1/4*a0*p1*p2^2 + 1/4*a1*p1*q2^2"
                  " + 1/4*q1^2*q2^2 - 1/4*q1^2*p2^2",
        },
        relation=AffineRelation.make({"a0": 1, "a1": 1}, 0, "a1"),
        divisors=(("q1 + q2^2", "a0"), ("q1 + p1^2 + p2^2", "a1")),
        generators={
            "s0": ({"p1": "p1 - a0/(q1 + q2^2)",
                    "p2": "p2 - 2*a0*q2/(q1 + q2^2)"},
                   {"a0": {"a0": -1}, "a1": {"a1": 1, "a0": 2}}),
            "s1": ({"q1": "q1 + 2*a1*p1/(q1 + p1^2 + p2^2)"
                          " - a1^2/(q1 + p1^2 + p2^2)^2",
                    "p1": "p1 - a1/(q1 + p1^2 + p2^2)",
                    "q2": "q2 + 2*a1*p2/(q1 + p1^2 + p2^2)"},
                   {"a0": {"a0": 1, "a1": 2}, "a1": {"a1": -1}}),
        },
        translations={},
        charts={
            "R0": ({"x0": "-((q1 + q2^2)*p1 - a0)*p1", "y0": "1/p1",
                    "z0": "q2", "w0": "p2 - 2*p1*q2"}, "0"),
            "R1": ({"x1": "-((q1 + p1^2 + p2^2)*p1 - a1)*p1",
                    "y1": "1/p1", "z1": "q2 + 2*p1*p2", "w1": "p2"}, "0"),
        },
        alpha_samples=({"a0": Fraction(1, 2), "a1": Fraction(-1, 2)},
                       {"a0": Fraction(5, 9), "a1": Fraction(-5, 9)}),
    ),
}

SYSTEM_IDS = tuple(SPECS)


@dataclass(frozen=True)
class ParameterValues:
    """Exact parameter bindings satisfying a system's affine relation."""

    system_id: str
    values: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def make(system_id: str, values: Mapping[str, Scalar]) -> "ParameterValues":
        sys = build_system(system_id)
        bound = {}
        for name in sys.table.symbols(PARAMETER):
            if name not in values:
                raise RelationError(f"parameter {name!r} unbound")
            bound[name] = Fraction(values[name])
        if not sys.relation.holds(bound):
            raise RelationError(
                f"values {dict(values)} violate the {system_id} parameter relation")
        return ParameterValues(system_id, tuple(sorted(bound.items())))

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)

    def __getitem__(self, name: str) -> Fraction:
        for n, v in self.values:
            if n == name:
                return v
        raise SymbolError(f"parameter {name!r} not bound")


@dataclass(frozen=True)
class HamiltonianSystem:
    id: str
    table: VarTable
    pairing: CanonicalStructure
    hamiltonians: tuple[tuple[str, Polynomial], ...]  # (time symbol, H)
    relation: AffineRelation
    divisors: tuple[tuple[Polynomial, str], ...]      # (f_i, paired parameter)
    generator_names: tuple[str, ...]

    def hamiltonian(self, time_symbol: str) -> Polynomial:
        for t, h in self.hamiltonians:
            if t == time_symbol:
                return h
        raise SymbolError(f"{self.id} has no Hamiltonian for time {time_symbol!r}")

    @property
    def times(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.hamiltonians)

    def hamiltonian_name(self, time_symbol: str) -> str:
        if len(self.hamiltonians) == 1:
            return "H"
        return f"K{self.times.index(time_symbol) + 1}"


# Hamiltonian building blocks, which the spec texts above expand
def h_second_painleve(table: VarTable, x: str, y: str, t: str, a: str) -> Polynomial:
    """Painleve-II block: x*y^2 + x^2 + t*x - a*y."""
    return exprtext.parse_polynomial(f"{x}*{y}^2 + {x}^2 + {t}*{x} - {a}*{y}", table)


def h_second_painleve_auto(table: VarTable, z: str, w: str, a: str) -> Polynomial:
    """Autonomous Painleve-II block: z^2*w - w^2/2 + a*z."""
    return exprtext.parse_polynomial(f"{z}^2*{w} - 1/2*{w}^2 + {a}*{z}", table)


def h_quadratic(table: VarTable, z: str, w: str) -> Polynomial:
    """Hyperbolic quadratic block: z^2/4 - w^2/4."""
    return exprtext.parse_polynomial(f"1/4*{z}^2 - 1/4*{w}^2", table)


@lru_cache(maxsize=None)
def build_system(system_id: str) -> HamiltonianSystem:
    if system_id not in SPECS:
        raise SymbolError(
            f"unknown system id {system_id!r}; expected one of {SYSTEM_IDS}")
    spec = SPECS[system_id]
    table = VarTable.make(spec.dynamical, tuple(spec.hamiltonians),
                          spec.parameters)
    return HamiltonianSystem(
        id=system_id,
        table=table,
        pairing=CanonicalStructure(spec.pairs),
        hamiltonians=tuple((t, exprtext.parse_polynomial(text, table))
                           for t, text in spec.hamiltonians.items()),
        relation=spec.relation,
        divisors=tuple((exprtext.parse_polynomial(text, table), alpha)
                       for text, alpha in spec.divisors),
        generator_names=tuple(spec.generators),
    )


def evaluate_hamiltonian(sys: HamiltonianSystem, time_symbol: str,
                         state: Mapping[str, Scalar]) -> Fraction:
    """Exact value of the Hamiltonian attached to ``time_symbol``.

    Every dynamical symbol, every parameter, and any time symbol the
    Hamiltonian actually contains must be bound; the parameter binding must
    satisfy the system relation.
    """
    ham = sys.hamiltonian(time_symbol)
    point: dict[str, Fraction] = {}
    params: dict[str, Fraction] = {}
    for name, value in state.items():
        sys.table.index(name)
        point[name] = Fraction(value)
    for name in sys.table.symbols(DYNAMICAL):
        if name not in point:
            raise SymbolError(f"dynamical symbol {name!r} unbound")
    for name in sys.table.symbols(PARAMETER):
        if name not in point:
            raise SymbolError(f"parameter {name!r} unbound")
        params[name] = point[name]
    for name in ham.symbols():
        if name not in point:
            raise SymbolError(f"symbol {name!r} unbound")
    if not sys.relation.holds(params):
        raise RelationError(f"parameters {params} violate the {sys.id} relation")
    return ham.evaluate(point)


def params_with_divisor_zero(sys: HamiltonianSystem, index: int
                             ) -> dict[str, Polynomial]:
    """Substitution rules imposing alpha_i = 0 together with the relation.

    The divisor's parameter goes to zero and one further parameter is
    eliminated through the relation restricted to alpha_i = 0.
    """
    from .symkernel import substitute

    _, alpha = sys.divisors[index]
    table = sys.table
    solve_name = sys.relation.eliminated
    if solve_name == alpha:
        others = [n for n in sys.relation.names()
                  if n != alpha and sys.relation.coeff(n) != 0]
        solve_name = others[-1]
    name, expr = sys.relation.solve_for(table, solve_name)
    expr = substitute(expr, {alpha: Polynomial.zero(table)}).as_polynomial()
    return {alpha: Polynomial.zero(table), name: expr}


def serialize_system(sys: HamiltonianSystem) -> dict:
    """JSON-ready description: variables, term lists, pairing, relation."""
    def poly_doc(p: Polynomial) -> dict:
        terms = []
        for e, c in sorted(p.terms.items()):
            terms.append({"exponents": list(e), "coefficient": str(c)})
        return {"text": exprtext.poly_text(p), "terms": terms}

    return {
        "id": sys.id,
        "variables": [{"name": n, "class": c}
                      for n, c in zip(sys.table.names, sys.table.classes)],
        "pairs": [list(p) for p in sys.pairing.pairs],
        "relation": {
            "coefficients": {n: str(c) for n, c in sys.relation.terms},
            "constant": str(sys.relation.constant),
            "eliminated": sys.relation.eliminated,
        },
        "hamiltonians": {sys.hamiltonian_name(t): poly_doc(h)
                         for t, h in sys.hamiltonians},
        "times": list(sys.times),
        "divisors": [{"name": f"f{i}", "polynomial": exprtext.poly_text(f),
                      "parameter": a}
                     for i, (f, a) in enumerate(sys.divisors)],
        "generators": list(sys.generator_names),
    }
