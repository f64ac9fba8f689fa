"""The coupled Painleve-type systems: one declarative spec per system.

``SPECS`` holds, for every registered system, all the data the paper gives
for it: variables and canonical pairing, Hamiltonians by time, the affine
parameter relation, invariant divisors f_i with their parameters, the
Cartan matrix of the affine Weyl group, named translations with their
expected offsets, and two generic parameter samples.  Formulas are strings
in the ``exprtext`` syntax, parsed on first use; every other module builds
its objects from these specs (the generators and the holomorphy charts
from the divisors), so adding a system means adding one ``SystemSpec``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from . import exprtext
from .symkernel import (AffineRelation, CanonicalStructure, PARAMETER,
                        Polynomial, RelationError, Scalar, SymbolError,
                        VarTable)


class SystemSpec(NamedTuple):
    """Everything one system is built from, as text and literal tables.

    The time symbols are the keys of ``hamiltonians``.  Divisor i is
    (f_i, a_i); it fixes the generator s_i, and ``cartan`` row i fixes the
    action s_i(a_j) = a_j - cartan[i][j] * a_i, with rows and columns in
    divisor order; with the pairing it also fixes the holomorphy chart r_i.
    ``translations`` maps a name to a word over earlier map names (leftmost
    acts first) and the offset it must shift the parameters by on the
    relation hyperplane.
    """

    dynamical: tuple[str, ...]
    parameters: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    hamiltonians: Mapping[str, str]                   # time symbol -> H
    relation: AffineRelation
    divisors: tuple[tuple[str, str], ...]
    cartan: tuple[tuple[int, ...], ...]
    translations: Mapping[str, tuple[str, tuple[int, ...]]]
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
        cartan=((2, -1, 0), (-2, 2, -1), (0, -2, 2)),
        translations={"T1": ("s1 s2 s1 s0", (-2, 1, 0)),
                      "T2": ("s1 T1 s1", (0, -1, 1))},
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
        cartan=((2, -2), (-2, 2)),
        translations={"T": ("s1 s0", (-2, 2))},
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
        cartan=((2, -2), (-2, 2)),
        translations={},
        alpha_samples=({"a0": Fraction(1, 2), "a1": Fraction(-1, 2)},
                       {"a0": Fraction(5, 9), "a1": Fraction(-5, 9)}),
    ),
}

SYSTEM_IDS = tuple(SPECS)


def parameter_values(system_id: str, values: Mapping[str, Scalar]
                     ) -> dict[str, Fraction]:
    """Exact bindings of every parameter of a system, in name order.

    Raises RelationError for a name that is not a parameter, for an
    unbound parameter, and for values off the affine relation.
    """
    sys = build_system(system_id)
    names = sys.table.symbols(PARAMETER)
    for name in values:
        if name not in names:
            raise RelationError(f"{name!r} is not a parameter of {system_id}")
    bound = {}
    for name in names:
        if name not in values:
            raise RelationError(f"parameter {name!r} unbound")
        bound[name] = Fraction(values[name])
    if not sys.relation.holds(bound):
        shown = ", ".join(f"{n}={v}" for n, v in bound.items())
        raise RelationError(
            f"values {shown} violate the {system_id} parameter relation")
    return dict(sorted(bound.items()))


class HamiltonianSystem(NamedTuple):
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
        generator_names=tuple(f"s{i}" for i in range(len(spec.divisors))),
    )


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
