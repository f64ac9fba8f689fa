"""The coupled Painleve-type systems: one declarative spec per system.

A ``SystemSpec`` value holds all the data the paper gives for a system,
formulas as ``exprtext`` strings.  ``build_system`` parses it into the
``HamiltonianSystem`` that every derivation takes: the generators and
the holomorphy charts come from its divisors, the reduction checks from
its optional ``reduction``.  ``SPECS`` registers the three systems by
name for the command line; a spec that is not registered runs alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional

from . import exprtext
from .symkernel import (AffineRelation, CanonicalStructure, PARAMETER,
                        Polynomial, RelationError, Scalar, SymbolError,
                        VarTable, substitute)


class Reduction(NamedTuple):
    """A birational change of the dynamical symbols to new ones in which
    the flows read as one scalar equation along ``time``.

    ``forward`` writes each new symbol in the old ones.  Each printed right
    side (check name, time, new symbol, text) must equal that symbol's
    derivative along that time; ``underived`` lists the components (time,
    new symbol) that nothing prints.  ``singular`` lists the factors of the
    printed denominators, in the new symbols.
    """

    time: str
    dynamical: tuple[str, ...]
    forward: tuple[tuple[str, str], ...]
    printed: tuple[tuple[str, str, str, str], ...]
    underived: tuple[tuple[str, str], ...]
    singular: tuple[str, ...]


class SystemSpec(NamedTuple):
    """Everything one system is built from, as text and literal tables.

    The time symbols are the first members of ``hamiltonians``.  Divisor i
    is (f_i, a_i); it fixes the generator s_i, and ``cartan`` row i fixes
    the action s_i(a_j) = a_j - cartan[i][j] * a_i, with rows and columns
    in divisor order; with the pairing it also fixes the holomorphy chart
    r_i.  ``translations`` pairs a name with a word over earlier map names
    (leftmost acts first) and the offset it must shift the parameters by on
    the relation hyperplane.  Every field compares and hashes by value, so
    a spec keys the cache of ``build_system`` and equal specs written out
    separately share one system.
    """

    name: str
    dynamical: tuple[str, ...]
    parameters: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    hamiltonians: tuple[tuple[str, str], ...]         # (time symbol, H)
    relation: AffineRelation
    divisors: tuple[tuple[str, str], ...]
    cartan: tuple[tuple[int, ...], ...]
    translations: tuple[tuple[str, tuple[str, tuple[int, ...]]], ...]
    alpha_samples: tuple[tuple[tuple[str, Fraction], ...], ...]
    reduction: Optional[Reduction] = None


SPECS: dict[str, SystemSpec] = {spec.name: spec for spec in (
    # four-dimensional coupled system: 2 * (Painleve-II block in x, y with
    # a1) + (autonomous Painleve-II block in z, w with a0) + x*w + 2*y*z*w
    SystemSpec(
        name="A4_2",
        dynamical=("x", "y", "z", "w"), parameters=("a0", "a1", "a2"),
        pairs=(("x", "y"), ("z", "w")),
        hamiltonians=(("t", "2*x*y^2 + 2*x^2 + 2*t*x - 2*a1*y"
                            " + z^2*w - 1/2*w^2 + a0*z + x*w + 2*y*z*w"),),
        relation=AffineRelation.make({"a0": 1, "a1": 2, "a2": 2}, 1, "a2"),
        divisors=(("w", "a0"), ("x + z^2", "a1"), ("x + y^2 + w + t", "a2")),
        cartan=((2, -1, 0), (-2, 2, -1), (0, -2, 2)),
        translations=(("T1", ("s1 s2 s1 s0", (-2, 1, 0))),
                      ("T2", ("s1 T1 s1", (0, -1, 1)))),
        alpha_samples=(
            (("a0", Fraction(1, 3)), ("a1", Fraction(1, 5)),
             ("a2", Fraction(2, 15))),
            (("a0", Fraction(3, 7)), ("a1", Fraction(1, 11)),
             ("a2", Fraction(15, 77)))),
    ),
    # its degeneration: (Painleve-II block in x, y with a0)
    # + (hyperbolic quadratic block in z, w) + y*z*w
    SystemSpec(
        name="A1_1",
        dynamical=("x", "y", "z", "w"), parameters=("a0", "a1"),
        pairs=(("x", "y"), ("z", "w")),
        hamiltonians=(("t", "x*y^2 + x^2 + t*x - a0*y"
                            " + 1/4*z^2 - 1/4*w^2 + y*z*w"),),
        relation=AffineRelation.make({"a0": 1, "a1": 1}, 1, "a1"),
        divisors=(("x + z^2", "a0"), ("x + y^2 + w^2 + t", "a1")),
        cartan=((2, -2), (-2, 2)),
        translations=(("T", ("s1 s0", (-2, 2))),),
        alpha_samples=((("a0", Fraction(1, 3)), ("a1", Fraction(2, 3))),
                       (("a0", Fraction(4, 7)), ("a1", Fraction(3, 7)))),
    ),
    # the autonomous multi-time system with commuting K1, K2, K3
    SystemSpec(
        name="PDE_A1_1",
        dynamical=("q1", "p1", "q2", "p2"), parameters=("a0", "a1"),
        pairs=(("q1", "p1"), ("q2", "p2")),
        hamiltonians=(
            ("t1", "q1*p1^2 + q1^2 - a0*p1 + 1/4*q2^2 - 1/4*p2^2 + p1*q2*p2"),
            ("t2", "q2^2*p2^2 - 1/4*q2^2 + 1/4*p2^2 - 2*a0*q2*p2 + q1*q2^2"
                   " + q1*p2^2 - p1*q2*p2 + p1^2*q2^2"),
            # The two q1^2-terms are forced: without them the three flows do
            # not commute and the t3 flow cannot reproduce the scalar u_t3
            # equation.  With a1 = -a0 this K3 equals K1^2/2 identically.
            ("t3", "1/2*q1^2*p1^4 + q1^3*p1^2 + 1/2*q1^4 - a0*q1*p1^3"
                   " + a1*q1^2*p1 + 1/2*a0^2*p1^2 + 1/32*q2^4 + 1/32*p2^4"
                   " - 1/16*q2^2*p2^2 + q1*p1^3*q2*p2 + 1/2*p1^2*q2^2*p2^2"
                   " - 1/4*q1*p1^2*p2^2 - 1/4*p1*q2*p2^3 + q1^2*p1*q2*p2"
                   " + 1/4*q1*p1^2*q2^2 + 1/4*p1*q2^3*p2 - a0*p1^2*q2*p2"
                   " + 1/4*a0*p1*p2^2 + 1/4*a1*p1*q2^2"
                   " + 1/4*q1^2*q2^2 - 1/4*q1^2*p2^2"),
        ),
        relation=AffineRelation.make({"a0": 1, "a1": 1}, 0, "a1"),
        divisors=(("q1 + q2^2", "a0"), ("q1 + p1^2 + p2^2", "a1")),
        cartan=((2, -2), (-2, 2)),
        translations=(),
        alpha_samples=((("a0", Fraction(1, 2)), ("a1", Fraction(-1, 2))),
                       (("a0", Fraction(5, 9)), ("a1", Fraction(-5, 9)))),
        # the fourth-order scalar equation in u = z along t1, with
        # u_t1 = w, u_t1t1 = x, u_t1t1t1 = y
        reduction=Reduction(
            time="t1",
            dynamical=("x", "y", "z", "w"),
            forward=(("x", "1/4*q2 - 2*q1*q2"),
                     ("y", "-1/8*p2 + q1*p2 + 1/4*p1*q2 - 6*q1*p1*q2"
                           " - 2*q2^2*p2 + 2*a0*q2"),
                     ("z", "q2"),
                     ("w", "-1/2*p2 + p1*q2")),
            printed=(
                ("xdot_t1_is_y", "t1", "x", "y"),
                ("zdot_t1_is_w", "t1", "z", "w"),
                ("wdot_t1_is_x", "t1", "w", "x"),
                ("fourth_order_t1", "t1", "y",
                 "(6*x^2*w^2 - 2*x*z*w^2 - 12*x^3*z - 4*x*y*z*w + 7*x^2*z^2"
                 " + 2*y*z^2*w - 2*y^2*z^2 - 3/2*x*z^3 - 48*x*z^3*w^2"
                 " + 1/8*z^4 + 4*z^4*w^2 + 24*x^2*z^4 + 32*y*z^4*w"
                 " - 12*x*z^5 + 2*z^6 + 8*z^8 + 8*a0^2*z^4)"
                 " / (z^2*(8*z^3 + z - 4*x))"),
                ("u_t2", "t2", "z", "-3/2*w - y + 3*x*w/z"),
                ("u_t3", "t3", "z",
                 "(32*x^2*w^3 - 64*x^3*z*w - 64*x*y*z*w^2 + 48*x^2*z^2*w"
                 " + 32*y^2*z^2*w - 12*x*z^3*w + 512*x*z^3*w^3 + z^4*w"
                 " - 64*z^4*w^3 + 128*x^2*z^4*w - 256*y*z^4*w^2"
                 " - 128*x*z^5*w + 24*z^6*w + 128*z^8*w + 32*a0*x*z^4"
                 " - 8*a0*z^5 + 128*a0*x*z^6 - 96*a0*z^7 - 256*a0*z^9"
                 " - 128*a0^2*z^4*w + 32*a1*x*z^4 - 8*a1*z^5"
                 " + 128*a1*x*z^6 - 96*a1*z^7 - 256*a1*z^9)"
                 " / (64*z^3*(8*z^3 + z - 4*x))")),
            underived=(("t2", "x"), ("t3", "x"), ("t2", "y"), ("t3", "y"),
                       ("t2", "w"), ("t3", "w")),
            singular=("8*z^3 + z - 4*x", "z")),
    ),
)}

SYSTEM_IDS = tuple(SPECS)


def parameter_values(sys: HamiltonianSystem, values: Mapping[str, Scalar]
                     ) -> dict[str, Fraction]:
    """Exact bindings of every parameter of a system, in name order.

    Raises RelationError for a name that is not a parameter, for an
    unbound parameter, and for values off the affine relation.
    """
    names = sys.table.symbols(PARAMETER)
    for name in values:
        if name not in names:
            raise RelationError(f"{name!r} is not a parameter of {sys.id}")
    bound = {}
    for name in names:
        if name not in values:
            raise RelationError(f"parameter {name!r} unbound")
        bound[name] = Fraction(values[name])
    if not sys.relation.holds(bound):
        shown = ", ".join(f"{n}={v}" for n, v in bound.items())
        raise RelationError(
            f"values {shown} violate the {sys.id} parameter relation")
    return dict(sorted(bound.items()))


class HamiltonianSystem:
    """A spec with its formulas parsed over its table.

    Equal only to itself and hashed by identity, so a system keys the
    caches of the derivations; ``build_system`` makes one per spec.
    """

    __slots__ = ("spec", "id", "relation", "table", "pairing", "hamiltonians",
                 "divisors", "generator_names")

    def __init__(self, spec: SystemSpec):
        table = VarTable.make(spec.dynamical,
                              tuple(t for t, _ in spec.hamiltonians),
                              spec.parameters)
        self.spec = spec
        self.id = spec.name
        self.relation = spec.relation
        self.table = table
        self.pairing = CanonicalStructure(spec.pairs)
        # (time symbol, H) and (f_i, paired parameter)
        self.hamiltonians = tuple((t, exprtext.parse_polynomial(text, table))
                                  for t, text in spec.hamiltonians)
        self.divisors = tuple((exprtext.parse_polynomial(text, table), alpha)
                              for text, alpha in spec.divisors)
        self.generator_names = tuple(f"s{i}" for i in range(len(spec.divisors)))

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
def build_system(spec: SystemSpec) -> HamiltonianSystem:
    return HamiltonianSystem(spec)


def params_with_divisor_zero(sys: HamiltonianSystem, index: int
                             ) -> dict[str, Polynomial]:
    """Substitution rules imposing alpha_i = 0 together with the relation.

    The divisor's parameter goes to zero and one further parameter is
    eliminated through the relation restricted to alpha_i = 0.
    """
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
        return {"text": exprtext.poly_text(p),
                "terms": [{"exponents": list(e), "coefficient": str(c)}
                          for e, c in sorted(p.terms.items())]}

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
