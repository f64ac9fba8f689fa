"""Hamiltonian vector fields, flow algebra, and the scalar reduction.

Covers four layers of machinery:

* symbolic Hamiltonian vector fields and derivatives along flows,
* Lie brackets of fields (commuting multi-time flows),
* invariant-divisor dynamics (df/dt lands in the ideal (f) at alpha = 0),
* the birational change of variables carrying the multi-time system in
  (q1, p1, q2, p2) to a fourth-order scalar equation in u = z, with
  u_t1 = w, u_t1t1 = x, u_t1t1t1 = y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import exprtext
from .catalog import HamiltonianSystem, build_system, params_with_divisor_zero
from .solve import triangular_inverse
from .symkernel import (DYNAMICAL, ExprLike, Polynomial, RationalExpr,
                        VarTable, cast, exact_divide, is_identically_equal,
                        reduce_parameters, substitute)


@dataclass(frozen=True)
class VectorField:
    """First-order field: one RationalExpr component per dynamical symbol."""

    system_id: Optional[str]
    table: VarTable
    time_symbol: Optional[str]
    components: tuple[tuple[str, RationalExpr], ...]

    def component(self, name: str) -> RationalExpr:
        for n, c in self.components:
            if n == name:
                return c
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.components)


@lru_cache(maxsize=None)
def _system_field(system_id: str, time_symbol: str) -> VectorField:
    sys = build_system(system_id)
    ham = sys.hamiltonian(time_symbol)
    comps: dict[str, RationalExpr] = {}
    for coord, mom in sys.pairing.pairs:
        comps[coord] = RationalExpr.from_polynomial(ham.derivative(mom))
        comps[mom] = RationalExpr.from_polynomial(-ham.derivative(coord))
    ordered = tuple((n, comps[n]) for n in sys.table.symbols(DYNAMICAL))
    return VectorField(system_id, sys.table, time_symbol, ordered)


def hamiltonian_vector_field(sys: HamiltonianSystem, time_symbol: str) -> VectorField:
    """coord_dot = +dH/dmomentum, momentum_dot = -dH/dcoord for the pairing."""
    return _system_field(sys.id, time_symbol)


def derivative_along(field: VectorField, f: ExprLike) -> RationalExpr:
    """Chain rule: sum over u of df/du * field_u, plus df/dt.

    df/dt is taken only when f's table holds the field's time symbol;
    zero terms are skipped.
    """
    if isinstance(f, Polynomial):
        f = RationalExpr.from_polynomial(f)
    total = RationalExpr.const(f.table, 0)
    if field.time_symbol in f.table:
        total = f.derivative(field.time_symbol)
    for u, component in field.components:
        du = f.derivative(u)
        if not du.is_zero():
            total = total + du * component
    return total


def time_derivative_along(sys: HamiltonianSystem, f: ExprLike,
                          time_symbol: str) -> RationalExpr:
    """Total derivative of f along the flow: sum df/du udot + df/dt."""
    return derivative_along(hamiltonian_vector_field(sys, time_symbol), f)


def serialize_field(field: VectorField) -> dict:
    """JSON-ready field description in canonical text syntax."""
    return {
        "system": field.system_id,
        "time": field.time_symbol,
        "components": {n: exprtext.expr_text(c) for n, c in field.components},
    }


def lie_bracket(f: VectorField, g: VectorField) -> VectorField:
    """[f, g]_v = sum_u (f_u dg_v/du - g_u df_v/du); zero iff the flows commute."""
    if f.table != g.table:
        raise ValueError("vector fields over different tables")
    names = f.names()
    comps = []
    for v in names:
        acc = RationalExpr.const(f.table, 0)
        gv = g.component(v)
        fv = f.component(v)
        for u in names:
            acc = acc + f.component(u) * gv.derivative(u) \
                - g.component(u) * fv.derivative(u)
        comps.append((v, acc))
    return VectorField(f.system_id, f.table, None, tuple(comps))


# ---------------------------------------------------------------------------
# invariant divisors


@dataclass(frozen=True)
class DivisorReport:
    system_id: str
    time_symbol: str
    index: int
    alpha: str
    cofactor: Optional[Polynomial]
    remainder: Polynomial
    affine_constant: Optional[Fraction]

    @property
    def passed(self) -> bool:
        return self.cofactor is not None and self.remainder.is_zero()

    def as_dict(self) -> dict:
        return {
            "system": self.system_id,
            "time": self.time_symbol,
            "divisor_index": self.index,
            "alpha": self.alpha,
            "passed": self.passed,
            "cofactor": exprtext.poly_text(self.cofactor)
            if self.cofactor is not None else None,
            "remainder": exprtext.poly_text(self.remainder),
            "affine_constant": str(self.affine_constant)
            if self.affine_constant is not None else None,
        }


def divisor_invariance(sys: HamiltonianSystem, time_symbol: str,
                       index: int) -> DivisorReport:
    """Check df_i/dt in (f_i) once alpha_i = 0 (with the relation imposed).

    Reports the cofactor from the exact division, the division remainder
    (zero on success), and, when df_i/dt - cofactor*f_i is a constant
    multiple of alpha_i modulo the relation, that constant.
    """
    f_i, alpha = sys.divisors[index]
    dfdt = time_derivative_along(sys, f_i, time_symbol).as_polynomial()
    zero_rules = params_with_divisor_zero(sys, index)
    dfdt0 = substitute(dfdt, zero_rules).as_polynomial()
    quotient, remainder = (None, dfdt0)
    q = exact_divide(dfdt0, f_i)
    if q is not None:
        quotient, remainder = q, Polynomial.zero(sys.table)
    affine_constant = None
    if quotient is not None:
        rem = reduce_parameters(dfdt - quotient * f_i, sys.relation)
        tau = reduce_parameters(Polynomial.variable(sys.table, alpha), sys.relation)
        if rem.is_zero():
            affine_constant = Fraction(0)
        elif rem.is_polynomial() and tau.is_polynomial() \
                and not tau.as_polynomial().is_zero():
            ratio = exact_divide(rem.as_polynomial(), tau.as_polynomial())
            if ratio is not None and ratio.is_constant():
                affine_constant = ratio.constant_value()
    return DivisorReport(sys.id, time_symbol, index, alpha, quotient,
                         remainder, affine_constant)


# ---------------------------------------------------------------------------
# variable maps and pushforward


@dataclass(frozen=True)
class VariableMap:
    """Birational change of dependent variables with a populated inverse,
    which ``derive`` solves from the forward rules."""

    old_table: VarTable
    new_table: VarTable
    forward: tuple[tuple[str, RationalExpr], ...]   # new symbol in old symbols
    inverse: tuple[tuple[str, RationalExpr], ...]   # old symbol in new symbols

    @classmethod
    def derive(cls, old_table: VarTable, new_table: VarTable,
               forward: tuple[tuple[str, RationalExpr], ...], **extra):
        """The map inverting ``forward``; ``extra`` fills subclass fields."""
        solved = triangular_inverse(dict(forward), old_table.symbols(DYNAMICAL),
                                    old_table.union(new_table))
        inverse = tuple(sorted((name, cast(expr, new_table))
                               for name, expr in solved.items()))
        return cls(old_table, new_table, forward, inverse, **extra)

    def inverse_rules(self) -> dict[str, RationalExpr]:
        """Old symbols in new ones; untouched symbols map to themselves."""
        out = dict(self.inverse)
        for name in self.old_table.names:
            if name not in out:
                out[name] = RationalExpr.variable(self.new_table, name)
        return out

    def forward_rules(self) -> dict[str, RationalExpr]:
        """New symbols in old ones, mirroring ``inverse_rules``."""
        out = dict(self.forward)
        for name in self.new_table.names:
            if name not in out:
                out[name] = RationalExpr.variable(self.old_table, name)
        return out


def pushforward_field(m: VariableMap, fields: Sequence[VectorField]
                      ) -> tuple[VectorField, ...]:
    """Transport fields through m: dv/dt = sum_u dm(v)/du * udot, re-expressed."""
    if not m.inverse:
        raise ValueError("variable map has no inverse rules")
    inverse_rules = m.inverse_rules()
    out = []
    for field in fields:
        comps = tuple((v, substitute(derivative_along(field, fwd), inverse_rules,
                                     m.new_table))
                      for v, fwd in m.forward)
        out.append(VectorField(None, m.new_table, field.time_symbol, comps))
    return tuple(out)


# ---------------------------------------------------------------------------
# the birational reduction to a scalar fourth-order equation

_FORWARD_RULES = {
    "x": "1/4*q2 - 2*q1*q2",
    "y": ("-1/8*p2 + q1*p2 + 1/4*p1*q2 - 6*q1*p1*q2"
          " - 2*q2^2*p2 + 2*a0*q2"),
    "z": "q2",
    "w": "-1/2*p2 + p1*q2",
}

# right sides of the scalar system, written through u = z, u_t1 = w,
# u_t1t1 = x, u_t1t1t1 = y

FOURTH_ORDER_RHS_TEXT = (
    "(6*x^2*w^2 - 2*x*z*w^2 - 12*x^3*z - 4*x*y*z*w + 7*x^2*z^2 + 2*y*z^2*w"
    " - 2*y^2*z^2 - 3/2*x*z^3 - 48*x*z^3*w^2 + 1/8*z^4 + 4*z^4*w^2"
    " + 24*x^2*z^4 + 32*y*z^4*w - 12*x*z^5 + 2*z^6 + 8*z^8 + 8*a0^2*z^4)"
    " / (z^2*(8*z^3 + z - 4*x))")

T2_RHS_TEXT = "-3/2*w - y + 3*x*w/z"

T3_RHS_TEXT = (
    "(32*x^2*w^3 - 64*x^3*z*w - 64*x*y*z*w^2 + 48*x^2*z^2*w + 32*y^2*z^2*w"
    " - 12*x*z^3*w + 512*x*z^3*w^3 + z^4*w - 64*z^4*w^3 + 128*x^2*z^4*w"
    " - 256*y*z^4*w^2 - 128*x*z^5*w + 24*z^6*w + 128*z^8*w"
    " + 32*a0*x*z^4 - 8*a0*z^5 + 128*a0*x*z^6 - 96*a0*z^7 - 256*a0*z^9"
    " - 128*a0^2*z^4*w + 32*a1*x*z^4 - 8*a1*z^5 + 128*a1*x*z^6 - 96*a1*z^7"
    " - 256*a1*z^9) / (64*z^3*(8*z^3 + z - 4*x))")


@lru_cache(maxsize=None)
def reduced_table() -> VarTable:
    """Table of the scalar-reduction world: (x, y, z, w) with three times."""
    return VarTable.make(dynamical=("x", "y", "z", "w"), times=("t1", "t2", "t3"),
                         parameters=("a0", "a1"))


@lru_cache(maxsize=None)
def reduction_map() -> VariableMap:
    """The variable change from (q1, p1, q2, p2) to (x, y, z, w).

    The inverse is derived, not transcribed: q2 and q1 fall out of
    triangular rules, and (p1, p2) solve the remaining linear pair.
    """
    old = build_system("PDE_A1_1").table
    forward = tuple(sorted((name, exprtext.parse(text, old))
                           for name, text in _FORWARD_RULES.items()))
    return VariableMap.derive(old, reduced_table(), forward)


@lru_cache(maxsize=None)
def reduced_fields() -> dict[str, VectorField]:
    """Pushforward of the three multi-time flows through the reduction map."""
    sys = build_system("PDE_A1_1")
    fields = [hamiltonian_vector_field(sys, t) for t in sys.times]
    pushed = pushforward_field(reduction_map(), fields)
    return {f.time_symbol: f for f in pushed}


@dataclass(frozen=True)
class ScalarReductionReport:
    checks: tuple[tuple[str, bool], ...]
    polynomial_components: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def as_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": {name: ok for name, ok in self.checks},
                "polynomial_components": {name: ok for name, ok
                                          in self.polynomial_components}}


def scalar_reduction_identity() -> ScalarReductionReport:
    """Verify the pushforward against the printed scalar system.

    Checks, with the relation a0 + a1 = 0 imposed: the three t1-flow
    components xdot = y, zdot = w, wdot = x; the fourth-order right side
    (ydot along t1); zdot along t2; zdot along t3.  Also records which
    unprinted components came out polynomial.
    """
    table = reduced_table()
    relation = build_system("PDE_A1_1").relation
    fields = reduced_fields()

    def eq(lhs: RationalExpr, rhs_text: str) -> bool:
        rhs = exprtext.parse(rhs_text, table)
        return is_identically_equal(reduce_parameters(lhs, relation),
                                    reduce_parameters(rhs, relation))

    t1 = fields["t1"]
    checks = [
        ("xdot_t1_is_y", eq(t1.component("x"), "y")),
        ("zdot_t1_is_w", eq(t1.component("z"), "w")),
        ("wdot_t1_is_x", eq(t1.component("w"), "x")),
        ("fourth_order_t1", eq(t1.component("y"), FOURTH_ORDER_RHS_TEXT)),
        ("u_t2", eq(fields["t2"].component("z"), T2_RHS_TEXT)),
        ("u_t3", eq(fields["t3"].component("z"), T3_RHS_TEXT)),
    ]
    poly_flags = []
    for time_symbol, var in (("t2", "x"), ("t3", "x"), ("t2", "y"), ("t3", "y"),
                             ("t2", "w"), ("t3", "w")):
        expr = reduce_parameters(fields[time_symbol].component(var), relation)
        poly_flags.append((f"{var}dot_{time_symbol}", expr.is_polynomial()))
    return ScalarReductionReport(tuple(checks), tuple(poly_flags))
