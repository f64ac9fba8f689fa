"""Hamiltonian vector fields, flow algebra, and the scalar reduction.

Covers four layers of machinery:

* symbolic Hamiltonian vector fields and derivatives along flows,
* Lie brackets of fields (commuting multi-time flows),
* invariant-divisor dynamics (df/dt lands in the ideal (f) at alpha = 0),
* the scalar reduction of a system whose spec carries one: the
  birational change of variables of ``catalog.Reduction``, the flows
  pushed through it, and the check of its printed right sides (on
  PDE_A1_1, the fourth-order equation in u = z with u_t1 = w,
  u_t1t1 = x, u_t1t1t1 = y).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from . import exprtext
from .catalog import HamiltonianSystem, params_with_divisor_zero
from .solve import triangular_inverse
from .symkernel import (DYNAMICAL, PARAMETER, TIME, ExprLike, Polynomial,
                        RationalExpr, VarTable, cast, exact_divide,
                        is_identically_equal, reduce_parameters, substitute)


class VectorField(NamedTuple):
    """First-order field: one RationalExpr component per dynamical symbol;
    ``system`` is None for a field pushed into new variables."""

    system: Optional[HamiltonianSystem]
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
def hamiltonian_vector_field(sys: HamiltonianSystem,
                             time_symbol: str) -> VectorField:
    """coord_dot = +dH/dmomentum, momentum_dot = -dH/dcoord for the pairing."""
    ham = sys.hamiltonian(time_symbol)
    comps: dict[str, RationalExpr] = {}
    for coord, mom in sys.pairing.pairs:
        comps[coord] = RationalExpr.from_polynomial(ham.derivative(mom))
        comps[mom] = RationalExpr.from_polynomial(-ham.derivative(coord))
    ordered = tuple((n, comps[n]) for n in sys.table.symbols(DYNAMICAL))
    return VectorField(sys, sys.table, time_symbol, ordered)


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
        "system": None if field.system is None else field.system.id,
        "time": field.time_symbol,
        "components": {n: exprtext.expr_text(c) for n, c in field.components},
    }


def lie_bracket(f: VectorField, g: VectorField) -> VectorField:
    """[f, g]_v = f(g_v) - g(f_v), the fields acting as derivations in the
    dynamical symbols only; zero iff the flows commute."""
    if f.table != g.table:
        raise ValueError("vector fields over different tables")
    f, g = f._replace(time_symbol=None), g._replace(time_symbol=None)
    comps = tuple((v, derivative_along(f, g.component(v))
                   - derivative_along(g, f.component(v))) for v in f.names())
    return VectorField(f.system, f.table, None, comps)


# ---------------------------------------------------------------------------
# invariant divisors


class DivisorReport(NamedTuple):
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


class VariableMap:
    """Birational change of dependent variables with a populated inverse,
    which ``derive`` solves from the forward rules."""

    __slots__ = ("old_table", "new_table", "forward", "inverse")

    def __init__(self, old_table: VarTable, new_table: VarTable,
                 forward: tuple[tuple[str, RationalExpr], ...],
                 inverse: tuple[tuple[str, RationalExpr], ...]):
        self.old_table = old_table
        self.new_table = new_table
        self.forward = forward      # new symbol in old symbols
        self.inverse = inverse      # old symbol in new symbols

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
# the birational reduction to a scalar equation


@lru_cache(maxsize=None)
def reduction_map(sys: HamiltonianSystem) -> VariableMap:
    """The variable change of the system's reduction, over the same times
    and parameters; ValueError when its spec has none.

    The inverse is derived, not transcribed: on PDE_A1_1, q2 and q1 fall
    out of triangular rules, and (p1, p2) solve the remaining linear pair.
    """
    red = sys.spec.reduction
    if red is None:
        raise ValueError(f"{sys.id} has no scalar reduction")
    old = sys.table
    new = VarTable.make(dynamical=red.dynamical, times=old.symbols(TIME),
                        parameters=old.symbols(PARAMETER))
    forward = tuple(sorted((name, exprtext.parse(text, old))
                           for name, text in red.forward))
    return VariableMap.derive(old, new, forward)


@lru_cache(maxsize=None)
def reduced_fields(sys: HamiltonianSystem) -> dict[str, VectorField]:
    """Pushforward of every flow of the system through its reduction."""
    fields = [hamiltonian_vector_field(sys, t) for t in sys.times]
    pushed = pushforward_field(reduction_map(sys), fields)
    return {f.time_symbol: f for f in pushed}


class ScalarReductionReport(NamedTuple):
    checks: tuple[tuple[str, bool], ...]
    polynomial_components: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def scalar_reduction_identity(sys: HamiltonianSystem) -> ScalarReductionReport:
    """Check each printed right side of the reduction against the pushed
    component it names, with the relation imposed (on PDE_A1_1: xdot = y,
    zdot = w, wdot = x and the fourth-order ydot along t1, and zdot along
    t2 and t3), and record which underived components are polynomial."""
    red = sys.spec.reduction
    table = reduction_map(sys).new_table
    fields = reduced_fields(sys)

    def pushed(time_symbol: str, var: str) -> RationalExpr:
        return reduce_parameters(fields[time_symbol].component(var),
                                 sys.relation)

    checks = tuple(
        (name, is_identically_equal(
            pushed(time_symbol, var),
            reduce_parameters(exprtext.parse(text, table), sys.relation)))
        for name, time_symbol, var, text in red.printed)
    poly_flags = tuple((f"{var}dot_{time_symbol}",
                        pushed(time_symbol, var).is_polynomial())
                       for time_symbol, var in red.underived)
    return ScalarReductionReport(checks, poly_flags)
