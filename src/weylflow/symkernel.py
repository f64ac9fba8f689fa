"""Exact sparse multivariate polynomial and rational-function arithmetic.

Everything downstream (system catalog, birational maps, holomorphy charts,
flow algebra) runs on the two carrier types defined here:

  Polynomial    sparse map from exponent vectors to rational coefficients
  RationalExpr  a pair of Polynomials (numerator, denominator)

Design points:

* Coefficients are exact rationals; parameter symbols (a0, a1, ...) stay
  symbolic until explicitly bound.
* The monomial order is graded lexicographic and fixed per VarTable.
* A Polynomial stores packed monomials (one int per monomial, with a
  total-degree slot on top, so integer order is the monomial order and a
  monomial product is one addition) mapped to integer coefficients over
  one common denominator.  Sums, products, division and ``substitute``
  work on that storage and build no Fraction per term; ``terms`` is a
  read-only Fraction view for readers outside this module.
* Cancellation follows one rule, in ``_reduced``: each denominator factor
  that an operation knows (the operands' denominators, or the two sides
  of a substitution) is tried by exact division of the numerator, and the
  factors that do not divide stay in the denominator.  There is no
  multivariate GCD and no size cutoff; beyond those factors a fraction
  cancels only its common monomial content plus a scalar (denominator
  made monic).  ``substitute`` cancels the powers of the rule
  denominators that the images of numerator and denominator share before
  it multiplies them out, and ends in the fraction ``_reduced`` gives.
  Equality of fractions is decided by subtracting them and testing the
  difference for zero.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import random
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Mapping, Optional, Sequence, Union

DYNAMICAL = "dynamical"
TIME = "time"
PARAMETER = "parameter"
_CLASSES = (DYNAMICAL, TIME, PARAMETER)

Scalar = Union[int, Fraction]


class SymbolError(ValueError):
    """Unknown, unregistered, or unpaired symbol."""


class TableMismatchError(ValueError):
    """Operands built over different VarTables."""


class ZeroDenominatorError(ZeroDivisionError):
    """Denominator is (or became) identically zero."""


class SamplingError(RuntimeError):
    """Could not find enough valid sample points within the retry budget."""


class RelationError(ValueError):
    """Parameter values or actions violate an affine relation."""


# ---------------------------------------------------------------------------
# symbol tables


@dataclass(frozen=True)
class VarTable:
    """Ordered registry of named symbols, each tagged dynamical/time/parameter."""

    names: tuple[str, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(self.classes):
            raise ValueError("names and classes must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate symbol names in {self.names}")
        for c in self.classes:
            if c not in _CLASSES:
                raise ValueError(f"unknown symbol class {c!r}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})
        for name, value in _layout(len(self.names)).items():
            object.__setattr__(self, name, value)

    @staticmethod
    def make(dynamical: Sequence[str] = (), times: Sequence[str] = (),
             parameters: Sequence[str] = ()) -> "VarTable":
        names = tuple(dynamical) + tuple(times) + tuple(parameters)
        classes = (DYNAMICAL,) * len(dynamical) + (TIME,) * len(times) \
            + (PARAMETER,) * len(parameters)
        return VarTable(names, classes)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise SymbolError(f"symbol {name!r} not registered in table {self.names}")

    def __contains__(self, name: str) -> bool:
        return name in self._index  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.names)

    def symbols(self, cls: Optional[str] = None) -> tuple[str, ...]:
        if cls is None:
            return self.names
        return tuple(n for n, c in zip(self.names, self.classes) if c == cls)

    def class_of(self, name: str) -> str:
        return self.classes[self.index(name)]

    def union(self, other: "VarTable") -> "VarTable":
        """Merge two tables; shared names must agree on class."""
        names = list(self.names)
        classes = list(self.classes)
        for n, c in zip(other.names, other.classes):
            if n in self:
                if self.class_of(n) != c:
                    raise ValueError(f"symbol {n!r} has conflicting classes")
            else:
                names.append(n)
                classes.append(c)
        return VarTable(tuple(names), tuple(classes))


def _same_table(a: VarTable, b: VarTable) -> None:
    if a is not b and a != b:
        raise TableMismatchError(f"operands use different tables: {a.names} vs {b.names}")


def _grlex(e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(e), e)


# ---------------------------------------------------------------------------
# packed monomials
#
# A Polynomial keeps its terms as packed monomial keys mapped to integer
# coefficients over one positive common denominator.  Over a table of n
# symbols a key holds exponent e[i] in slot n-1-i and the total degree in
# slot n, each slot _SLOT_BITS wide.  Comparing keys as integers is then
# graded lexicographic order (``_grlex``), so ``max`` and ``min`` of the
# keys are the leading and the lowest monomial, and adding two keys
# multiplies the monomials.  The top bit of every slot is a guard bit: it
# stays clear because every operation that can raise a degree first checks
# the result's total degree against _MAX_DEGREE (raising DegreeLimitError),
# so no slot ever carries into the next.  With the guard bits set in a key
# b, subtracting a key a borrows from no neighbouring slot and leaves each
# guard set exactly where b's exponent is at least a's: one subtraction
# tests whether monomial a divides monomial b.
#
# Products run on these dicts directly (``_packed_mul``).  A substitution
# over one table keeps a symbol fixed when its rule is the bare symbol,
# absent or explicit (``BirationalMap.full_rules`` lists every parameter):
# a term's fixed exponents stay in its key, and only the moved symbols
# take packed powers, so the terms that share their moved exponents are
# one group multiplied once by the product of those powers.

_SLOT_BITS = 16
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_GUARD = 1 << (_SLOT_BITS - 1)
_MAX_DEGREE = _GUARD - 1

Packed = dict[int, int]
_UNIT: Packed = {0: 1}


class DegreeLimitError(OverflowError):
    """A total degree past what a packed monomial key can hold."""


def _check_degree(degree: int) -> None:
    if degree > _MAX_DEGREE:
        raise DegreeLimitError(
            f"total degree {degree} exceeds the packed monomial limit {_MAX_DEGREE}")


def _layout(n: int) -> dict:
    """Shifts, unit keys and guard masks of packed keys over n symbols."""
    shifts = tuple((n - 1 - i) * _SLOT_BITS for i in range(n))
    degree_shift = n * _SLOT_BITS
    exponent_guards = sum(_GUARD << s for s in shifts)
    return {"_shifts": shifts,
            "_units": tuple((1 << s) | (1 << degree_shift) for s in shifts),
            "_degree_shift": degree_shift,
            "_ones": sum(1 << s for s in shifts),
            "_exponent_guards": exponent_guards,
            "_guards": exponent_guards | (_GUARD << degree_shift)}


def _key(table: "VarTable", e: tuple[int, ...]) -> int:
    """The packed key of exponent tuple e over table."""
    units = table._units
    if len(e) != len(units) or min(e, default=0) < 0:
        raise ValueError(f"exponents {e} do not fit table {table.names}")
    key = sum(map(mul, e, units))
    _check_degree(key >> table._degree_shift)
    return key


def _exponents(table: "VarTable", key: int) -> tuple[int, ...]:
    return tuple([(key >> s) & _SLOT_MASK for s in table._shifts])


def _divides(table: "VarTable", a: int, b: int) -> bool:
    """Does monomial key a divide monomial key b?"""
    guards = table._guards
    return ((b | guards) - a) & guards == guards


def _packed_mul(a: Packed, b: Packed) -> Packed:
    """Product of two packed coefficient dicts over one table.

    Cancelled coefficients stay as zeros; the caller drops them.
    """
    if len(a) > len(b):
        a, b = b, a
    out: Packed = {}
    get = out.get
    b_items = list(b.items())
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _packed_times(a: Packed, b: Packed) -> Packed:
    """``_packed_mul`` that returns the other operand for the unit."""
    if a == _UNIT:
        return b
    if b == _UNIT:
        return a
    return _packed_mul(a, b)


def _nonzero(coeffs: Packed) -> Packed:
    return {k: c for k, c in coeffs.items() if c}


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse polynomial over the rationals.

    Stored as packed monomial keys mapped to nonzero integer coefficients
    over one positive common denominator that shares no factor with all of
    them, so equal polynomials are stored alike.  ``terms`` is a read-only
    view of the same terms as exponent tuples (one slot per table symbol)
    mapped to Fractions.  No terms is the zero polynomial.
    """

    __slots__ = ("table", "_coeffs", "_den")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Scalar]):
        scalars = [(e, c if isinstance(c, (int, Fraction)) else Fraction(c))
                   for e, c in terms.items() if c != 0]
        den = lcm(*(c.denominator for _, c in scalars))
        self.table = table
        self._coeffs = {_key(table, e): c.numerator * (den // c.denominator)
                        for e, c in scalars}
        self._den = den

    @staticmethod
    def _raw(table: VarTable, coeffs: Packed, den: int = 1) -> "Polynomial":
        """From nonzero packed coefficients over den, already normalised."""
        p = object.__new__(Polynomial)
        p.table = table
        p._coeffs = coeffs
        p._den = den
        return p

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        return _Terms(self)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "Polynomial":
        return Polynomial._raw(table, {})

    @staticmethod
    def const(table: VarTable, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return Polynomial.zero(table)
        return Polynomial._raw(table, {0: value.numerator}, value.denominator)

    @staticmethod
    def one(table: VarTable) -> "Polynomial":
        return Polynomial._raw(table, {0: 1})

    @staticmethod
    def variable(table: VarTable, name: str) -> "Polynomial":
        return Polynomial._raw(table, {table._units[table.index(name)]: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        coeffs = self._coeffs
        return not coeffs or (len(coeffs) == 1 and 0 in coeffs)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return _fraction(self._coeffs[0], self._den)

    def total_degree(self) -> int:
        if not self._coeffs:
            return 0
        return max(self._coeffs) >> self.table._degree_shift

    def degree_in_class(self, cls: str) -> int:
        shifts = [s for s, c in zip(self.table._shifts, self.table.classes) if c == cls]
        if not self._coeffs:
            return 0
        return max(sum((k >> s) & _SLOT_MASK for s in shifts) for k in self._coeffs)

    def _occurring(self) -> list[int]:
        """Indices of the symbols with a nonzero exponent in some term."""
        seen = 0
        for k in self._coeffs:
            seen |= k
        return [i for i, s in enumerate(self.table._shifts) if (seen >> s) & _SLOT_MASK]

    def symbols(self) -> set[str]:
        names = self.table.names
        return {names[i] for i in self._occurring()}

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._coeffs)
        return _exponents(self.table, k), _fraction(self._coeffs[k], self._den)

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        return self.terms.get(exponents, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return (self._den == other._den and self._coeffs == other._coeffs
                    and self.table == other.table)
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(self.table, other)
        return NotImplemented

    __hash__ = None  # dict payload; identity tests go through ==

    def __repr__(self) -> str:
        from . import exprtext
        return f"<poly {exprtext.poly_text(self)}>"

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            _same_table(self.table, other.table)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.table, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        da, db = self._den, other._den
        if da == db:
            out = dict(self._coeffs)
            fb = 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = {k: c * fa for k, c in self._coeffs.items()}
            da *= fa
        for k, c in other._coeffs.items():
            s = out.get(k)
            if s is None:
                out[k] = c * fb
            else:
                s += c * fb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _normalised(self.table, out, da)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.table, {k: -c for k, c in self._coeffs.items()},
                               self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial.zero(self.table)
            return _scaled(self.table, self._coeffs, other.numerator,
                           self._den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial.zero(self.table)
        _check_degree((max(a) + max(b)) >> self.table._degree_shift)
        return _normalised(self.table, _nonzero(_packed_mul(a, b)),
                           self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = Polynomial.one(self.table)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and evaluation --------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        i = self.table.index(name)
        shift, unit = self.table._shifts[i], self.table._units[i]
        out: Packed = {}
        for k, c in self._coeffs.items():
            p = (k >> shift) & _SLOT_MASK
            if p:
                out[k - unit] = c * p
        return _normalised(self.table, out, self._den)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point binding every occurring symbol."""
        table = self.table
        values: dict[int, Fraction] = {}
        for name, v in point.items():
            values[table.index(name)] = Fraction(v)
        # sum of c * prod num_i^p * den_i^(m_i - p) over prod den_i^m_i
        factors = []
        scale = self._den
        for i in self._occurring():
            if i not in values:
                raise SymbolError(f"symbol {table.names[i]!r} unbound in evaluation point")
            shift = table._shifts[i]
            top = max((k >> shift) & _SLOT_MASK for k in self._coeffs)
            v = values[i]
            nums = [v.numerator ** p for p in range(top + 1)]
            dens = [v.denominator ** (top - p) for p in range(top + 1)]
            factors.append((shift, nums, dens))
            scale *= dens[0]
        total = 0
        for k, c in self._coeffs.items():
            for shift, nums, dens in factors:
                p = (k >> shift) & _SLOT_MASK
                c *= nums[p] * dens[p]
            total += c
        return Fraction(total, scale)


class _Terms(abc.Mapping):
    """Read-only view of a Polynomial's terms: exponent tuple -> Fraction."""

    __slots__ = ("_poly",)

    def __init__(self, poly: Polynomial):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._coeffs)

    def __iter__(self):
        table = self._poly.table
        return (_exponents(table, k) for k in self._poly._coeffs)

    def _coefficient(self, e: tuple[int, ...]) -> Optional[int]:
        p = self._poly
        try:
            return p._coeffs.get(_key(p.table, e))
        except (ValueError, TypeError, OverflowError):
            return None

    def __getitem__(self, e: tuple[int, ...]) -> Fraction:
        c = self._coefficient(e)
        if c is None:
            raise KeyError(e)
        return _fraction(c, self._poly._den)

    def get(self, e: tuple[int, ...], default=None):
        c = self._coefficient(e)
        return default if c is None else _fraction(c, self._poly._den)

    def __contains__(self, e) -> bool:
        return self._coefficient(e) is not None

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        p = self._poly
        table, den = p.table, p._den
        return [(_exponents(table, k), _fraction(c, den)) for k, c in p._coeffs.items()]

    def values(self) -> list[Fraction]:
        den = self._poly._den
        return [_fraction(c, den) for c in self._poly._coeffs.values()]

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _fraction(c: int, den: int) -> Fraction:
    return Fraction(c) if den == 1 else Fraction(c, den)


def _normalised(table: VarTable, coeffs: Packed, den: int) -> Polynomial:
    """The polynomial coeffs/den (nonzero coefficients, den > 0), with the
    factor shared by den and every coefficient cancelled."""
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            den //= g
            coeffs = {k: c // g for k, c in coeffs.items()}
    return Polynomial._raw(table, coeffs, den)


def _scaled(table: VarTable, coeffs: Packed, p: int, q: int) -> Polynomial:
    """The polynomial coeffs * p / q for nonzero integers p and q."""
    if q < 0:
        p, q = -p, -q
    if p != 1:
        coeffs = {k: c * p for k, c in coeffs.items()}
    return _normalised(table, coeffs, q)


def _common_key(table: VarTable, *polys: Polynomial) -> int:
    """Packed componentwise minimum exponent over the terms of nonzero polys."""
    ones, guards = table._ones, table._guards
    live = table._exponent_guards
    for p in polys:
        if 0 in p._coeffs:
            return 0
        for k in p._coeffs:
            # the guard of a slot survives while every exponent there is >= 1
            live &= (k | guards) - ones
            if not live:
                return 0
    key = 0
    for shift, unit in zip(table._shifts, table._units):
        if live & (_GUARD << shift):
            key += unit * min(min((k >> shift) & _SLOT_MASK for k in p._coeffs)
                              for p in polys)
    return key


def _divide(num: Polynomial, den: Polynomial, stop_on_block: bool
            ) -> Optional[tuple[Polynomial, Polynomial]]:
    """Division under graded lex on integer coefficients.

    den = cd * prim / b with prim primitive.  Work, quotient and remainder
    are integer dicts times ``scale``; a quotient coefficient that is not
    an integer multiplies all three by what it lacks.  With stop_on_block
    that never happens: by Gauss's lemma a quotient by a primitive divisor
    of an integer polynomial has integer coefficients when it is exact, so
    the first non-integer coefficient, like the first blocked monomial,
    proves the division inexact.
    """
    _same_table(num.table, den.table)
    if den.is_zero():
        raise ZeroDenominatorError("division by the zero polynomial")
    table = num.table
    if not num._coeffs:
        return Polynomial.zero(table), Polynomial.zero(table)

    dcoeffs = den._coeffs
    cd = gcd(*dcoeffs.values())
    if cd != 1:
        dcoeffs = {k: c // cd for k, c in dcoeffs.items()}
    lead = max(dcoeffs)
    lc = dcoeffs[lead]
    rest = [(k, c) for k, c in dcoeffs.items() if k != lead]
    work = dict(num._coeffs)
    q: Packed = {}
    r: Packed = {}
    scale = 1
    while work:
        k = max(work)
        c = work.pop(k)
        if not _divides(table, lead, k):
            if stop_on_block:
                return None
            r[k] = c
            continue
        if c % lc:
            if stop_on_block:
                return None
            m = abs(lc) // gcd(c, lc)
            scale *= m
            c *= m
            work = {kk: v * m for kk, v in work.items()}
            q = {kk: v * m for kk, v in q.items()}
            r = {kk: v * m for kk, v in r.items()}
        qc = c // lc
        qk = k - lead
        q[qk] = qc
        for fk, fc in rest:
            gk = qk + fk
            s = work.get(gk, 0) - qc * fc
            if s:
                work[gk] = s
            else:
                work.pop(gk, None)
    # num = N/a and den = cd*prim/b with scale*N = Q*prim + R
    a = num._den * scale
    quotient = _scaled(table, q, den._den, a * cd) if q else Polynomial.zero(table)
    remainder = _normalised(table, r, a) if r else Polynomial.zero(table)
    return quotient, remainder


def divide_with_remainder(num: Polynomial, den: Polynomial
                          ) -> tuple[Polynomial, Polynomial]:
    """Multivariate division by a single divisor under graded lex.

    Returns (quotient, remainder) with num = quotient*den + remainder; the
    remainder collects every term whose leading monomial step was blocked.
    num is exactly divisible iff the remainder is zero.
    """
    return _divide(num, den, stop_on_block=False)


def exact_divide(num: Polynomial, den: Polynomial) -> Optional[Polynomial]:
    """Quotient num/den when the division is exact, else None.

    Under a monomial order the lowest term of a product is the product of
    the lowest terms, so a num whose lowest term is not a multiple of
    den's is rejected before any division step.
    """
    if num.is_zero():
        if den.is_zero():
            raise ZeroDenominatorError("division by the zero polynomial")
        return Polynomial.zero(num.table)
    if not den.is_zero():
        if num.total_degree() < den.total_degree():
            return None
        if not _divides(num.table, min(den._coeffs), min(num._coeffs)):
            return None
    out = _divide(num, den, stop_on_block=True)
    return out[0] if out is not None else None


# ---------------------------------------------------------------------------
# rational expressions


class RationalExpr:
    """Reduced fraction of two Polynomials.

    Canonical form: the common monomial content of numerator and denominator
    is cancelled and the denominator is monic under graded lex.  Every
    operation ends in ``_reduced``, which cancels each denominator factor
    the operation knows by exact division; there is no GCD and no size
    cutoff, so a common factor that is none of those factors stays.  Use
    is_identically_equal for mathematical equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Optional[Polynomial] = None,
                 *, _canonical: bool = False):
        if den is None:
            den = Polynomial.one(num.table)
        _same_table(num.table, den.table)
        if den.is_zero():
            raise ZeroDenominatorError("rational expression with zero denominator")
        if _canonical:
            self.num = num
            self.den = den
            return
        if num.is_zero():
            self.num = num
            self.den = Polynomial.one(num.table)
            return
        table = num.table
        nc, dc = num._coeffs, den._coeffs
        common = _common_key(table, num, den)
        if common:
            nc = {k - common: c for k, c in nc.items()}
            dc = {k - common: c for k, c in dc.items()}
        # divide both by the leading coefficient lead/b of den = D/b
        lead = dc[max(dc)]
        if lead == den._den:
            self.num = Polynomial._raw(table, nc, num._den)
            self.den = Polynomial._raw(table, dc, den._den)
        else:
            self.num = _scaled(table, nc, den._den, num._den * lead)
            self.den = _scaled(table, dc, 1, lead)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalExpr":
        return RationalExpr(p, Polynomial.one(p.table), _canonical=True)

    @staticmethod
    def const(table: VarTable, value: Scalar) -> "RationalExpr":
        return RationalExpr.from_polynomial(Polynomial.const(table, value))

    @staticmethod
    def variable(table: VarTable, name: str) -> "RationalExpr":
        return RationalExpr.from_polynomial(Polynomial.variable(table, name))

    # -- queries --------------------------------------------------------------

    @property
    def table(self) -> VarTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_polynomial(self) -> Polynomial:
        if self.den.is_constant():
            return self.num * (1 / self.den.constant_value())
        q = exact_divide(self.num, self.den)
        if q is None:
            raise ValueError("rational expression is not a polynomial")
        return q

    def symbols(self) -> set[str]:
        return self.num.symbols() | self.den.symbols()

    def __eq__(self, other) -> bool:
        """Structural equality of the canonical forms (not mathematical)."""
        if isinstance(other, RationalExpr):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == _as_rational(self.table, other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        from . import exprtext
        return f"<ratexpr {exprtext.expr_text(self)}>"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = _as_rational(self.table, other)
        if other is NotImplemented:
            return NotImplemented
        na, da, nb, db = self.num, self.den, other.num, other.den
        if da == db:
            return _reduced(na + nb, da)
        q = exact_divide(db, da)
        if q is not None:
            return _reduced(na * q + nb, db)
        q = exact_divide(da, db)
        if q is not None:
            return _reduced(na + nb * q, da)
        return _reduced(na * db + nb * da, da, db)

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = _as_rational(self.table, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_rational(self.table, other)
        if other is NotImplemented:
            return NotImplemented
        return _reduced(self.num * other.num, self.den, other.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalExpr":
        if self.num.is_zero():
            raise ZeroDenominatorError("reciprocal of zero")
        return RationalExpr(self.den, self.num)

    def __truediv__(self, other):
        other = _as_rational(self.table, other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return _as_rational(self.table, other) * self.reciprocal()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("rational powers take integer exponents")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        return RationalExpr(self.num ** exponent, self.den ** exponent)

    # -- calculus and evaluation --------------------------------------------------

    def derivative(self, name: str) -> "RationalExpr":
        dnum = self.num.derivative(name)
        dden = self.den.derivative(name)
        if dden.is_zero():
            return _reduced(dnum, self.den)
        return _reduced(dnum * self.den - self.num * dden, self.den, self.den)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDenominatorError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d


def _reduced(num: Polynomial, *factors: Polynomial) -> RationalExpr:
    """num / prod(factors), cancelling each factor that divides exactly.

    The factors are tried in turn against what is left of the numerator;
    those that do not divide it are multiplied back into the denominator.
    """
    den: Optional[Polynomial] = None
    for f in factors:
        if not f.is_constant():
            q = exact_divide(num, f)
            if q is not None:
                num = q
                continue
        den = f if den is None else den * f
    if den is None:
        return RationalExpr.from_polynomial(num)
    return RationalExpr(num, den)


def _as_rational(table: VarTable, value) -> RationalExpr:
    if isinstance(value, RationalExpr):
        _same_table(table, value.table)
        return value
    if isinstance(value, Polynomial):
        _same_table(table, value.table)
        return RationalExpr.from_polynomial(value)
    if isinstance(value, (int, Fraction)):
        return RationalExpr.const(table, value)
    return NotImplemented


ExprLike = Union[RationalExpr, Polynomial, int, Fraction]


# ---------------------------------------------------------------------------
# substitution


def substitute(f: ExprLike, rules: Mapping[str, ExprLike],
               table: Optional[VarTable] = None) -> RationalExpr:
    """Simultaneous substitution of symbols by rational expressions.

    Rule values must all live over one target table (which may differ from
    f's own table, e.g. for chart changes).  When the target table equals
    f's table, symbols without a rule map to themselves; otherwise every
    symbol occurring in f needs a rule.

    The images of f's numerator and denominator share the rules'
    denominators, and their powers cancel before any of them is multiplied
    out: the result is num_img * d^(m_D - m_N)+ over den_img * d^(m_N - m_D)+
    (d running over the distinct rule denominators), divided exactly where
    it divides, which is the fraction ``_reduced`` gives for the images over
    their expanded common denominators.
    """
    if isinstance(f, (int, Fraction)):
        raise TypeError("substitute target must be a Polynomial or RationalExpr")
    src = f.table
    target = table
    norm: dict[str, RationalExpr] = {}
    for name, value in rules.items():
        src.index(name)
        if isinstance(value, (int, Fraction)):
            continue
        vt = value.table
        if target is None:
            target = vt
        else:
            _same_table(target, vt)
    if target is None:
        target = src
    for name, value in rules.items():
        if isinstance(value, (int, Fraction)):
            norm[name] = RationalExpr.const(target, value)
        else:
            norm[name] = _as_rational(target, value)
        if norm[name].den.is_zero():  # pragma: no cover - constructor rejects
            raise ZeroDenominatorError(f"rule for {name!r} has zero denominator")

    # a symbol is fixed when it keeps its own name on the same table: its
    # exponent stays in the packed key of the image
    fixed: set[int] = set()
    if target == src:
        for i, name in enumerate(src.names):
            if name not in norm or norm[name] == RationalExpr.variable(src, name):
                fixed.add(i)
    # rule i is num_i / dens[den_of[i]], or the polynomial num_i when
    # den_of[i] is None; equal denominators are listed once
    one = Polynomial.one(target)
    dens: list[Polynomial] = []
    den_of: dict[int, Optional[int]] = {}
    for name, rule in norm.items():
        i = src.index(name)
        if i in fixed:
            continue
        if rule.den == one:
            den_of[i] = None
            continue
        for j, d in enumerate(dens):
            if d == rule.den:
                break
        else:
            j = len(dens)
            dens.append(rule.den)
        den_of[i] = j

    def image(p: Polynomial) -> tuple[Polynomial, dict[int, int]]:
        """(N, pows) with p(rules) = N / prod_j dens[j]**pows[j]."""
        coeffs = p._coeffs
        if not coeffs:
            return Polynomial.zero(target), {}
        shifts, units = src._shifts, src._units
        maxes = {i: max((k >> shifts[i]) & _SLOT_MASK for k in coeffs)
                 for i in p._occurring()}
        moved = [i for i in maxes if i not in fixed]
        for i in moved:
            if i not in den_of:
                raise SymbolError(f"no substitution rule for symbol {src.names[i]!r}")
        rule_of = {i: norm[src.names[i]] for i in moved}
        _check_degree(sum(
            m * max(rule_of[i].num.total_degree(), rule_of[i].den.total_degree())
            if i in rule_of else m for i, m in maxes.items()))
        pows: dict[int, int] = {}
        for i in moved:
            j = den_of[i]
            if j is not None:
                pows[j] = pows.get(j, 0) + maxes[i]
        # rule i is (N_i/a_i) / (D_j/b_j) with integer N_i, D_j; term k
        # contributes c_k * x_fixed^k * prod_i num_i^e_i * prod_j den_j^t_j,
        # t_j the sum of m_i - e_i over the symbols i of denominator j, and
        # its integer weight clears a_i^m_i and b_j^M_j (M_j = pows[j])
        npow: dict[int, list[Packed]] = {}
        for i in moved:
            pn = rule_of[i].num._coeffs
            npow[i] = [_UNIT, pn]
            for _ in range(maxes[i] - 1):
                npow[i].append(_packed_times(npow[i][-1], pn))
        dpow: dict[int, list[Packed]] = {}
        for j, top in pows.items():
            pd = dens[j]._coeffs
            dpow[j] = [_UNIT, pd]
            for _ in range(top - 1):
                dpow[j].append(_packed_times(dpow[j][-1], pd))
        scale = p._den
        a_scaled = []
        for i in moved:
            a = rule_of[i].num._den
            if a != 1:
                a_scaled.append((i, a))
                scale *= a ** maxes[i]
        b_scaled = []
        for j, top in pows.items():
            b = dens[j]._den
            if b != 1:
                b_scaled.append((j, b))
                scale *= b ** top
        groups: dict[tuple[int, ...], Packed] = {}
        for k, c in coeffs.items():
            e = tuple((k >> shifts[i]) & _SLOT_MASK for i in moved)
            rest = k
            for i, pw in zip(moved, e):
                rest -= pw * units[i]
            if a_scaled or b_scaled:
                exps = dict(zip(moved, e))
                for i, a in a_scaled:
                    c *= a ** (maxes[i] - exps[i])
                for j, b in b_scaled:
                    c *= b ** sum(exps[i] for i in moved if den_of[i] == j)
            groups.setdefault(e, {})[rest] = c
        total: Packed = {}
        get = total.get
        for e, group in groups.items():
            factor = _UNIT
            t: dict[int, int] = {}
            for i, pw in zip(moved, e):
                factor = _packed_times(factor, npow[i][pw])
                j = den_of[i]
                if j is not None:
                    t[j] = t.get(j, 0) + maxes[i] - pw
            for j, tj in t.items():
                factor = _packed_times(factor, dpow[j][tj])
            for k, c in _packed_times(group, factor).items():
                total[k] = get(k, 0) + c
        return _normalised(target, _nonzero(total), scale), pows

    if isinstance(f, Polynomial):
        f = RationalExpr.from_polynomial(f)
    n_img, n_pows = image(f.num)
    if f.den.is_constant():
        # a constant denominator has no image to take
        d_img, d_pows = Polynomial.const(target, f.den.constant_value()), {}
    else:
        d_img, d_pows = image(f.den)
    if d_img.is_zero():
        raise ZeroDenominatorError("substitution makes the denominator identically zero")
    # f(rules) = (n_img / prod d^n_pows) / (d_img / prod d^d_pows)
    top, bottom, shared = n_img, d_img, []
    for j in sorted(n_pows.keys() | d_pows.keys()):
        pn, pd = n_pows.get(j, 0), d_pows.get(j, 0)
        if pd > pn:
            top = top * dens[j] ** (pd - pn)
        elif pn > pd:
            bottom = bottom * dens[j] ** (pn - pd)
        if min(pn, pd):
            shared.append((j, min(pn, pd)))
    if bottom.is_constant():
        return RationalExpr(top, bottom)
    q = exact_divide(top, bottom)
    if q is not None:
        return RationalExpr.from_polynomial(q)
    for j, power in shared:
        common = dens[j] ** power
        top, bottom = top * common, bottom * common
    return RationalExpr(top, bottom)


def cast(f: ExprLike, table: VarTable,
         rename: Optional[Mapping[str, str]] = None) -> RationalExpr:
    """Re-express f over another table, optionally renaming symbols.

    Every symbol occurring in f must exist in the target table (after
    renaming); exponents are re-laid accordingly.
    """
    f = _as_rational(f.table if isinstance(f, (Polynomial, RationalExpr)) else table, f)
    rename = dict(rename or {})
    src = f.table

    def move(p: Polynomial) -> Polynomial:
        slots = []
        for i in p._occurring():
            name = src.names[i]
            slots.append((src._shifts[i], table._units[table.index(rename.get(name, name))]))
        out: Packed = {}
        for k, c in p._coeffs.items():
            nk = 0
            for shift, unit in slots:
                nk += ((k >> shift) & _SLOT_MASK) * unit
            out[nk] = out.get(nk, 0) + c
        return _normalised(table, _nonzero(out), p._den)

    return RationalExpr(move(f.num), move(f.den))


# ---------------------------------------------------------------------------
# Poisson structure


@dataclass(frozen=True)
class CanonicalStructure:
    """Coordinate/momentum pairing fixing the Poisson bracket convention.

    With pairs ((x, y), (z, w)) the bracket satisfies {y, x} = {w, z} = 1,
    i.e. the second symbol of each pair is the momentum of the first.
    """

    pairs: tuple[tuple[str, str], ...]

    def validate(self, table: VarTable) -> None:
        seen: set[str] = set()
        for c, m in self.pairs:
            for s in (c, m):
                table.index(s)
                if s in seen:
                    raise SymbolError(f"symbol {s!r} appears in two canonical pairs")
                seen.add(s)
        for name in table.symbols(DYNAMICAL):
            if name not in seen:
                raise SymbolError(f"dynamical symbol {name!r} is unpaired")


def poisson_bracket(f: ExprLike, g: ExprLike,
                    structure: CanonicalStructure) -> RationalExpr:
    """{f, g} = sum over pairs of df/dm dg/dc - df/dc dg/dm."""
    if isinstance(f, Polynomial):
        table = f.table
    elif isinstance(g, Polynomial):
        table = g.table
    else:
        table = f.table if isinstance(f, RationalExpr) else g.table
    f = _as_rational(table, f)
    g = _as_rational(table, g)
    structure.validate(table)
    if f.is_polynomial() and g.is_polynomial():
        fp, gp = f.as_polynomial(), g.as_polynomial()
        acc = Polynomial.zero(table)
        for c, m in structure.pairs:
            acc = acc + fp.derivative(m) * gp.derivative(c) \
                - fp.derivative(c) * gp.derivative(m)
        return RationalExpr.from_polynomial(acc)
    acc = RationalExpr.const(table, 0)
    for c, m in structure.pairs:
        acc = acc + f.derivative(m) * g.derivative(c) \
            - f.derivative(c) * g.derivative(m)
    return acc


# ---------------------------------------------------------------------------
# equality testing


DEFAULT_SAMPLE_COUNT = 8
DEFAULT_COEFF_BOUND = 10 ** 4


def random_rational(rng: random.Random, bound: int = DEFAULT_COEFF_BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def sample_point(table: VarTable, rng: random.Random,
                 bound: int = DEFAULT_COEFF_BOUND) -> dict[str, Fraction]:
    return {name: random_rational(rng, bound) for name in table.names}


def is_identically_equal(a: ExprLike, b: ExprLike, mode: str = "symbolic", *,
                         seed: int = 0, samples: int = DEFAULT_SAMPLE_COUNT,
                         bound: int = DEFAULT_COEFF_BOUND) -> bool:
    """Decide a == b as rational functions.

    symbolic: a - b is the zero fraction (authoritative).  The difference
    is formed like every other operation, trying each operand denominator
    by exact division with no GCD and no size cutoff, but its numerator is
    zero exactly when a equals b, whatever cancelled.  sampled: exact
    agreement at ``samples`` deterministic pseudo-random rational points
    avoiding denominator zeros.
    """
    table = a.table if isinstance(a, (Polynomial, RationalExpr)) else b.table
    ra = _as_rational(table, a)
    rb = _as_rational(table, b)
    if mode == "symbolic":
        return (ra - rb).is_zero()
    if mode != "sampled":
        raise ValueError(f"unknown equality mode {mode!r}")
    rng = random.Random(seed)
    found = 0
    attempts = 0
    limit = 64 * samples
    while found < samples:
        attempts += 1
        if attempts > limit:
            raise SamplingError(
                f"only {found}/{samples} valid sample points after {limit} attempts")
        point = sample_point(table, rng, bound)
        da = ra.den.evaluate(point)
        db = rb.den.evaluate(point)
        if da == 0 or db == 0:
            continue
        found += 1
        if ra.num.evaluate(point) / da != rb.num.evaluate(point) / db:
            return False
    return True


# ---------------------------------------------------------------------------
# affine parameter relations


@dataclass(frozen=True)
class AffineRelation:
    """Affine constraint sum(coeff_i * symbol_i) = constant on parameters."""

    terms: tuple[tuple[str, Fraction], ...]
    constant: Fraction
    eliminated: str

    def __post_init__(self):
        names = [n for n, _ in self.terms]
        if self.eliminated not in names:
            raise RelationError(
                f"eliminated symbol {self.eliminated!r} absent from relation")
        if len(set(names)) != len(names):
            raise RelationError("repeated symbol in relation")

    @staticmethod
    def make(coeffs: Mapping[str, Scalar], constant: Scalar,
             eliminated: str) -> "AffineRelation":
        return AffineRelation(tuple((n, Fraction(c)) for n, c in coeffs.items()),
                              Fraction(constant), eliminated)

    def coeff(self, name: str) -> Fraction:
        for n, c in self.terms:
            if n == name:
                return c
        return Fraction(0)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.terms)

    def holds(self, values: Mapping[str, Scalar]) -> bool:
        total = Fraction(0)
        for n, c in self.terms:
            if n not in values:
                raise RelationError(f"relation symbol {n!r} unbound")
            total += c * Fraction(values[n])
        return total == self.constant

    def residual(self, table: VarTable) -> Polynomial:
        """sum(c_i a_i) - constant as a polynomial over ``table``."""
        p = Polynomial.const(table, -self.constant)
        for n, c in self.terms:
            p = p + c * Polynomial.variable(table, n)
        return p

    def solve_for(self, table: VarTable, name: Optional[str] = None
                  ) -> tuple[str, Polynomial]:
        """Express one relation symbol through the others."""
        name = name or self.eliminated
        c = self.coeff(name)
        if c == 0:
            raise RelationError(f"relation is not solvable for {name!r}")
        expr = Polynomial.const(table, self.constant / c)
        for n, k in self.terms:
            if n != name:
                expr = expr - (k / c) * Polynomial.variable(table, n)
        return name, expr


def reduce_parameters(f: ExprLike, relation: AffineRelation,
                      eliminate: Optional[str] = None) -> RationalExpr:
    """Substitute the relation's eliminated parameter out of f."""
    table = f.table
    name, expr = relation.solve_for(table, eliminate)
    return substitute(f, {name: expr})
