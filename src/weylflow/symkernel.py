"""Exact sparse multivariate polynomial and rational-function arithmetic.

Everything downstream (system catalog, birational maps, holomorphy charts,
flow algebra) runs on the two carrier types defined here:

  Polynomial    sparse map from exponent vectors to Fraction coefficients
  RationalExpr  a pair of Polynomials (numerator, denominator)

Design points:

* Coefficients are exact rationals; parameter symbols (a0, a1, ...) stay
  symbolic until explicitly bound.
* The monomial order is graded lexicographic and fixed per VarTable.
* Polynomial products and the images inside ``substitute`` run on packed
  integer exponents (one int per monomial, so a monomial product is one
  addition) and integer coefficients cleared over one common denominator;
  only the result goes back to Fraction terms.
* There is no multivariate GCD.  Fractions cancel only their common
  monomial content plus a scalar (denominator made monic), and the
  arithmetic ops opportunistically cancel via exact division, which keeps
  denominators from ballooning when they are nested powers of the same
  divisor.  Equality of fractions is decided by cross multiplication.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
# packed products
#
# Products and substitution images run on integer coefficients over one
# common denominator, with each exponent tuple packed into one int: slot i
# holds e[i] in bits [i*width, (i+1)*width).  While every exponent of the
# result stays below 2**width no slot carries into the next, so adding two
# packed keys multiplies the monomials.  The width is chosen per call from
# the largest total degree the result can reach.

Packed = dict[int, int]


def _slot_width(degree_bound: int) -> int:
    """Bits per slot so that no exponent up to ``degree_bound`` carries."""
    return max(degree_bound.bit_length(), 1)


def _pack(terms: Mapping[tuple[int, ...], Fraction], width: int) -> tuple[Packed, int]:
    """Clear ``terms`` to integers: (packed, scale) with terms = packed/scale."""
    scale = lcm(*(c.denominator for c in terms.values()))
    out: Packed = {}
    for e, c in terms.items():
        key = 0
        for p in reversed(e):
            key = (key << width) | p
        out[key] = c.numerator * (scale // c.denominator)
    return out, scale


def _unpack(packed: Packed, scale: int, slots: int, width: int
            ) -> dict[tuple[int, ...], Fraction]:
    """The Fraction terms of packed/scale (zero coefficients dropped)."""
    mask = (1 << width) - 1
    out: dict[tuple[int, ...], Fraction] = {}
    for key, c in packed.items():
        if c:
            e = []
            for _ in range(slots):
                e.append(key & mask)
                key >>= width
            out[tuple(e)] = Fraction(c, scale)
    return out


def _packed_mul(a: Packed, b: Packed) -> Packed:
    """Product of two packed polynomials of one width.

    Cancelled coefficients stay as zeros; ``_unpack`` drops them.
    """
    if len(a) > len(b):
        a, b = b, a
    out: Packed = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse polynomial over the rationals.

    ``terms`` maps exponent tuples (one slot per table symbol) to nonzero
    Fraction coefficients.  The empty map is the zero polynomial.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Scalar],
                 *, _clean: bool = False):
        self.table = table
        if _clean:
            self.terms = dict(terms)
        else:
            self.terms = {e: Fraction(c) for e, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "Polynomial":
        return Polynomial(table, {}, _clean=True)

    @staticmethod
    def const(table: VarTable, value: Scalar) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return Polynomial.zero(table)
        return Polynomial(table, {(0,) * len(table): value}, _clean=True)

    @staticmethod
    def one(table: VarTable) -> "Polynomial":
        return Polynomial.const(table, 1)

    @staticmethod
    def variable(table: VarTable, name: str) -> "Polynomial":
        e = [0] * len(table)
        e[table.index(name)] = 1
        return Polynomial(table, {tuple(e): Fraction(1)}, _clean=True)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in_class(self, cls: str) -> int:
        idx = [i for i, c in enumerate(self.table.classes) if c == cls]
        if not self.terms:
            return 0
        return max(sum(e[i] for i in idx) for e in self.terms)

    def symbols(self) -> set[str]:
        names = self.table.names
        out: set[str] = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    out.add(names[i])
        return out

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        return self.terms.get(exponents, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.table == other.table and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.const(self.table, other)
        return NotImplemented

    __hash__ = None  # mutable-dict payload; identity tests go through ==

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(self.table, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.table, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return Polynomial.zero(self.table)
            return Polynomial(self.table,
                              {e: c * other for e, c in self.terms.items()}, _clean=True)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero(self.table)
        width = _slot_width(self.total_degree() + other.total_degree())
        pa, sa = _pack(self.terms, width)
        pb, sb = _pack(other.terms, width)
        return Polynomial(self.table, _unpack(_packed_mul(pa, pb), sa * sb,
                                              len(self.table), width), _clean=True)

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
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            p = e[i]
            if p:
                ne = e[:i] + (p - 1,) + e[i + 1:]
                nc = c * p
                s = out.get(ne)
                out[ne] = nc if s is None else s + nc
        return Polynomial(self.table, out)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point binding every occurring symbol."""
        idx_val: dict[int, Fraction] = {}
        for name, v in point.items():
            idx_val[self.table.index(name)] = Fraction(v)
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for i, p in enumerate(e):
                if p:
                    if i not in idx_val:
                        raise SymbolError(
                            f"symbol {self.table.names[i]!r} unbound in evaluation point")
                    term *= idx_val[i] ** p
            total += term
        return total

    def content_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent vector (the common monomial factor)."""
        it = iter(self.terms)
        first = next(it)
        mins = list(first)
        for e in it:
            for i, p in enumerate(e):
                if p < mins[i]:
                    mins[i] = p
        return tuple(mins)


def _shift_down(terms: Mapping[tuple[int, ...], Fraction],
                vec: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    if not any(vec):
        return dict(terms)
    return {tuple(map(int.__sub__, e, vec)): c for e, c in terms.items()}


def _divide(num: Polynomial, den: Polynomial, stop_on_block: bool
            ) -> Optional[tuple[Polynomial, Polynomial]]:
    _same_table(num.table, den.table)
    if den.is_zero():
        raise ZeroDenominatorError("division by the zero polynomial")
    table = num.table
    if not num.terms:
        return Polynomial.zero(table), Polynomial.zero(table)

    if len(den.terms) == 1:
        (de, dc), = den.terms.items()
        q: dict[tuple[int, ...], Fraction] = {}
        r: dict[tuple[int, ...], Fraction] = {}
        for e, c in num.terms.items():
            ne = tuple(map(int.__sub__, e, de))
            if min(ne) < 0:
                if stop_on_block:
                    return None
                r[e] = c
            else:
                q[ne] = c / dc
        return Polynomial(table, q, _clean=True), Polynomial(table, r, _clean=True)

    de, dc = den.leading()
    work = dict(num.terms)
    q = {}
    r = {}
    while work:
        e = max(work, key=_grlex)
        c = work.pop(e)
        ne = tuple(map(int.__sub__, e, de))
        if min(ne) < 0:
            if stop_on_block:
                return None
            r[e] = c
            continue
        qc = c / dc
        q[ne] = q.get(ne, Fraction(0)) + qc
        for fe, fc in den.terms.items():
            if fe == de:
                continue
            ge = tuple(map(int.__add__, ne, fe))
            s = work.get(ge, Fraction(0)) - qc * fc
            if s:
                work[ge] = s
            elif ge in work:
                del work[ge]
    return Polynomial(table, q), Polynomial(table, r)


def divide_with_remainder(num: Polynomial, den: Polynomial
                          ) -> tuple[Polynomial, Polynomial]:
    """Multivariate division by a single divisor under graded lex.

    Returns (quotient, remainder) with num = quotient*den + remainder; the
    remainder collects every term whose leading monomial step was blocked.
    num is exactly divisible iff the remainder is zero.
    """
    return _divide(num, den, stop_on_block=False)


def exact_divide(num: Polynomial, den: Polynomial) -> Optional[Polynomial]:
    """Quotient num/den when the division is exact, else None."""
    if num.is_zero():
        if den.is_zero():
            raise ZeroDenominatorError("division by the zero polynomial")
        return Polynomial.zero(num.table)
    if not den.is_zero() and num.total_degree() < den.total_degree():
        return None
    out = _divide(num, den, stop_on_block=True)
    return out[0] if out is not None else None


# ---------------------------------------------------------------------------
# rational expressions


class RationalExpr:
    """Reduced fraction of two Polynomials.

    Canonical form: the common monomial content of numerator and denominator
    is cancelled and the denominator is monic under graded lex.  Full
    cancellation is *not* guaranteed (no GCD); use is_identically_equal for
    mathematical equality.
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
        cn = num.content_exponents()
        cd = den.content_exponents()
        common = tuple(map(min, cn, cd))
        nt = _shift_down(num.terms, common)
        dt = _shift_down(den.terms, common)
        lc = dt[max(dt, key=_grlex)]
        if lc != 1:
            nt = {e: c / lc for e, c in nt.items()}
            dt = {e: c / lc for e, c in dt.items()}
        self.num = Polynomial(num.table, nt, _clean=True)
        self.den = Polynomial(num.table, dt, _clean=True)

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
        q = _bounded_exact_divide(db, da)
        if q is not None:
            return _reduced(na * q + nb, db)
        q = _bounded_exact_divide(da, db)
        if q is not None:
            return _reduced(na + nb * q, da)
        num = na * db + nb * da
        q = _bounded_exact_divide(num, da)
        if q is not None:
            return _reduced(q, db)
        q = _bounded_exact_divide(num, db)
        if q is not None:
            return _reduced(q, da)
        return RationalExpr(num, da * db)

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
        na, da, nb, db = self.num, self.den, other.num, other.den
        if not db.is_constant():
            q = _bounded_exact_divide(na, db)
            if q is not None:
                na, db = q, Polynomial.one(na.table)
        if not da.is_constant():
            q = _bounded_exact_divide(nb, da)
            if q is not None:
                nb, da = q, Polynomial.one(na.table)
        return _reduced(na * nb, da * db)

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
        self.table.index(name)
        if self.den.is_constant():
            return RationalExpr(self.num.derivative(name), self.den, _canonical=True)
        dden = self.den.derivative(name)
        if dden.is_zero():
            return RationalExpr(self.num.derivative(name), self.den)
        raw = self.num.derivative(name) * self.den - self.num * dden
        q = _bounded_exact_divide(raw, self.den)
        if q is not None:
            return RationalExpr(q, self.den)
        return RationalExpr(raw, self.den * self.den)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDenominatorError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d


_REDUCE_WORK_LIMIT = 250_000


def _bounded_exact_divide(num: Polynomial, den: Polynomial) -> Optional[Polynomial]:
    if len(num.terms) * len(den.terms) > _REDUCE_WORK_LIMIT:
        return None
    return exact_divide(num, den)


def _reduced(num: Polynomial, den: Polynomial) -> RationalExpr:
    """Build num/den, collapsing to a polynomial when the division is exact.

    The full-division attempt is skipped for very large operands (the
    canonical-form guarantee covers only monomial content anyway).
    """
    if not den.is_constant() \
            and len(num.terms) * len(den.terms) <= _REDUCE_WORK_LIMIT:
        q = exact_divide(num, den)
        if q is not None:
            return RationalExpr.from_polynomial(q)
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

    same = target == src
    if isinstance(f, Polynomial):
        num, den = f, Polynomial.one(src)
    else:
        num, den = f.num, f.den

    def image(p: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Return (N, D) with p(rules) = N/D, D a single common denominator."""
        if p.is_zero():
            return Polynomial.zero(target), Polynomial.one(target)
        maxes: dict[int, int] = {}
        for e in p.terms:
            for i, pw in enumerate(e):
                if pw and (i not in maxes or pw > maxes[i]):
                    maxes[i] = pw
        rule_of: dict[int, RationalExpr] = {}
        for i in maxes:
            name = src.names[i]
            if name in norm:
                rule_of[i] = norm[name]
            elif same:
                rule_of[i] = RationalExpr.variable(target, name)
            else:
                raise SymbolError(f"no substitution rule for symbol {name!r}")
        # rule i is num_i/den_i; packed, the k-th powers are
        # npow[i][k] / nscale[i]**k and dpow[i][k] / dscale[i]**k
        bound = sum(m * max(rule_of[i].num.total_degree(),
                            rule_of[i].den.total_degree())
                    for i, m in maxes.items())
        width = _slot_width(bound)
        npow: dict[int, list[Packed]] = {}
        dpow: dict[int, list[Packed]] = {}
        nscale: dict[int, int] = {}
        dscale: dict[int, int] = {}
        for i, m in maxes.items():
            pn, nscale[i] = _pack(rule_of[i].num.terms, width)
            pd, dscale[i] = _pack(rule_of[i].den.terms, width)
            npow[i] = [{0: 1}, pn]
            dpow[i] = [{0: 1}, pd]
            for _ in range(m - 1):
                npow[i].append(_packed_mul(npow[i][-1], pn))
                dpow[i].append(_packed_mul(dpow[i][-1], pd))
        order = sorted(maxes)
        # term e contributes c_e * prod_i num_i^e_i * den_i^(m_i - e_i), that
        # is weight[e] times the integer product of the packed powers
        weight: dict[tuple[int, ...], Fraction] = {}
        for e, c in p.terms.items():
            s = 1
            for i in order:
                s *= nscale[i] ** e[i] * dscale[i] ** (maxes[i] - e[i])
            weight[e] = c / s
        scale = lcm(*(w.denominator for w in weight.values()))
        total: Packed = {}
        get = total.get
        for e, w in weight.items():
            term: Packed = {0: w.numerator * (scale // w.denominator)}
            for i in order:
                pw = e[i]
                if pw:
                    term = _packed_mul(term, npow[i][pw])
                if maxes[i] - pw:
                    term = _packed_mul(term, dpow[i][maxes[i] - pw])
            for k, c in term.items():
                total[k] = get(k, 0) + c
        common: Packed = {0: 1}
        common_scale = 1
        for i in order:
            common = _packed_mul(common, dpow[i][maxes[i]])
            common_scale *= dscale[i] ** maxes[i]
        slots = len(target)
        return (Polynomial(target, _unpack(total, scale, slots, width), _clean=True),
                Polynomial(target, _unpack(common, common_scale, slots, width),
                           _clean=True))

    n_img, n_den = image(num)
    d_img, d_den = image(den)
    if d_img.is_zero():
        raise ZeroDenominatorError("substitution makes the denominator identically zero")
    # f(rules) = (n_img/n_den) / (d_img/d_den)
    return _reduced(n_img * d_den, d_img * n_den)


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
        slot: dict[int, int] = {}
        out: dict[tuple[int, ...], Fraction] = {}
        width = len(table)
        for e, c in p.terms.items():
            ne = [0] * width
            for i, pw in enumerate(e):
                if not pw:
                    continue
                if i not in slot:
                    name = src.names[i]
                    slot[i] = table.index(rename.get(name, name))
                ne[slot[i]] = pw
            key = tuple(ne)
            out[key] = out.get(key, Fraction(0)) + c
        return Polynomial(table, out)

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

    symbolic: cross-multiplied difference reduces to the zero polynomial
    (authoritative).  sampled: exact agreement at ``samples`` deterministic
    pseudo-random rational points avoiding denominator zeros.
    """
    table = a.table if isinstance(a, (Polynomial, RationalExpr)) else b.table
    ra = _as_rational(table, a)
    rb = _as_rational(table, b)
    if mode == "symbolic":
        if ra.den == rb.den:
            return ra.num == rb.num
        q = exact_divide(rb.den, ra.den)
        if q is not None:
            return ra.num * q == rb.num
        q = exact_divide(ra.den, rb.den)
        if q is not None:
            return ra.num == rb.num * q
        return ra.num * rb.den == rb.num * ra.den
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
