"""Holomorphy charts, polynomiality checks, and the degree-6 ansatz solver.

Each invariant divisor (f_i, a_i) fixes, with the canonical pairing, one
birational coordinate chart; expressing the Hamiltonian (plus a chart's
additive correction) in it must land back in a polynomial ring.  Imposing
that on a generic degree-6 ansatz produces a linear system on the ansatz
coefficients whose solution space characterizes the Hamiltonian.  The chart
round trip and the polynomiality check are exact: the first tests each
identity with ``symkernel.is_identically_equal``, the second divides
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Mapping, NamedTuple, Optional, Sequence

from . import exprtext
from .catalog import HamiltonianSystem, parameter_values
from .flows import VariableMap
from .linalg import EchelonSystem
from .symkernel import (DYNAMICAL, PARAMETER, TIME, CanonicalStructure,
                        Polynomial, RationalExpr, VarTable, _MAX_DEGREE,
                        _packed_mul, divide_with_remainder, is_identically_equal,
                        reduce_parameters, substitute)


class Chart(VariableMap):
    """A holomorphy coordinate change with an additive correction term.

    The polynomiality requirement applies to H + correction expressed
    through the inverse rules.
    """

    __slots__ = ("system", "name", "correction")

    def __init__(self, old_table: VarTable, new_table: VarTable,
                 forward: tuple[tuple[str, RationalExpr], ...],
                 inverse: tuple[tuple[str, RationalExpr], ...],
                 system: HamiltonianSystem, name: str, correction: Polynomial):
        super().__init__(old_table, new_table, forward, inverse)
        self.system = system
        self.name = name
        self.correction = correction


def _divisor_chart(f: Polynomial, alpha: str, pairing: CanonicalStructure
                   ) -> tuple[tuple[RationalExpr, ...], Polynomial]:
    """The forward rules, one per dynamical symbol in table order, and the
    correction of the chart of divisor (f, alpha).  Where f = q + g with g
    free of q for a pair (q, p): X = -(f p - alpha) p, Y = 1/p, each other
    pair (Z, W) goes to Z + p dg/dW and W - p dg/dZ, and the correction is
    p df/dt summed over the times.  Else, where f = p for a pair (q, p):
    Q = 1/q and P = -(f q + alpha) q.  Any other shape raises ValueError."""
    table, shown = f.table, exprtext.poly_text(f)
    one, zero = Polynomial.one(table), Polynomial.zero(table)
    a = Polynomial.variable(table, alpha)
    var = {n: Polynomial.variable(table, n) for n in table.symbols(DYNAMICAL)}
    rules = {n: RationalExpr(v) for n, v in var.items()}
    linear = [(q, p) for q, p in pairing.pairs if f.derivative(q) == one]
    if linear:
        q, p = linear[0]
        g = f - var[q]
        rules[q] = RationalExpr(-(f * var[p] - a) * var[p])
        rules[p] = RationalExpr(one, var[p])
        for z, w in (pair for pair in pairing.pairs if pair[0] != q):
            gz, gw = g.derivative(z), g.derivative(w)
            if (gz and gw) or p in gz.symbols() | gw.symbols():
                raise ValueError(f"divisor {shown}: the shift of ({z}, {w}) "
                                 f"is not first order")
            rules[z] = RationalExpr(var[z] + var[p] * gw)
            rules[w] = RationalExpr(var[w] - var[p] * gz)
        return tuple(rules.values()), sum(
            (var[p] * f.derivative(t) for t in table.symbols(TIME)), zero)
    linear = [(q, p) for q, p in pairing.pairs if f.derivative(p) == one]
    if not linear:
        raise ValueError(f"divisor {shown} has no member of a canonical pair "
                         f"with coefficient 1")
    q, p = linear[0]
    if f != var[p]:
        raise ValueError(f"divisor {shown} is linear in the momentum {p} "
                         f"but is not {p}")
    rules[q] = RationalExpr(one, var[q])
    rules[p] = RationalExpr(-(f * var[q] + a) * var[q])
    return tuple(rules.values()), zero


@lru_cache(maxsize=None)
def charts(sys: HamiltonianSystem) -> dict[str, Chart]:
    """Chart r_i (R_i with several times) of each divisor (f_i, a_i), in
    the new symbols x_i, y_i, z_i, w_i in table order."""
    old = sys.table
    prefix = "r" if len(sys.hamiltonians) == 1 else "R"
    out = {}
    for i, (f, alpha) in enumerate(sys.divisors):
        rules, correction = _divisor_chart(f, alpha, sys.pairing)
        names = tuple(f"{'xyzw'[k]}{i}" for k in range(len(rules)))
        new = VarTable.make(dynamical=names, times=old.symbols(TIME),
                            parameters=old.symbols(PARAMETER))
        out[f"{prefix}{i}"] = Chart.derive(
            old, new, tuple(zip(names, rules)), system=sys,
            name=f"{prefix}{i}", correction=correction)
    return out


def transform_hamiltonian(chart: Chart, ham: Polynomial) -> RationalExpr:
    """H + correction expressed in the chart's new coordinates."""
    return substitute(ham + chart.correction, chart.inverse_rules(),
                      chart.new_table)


class PolynomialityResult(NamedTuple):
    chart_name: str
    polynomial: Optional[Polynomial]
    witness: Optional[Polynomial]

    @property
    def passed(self) -> bool:
        return self.polynomial is not None


def check_polynomiality(chart: Chart, ham: Polynomial) -> PolynomialityResult:
    """Exact division of the transformed Hamiltonian; residuals witness failure.

    The system's parameter relation is imposed first: the holomorphy
    statements hold on the relation hyperplane (and recover the relation,
    which otherwise shows up as a constant-in-alpha witness).
    """
    image = reduce_parameters(transform_hamiltonian(chart, ham),
                              chart.system.relation)
    if image.is_polynomial():
        return PolynomialityResult(chart.name, image.as_polynomial(), None)
    _, remainder = divide_with_remainder(image.num, image.den)
    return PolynomialityResult(chart.name, None, remainder)


def verify_chart_roundtrip(m: VariableMap) -> bool:
    """forward(inverse) = id and inverse(forward) = id on all symbols, exactly."""
    for rules, back_rules, table in (
            (m.forward, m.inverse_rules(), m.new_table),
            (m.inverse, m.forward_rules(), m.old_table)):
        for name, rule in rules:
            back = substitute(rule, back_rules, table)
            if not is_identically_equal(back, RationalExpr.variable(table, name)):
                return False
    return True


# ---------------------------------------------------------------------------
# degree-6 ansatz solver


class AnsatzReport(NamedTuple):
    system_id: str
    t_degree_bound: int
    alpha: tuple[tuple[str, Fraction], ...]
    chart_names: tuple[str, ...]
    n_unknowns: int
    n_rows: int
    rank: int
    nullspace_dimension: int
    consistent: bool
    membership: tuple[tuple[str, bool], ...]
    nullspace_basis: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "system": self.system_id,
            "t_degree_bound": self.t_degree_bound,
            "alpha": {n: str(v) for n, v in self.alpha},
            "charts": list(self.chart_names),
            "matrix_shape": [self.n_rows, self.n_unknowns],
            "rank": self.rank,
            "nullspace_dimension": self.nullspace_dimension,
            "consistent": self.consistent,
            "membership": {n: ok for n, ok in self.membership},
            "nullspace_basis": list(self.nullspace_basis),
        }


def _ansatz_basis(sys: HamiltonianSystem, t_degree_bound: int
                  ) -> list[tuple[int, ...]]:
    """Exponent vectors: dynamical total degree <= 6, time degree <= bound."""
    table = sys.table
    dyn_idx = [table.index(n) for n in table.symbols(DYNAMICAL)]
    # the single time symbol of the non-autonomous systems
    t_idx = [table.index(n) for n in table.symbols(TIME)][:1]
    monos: list[tuple[int, ...]] = []
    for dyn in product(range(7), repeat=len(dyn_idx)):
        if sum(dyn) > 6:
            continue
        for k in range(t_degree_bound + 1 if t_idx else 1):
            vec = [0] * len(table)
            for i, p in zip(dyn_idx + t_idx, (*dyn, k)):
                vec[i] = p
            monos.append(tuple(vec))
    monos.sort()
    return monos


def _coefficient_vector(sys: HamiltonianSystem, ham: Polynomial,
                        basis_index: Mapping[tuple[int, ...], int],
                        alpha: Mapping[str, Fraction]) -> Optional[list[Fraction]]:
    """Write a Hamiltonian in the ansatz basis with parameters bound."""
    bound = substitute(ham, {n: Polynomial.const(sys.table, v)
                             for n, v in alpha.items()}).as_polynomial()
    vec = [Fraction(0)] * len(basis_index)
    for e, c in bound.terms.items():
        if e not in basis_index:
            return None
        vec[basis_index[e]] = c
    return vec


def _chart_constraints(chart: Chart, basis: Sequence[tuple[int, ...]],
                       alpha: Mapping[str, Fraction]
                       ) -> tuple[dict[int, dict[int, int]], dict[int, int],
                                  int, int]:
    """The linear constraints one chart puts on the ansatz coefficients.

    With the parameter sample bound, every inverse rule is a Laurent
    polynomial in the chart's coordinates (its denominator is a monomial).
    Scaled by one integer ``scale`` the rules have integer coefficients,
    so the image of an old monomial of total degree d is an integer
    Laurent polynomial over ``scale**d``.  Each image is one product, that
    of its parent monomial's image and one rule, computed walking the tree
    of parents depth first from the constant monomial.

    A Laurent monomial is a packed key with one slot per new-table symbol
    (the slots of ``VarTable``, degree slot unused).  Every rule term
    carries a bias B, the largest negative exponent of any rule, in every
    slot, so keys add without a borrow and the image of a degree-d monomial
    carries d*B in every slot.  An image is lifted to D*B, D the largest
    degree of the basis and the correction, and its entries are scaled by
    ``scale**(D - d)`` and by the lcm L of the correction's denominators,
    so every equation holds integers and is keyed alike from any degree.
    A key has a negative exponent where a slot is below D*B, which one
    guard-bit subtraction tests, as in ``symkernel._divides``.
    Returns the rows (column -> int) and the right-hand sides (the
    correction's), both keyed by the packed negative-exponent Laurent
    monomial, then the key of the Laurent monomial 1 and the factor
    ``scale**D * L`` that every equation was multiplied by.
    """
    new = chart.new_table
    bind: dict[str, RationalExpr] = {
        n: RationalExpr.const(new, v) for n, v in alpha.items()}
    for n in new.symbols(DYNAMICAL) + new.symbols(TIME):
        bind[n] = RationalExpr.variable(new, n)
    laurent: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    for old, rule in chart.inverse_rules().items():
        image = substitute(rule, bind, new)
        if len(image.den.terms) != 1:
            raise ValueError(f"chart {chart.name} denominator is not a monomial")
        (de, dc), = image.den.terms.items()
        laurent[chart.old_table.index(old)] = [
            (tuple(map(int.__sub__, e, de)), c / dc)
            for e, c in image.num.terms.items()]
    terms = [t for rule in laurent.values() for t in rule]
    scale = lcm(*(c.denominator for _, c in terms))
    bias = max([0, *(-x for e, _ in terms for x in e)])
    width = bias + max([0, *(x for e, _ in terms for x in e)])
    top = max(sum(mono) for mono in (*basis, *chart.correction.terms))
    if top * width > _MAX_DEGREE:
        raise ValueError(f"chart {chart.name}: a degree-{top} ansatz overflows "
                         f"the packed Laurent keys")
    shifts, ones, guards = new._shifts, new._ones, new._exponent_guards
    rules = {i: {sum((x + bias) << s for x, s in zip(e, shifts)):
                 (c * scale).numerator for e, c in rule}
             for i, rule in laurent.items()}

    # a monomial's parent drops one power of its variable with the shortest
    # rule, since the product costs the parent image's length times the rule's
    shortest_first = sorted(rules, key=lambda i: (len(rules[i]), i))

    def parent_step(mono: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        i = next(i for i in shortest_first if mono[i])
        return mono[:i] + (mono[i] - 1,) + mono[i + 1:], i

    steps: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for mono in (*basis, *chart.correction.terms):
        while any(mono) and mono not in steps:
            steps[mono] = parent_step(mono)
            mono = steps[mono][0]
    children: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for mono, (parent, i) in steps.items():
        children.setdefault(parent, []).append((mono, i))

    den = lcm(*(c.denominator for c in chart.correction.terms.values()))
    corrections = {mono: (c * den).numerator
                   for mono, c in chart.correction.terms.items()}
    origin = top * bias * ones
    # per degree d: the lift to D*B and the scale**(D - d) of the entries
    lifts = [((top - d) * bias * ones, scale ** (top - d))
             for d in range(top + 1)]
    columns = {mono: col for col, mono in enumerate(basis)}
    rows: dict[int, dict[int, int]] = {}
    correction: dict[int, int] = {}
    # depth first, so that only the images on the current path are alive
    pending: list[tuple[tuple[int, ...], Optional[int], dict[int, int]]] = [
        ((0,) * len(chart.old_table), None, {0: 1})]
    while pending:
        mono, i, image = pending.pop()
        if i is not None:
            image = _packed_mul(image, rules[i])
        pending.extend((child, j, image) for child, j in children.get(mono, ()))
        col = columns.get(mono)
        coeff = corrections.get(mono)
        if col is None and coeff is None:
            continue
        lift, factor = lifts[sum(mono)]
        for k, c in image.items():
            k += lift
            if c and ((k | guards) - origin) & guards != guards:
                if col is not None:
                    rows.setdefault(k, {})[col] = c * factor * den
                if coeff is not None:
                    correction[k] = correction.get(k, 0) + coeff * c * factor
    rhs: dict[int, int] = {}
    for k, c in correction.items():
        if c:
            rows.setdefault(k, {})
            rhs[k] = -c
    return rows, rhs, origin, scale ** top * den


def ansatz_solve(sys: HamiltonianSystem, t_degree_bound: Optional[int] = None,
                 alpha: Optional[Mapping[str, Fraction]] = None,
                 chart_names: Optional[Sequence[str]] = None) -> AnsatzReport:
    """Impose polynomiality under every chart on a generic degree-6 ansatz.

    The ansatz is sum c_m(t) * m over dynamical monomials of total degree
    <= 6 with coefficient polynomials in t of degree <= t_degree_bound
    (by default 0 when no Hamiltonian depends on time, else 2).
    Negative-degree parts of the transformed ansatz yield exact linear
    constraints; corrections make the system affine.  Reports rank,
    nullspace, basis, and whether the catalog Hamiltonians satisfy the
    full constraint set.

    The constraints are solved at one parameter point, ``alpha`` (by
    default the first of ``default_alpha_samples``).  Rank is lower
    semicontinuous in alpha, so the nullity at the sample bounds the
    generic nullity from above.  The known members bound it from below at
    every alpha: the functions of t in the basis, and on PDE_A1_1 also 1,
    K1, K2 and K1^2.  Where the bounds meet, as at the default samples,
    uniqueness up to those members holds on a Zariski-open set of alpha
    that contains the sample.
    """
    autonomous = all(h.degree_in_class(TIME) == 0 for _, h in sys.hamiltonians)
    if t_degree_bound is None:
        t_degree_bound = 0 if autonomous else 2
    if t_degree_bound < 0:
        raise ValueError(f"negative time-degree bound {t_degree_bound}")
    if autonomous and t_degree_bound != 0:
        raise ValueError("the autonomous system takes a time-free ansatz")
    if alpha is None:
        alpha = default_alpha_samples(sys)[0]
    alpha_values = parameter_values(sys, alpha)

    chart_map = charts(sys)
    names = tuple(chart_names) if chart_names is not None else tuple(chart_map)
    if len(set(names)) != len(names):
        raise ValueError(f"repeated chart names in {list(names)}")
    for cname in names:
        if cname not in chart_map:
            raise ValueError(f"{sys.id} has no chart {cname!r}; its charts "
                             f"are {', '.join(chart_map)}")
    basis = _ansatz_basis(sys, t_degree_bound)
    basis_index = {e: i for i, e in enumerate(basis)}

    rows: dict[tuple[str, int], dict[int, int]] = {}
    rhs: dict[tuple[str, int], int] = {}
    for cname in names:
        chart_rows, chart_rhs, _, _ = _chart_constraints(
            chart_map[cname], basis, alpha_values)
        rows.update(((cname, lau), row) for lau, row in chart_rows.items())
        rhs.update(((cname, lau), v) for lau, v in chart_rhs.items())

    # rank, consistency and the nullspace depend only on the row space;
    # short rows first keep the stored pivots sparse
    system = EchelonSystem(len(basis))
    ordered = sorted(rows, key=lambda key: (len(rows[key]), key))
    for key in ordered:
        system.add_row(rows[key], rhs.get(key, 0))

    membership = []
    for time_symbol, ham in sys.hamiltonians:
        vec = _coefficient_vector(sys, ham, basis_index, alpha_values)
        ok = vec is not None
        if ok:
            den = lcm(*(c.denominator for c in vec))
            ints = [(c * den).numerator for c in vec]
            ok = all(system.residual(rows[key], rhs.get(key, 0) * den, ints) == 0
                     for key in ordered)
        membership.append((sys.hamiltonian_name(time_symbol), ok))

    basis_texts = []
    for vec in system.nullspace():
        terms = {basis[i]: c for i, c in enumerate(vec) if c}
        basis_texts.append(exprtext.poly_text(Polynomial(sys.table, terms)))

    return AnsatzReport(
        system_id=sys.id,
        t_degree_bound=t_degree_bound,
        alpha=tuple(sorted(alpha_values.items())),
        chart_names=names,
        n_unknowns=len(basis),
        n_rows=system.rows_seen,
        rank=system.rank,
        nullspace_dimension=system.nullity,
        consistent=not system.inconsistent,
        membership=tuple(membership),
        nullspace_basis=tuple(basis_texts),
    )


def default_alpha_samples(sys: HamiltonianSystem) -> tuple[dict, ...]:
    """Two independent generic parameter samples satisfying each relation."""
    return tuple(dict(sample) for sample in sys.spec.alpha_samples)
