"""Holomorphy charts, polynomiality checks, and the degree-6 ansatz solver.

Each invariant divisor (f_i, a_i) fixes, with the canonical pairing, one
birational coordinate chart; expressing the Hamiltonian (plus a chart's
additive correction) in it must land back in a polynomial ring.  Imposing
that on a generic degree-6 ansatz produces a linear system on the ansatz
coefficients whose solution space characterizes the Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Mapping, Optional, Sequence

from . import exprtext
from .catalog import SPECS, HamiltonianSystem, ParameterValues, build_system
from .flows import VariableMap
from .linalg import EchelonSystem
from .symkernel import (DYNAMICAL, PARAMETER, TIME, CanonicalStructure,
                        Polynomial, RationalExpr, VarTable,
                        divide_with_remainder, is_identically_equal,
                        reduce_parameters, substitute)


@dataclass(frozen=True)
class Chart(VariableMap):
    """A holomorphy coordinate change with an additive correction term.

    The polynomiality requirement applies to H + correction expressed
    through the inverse rules.
    """

    system_id: str
    name: str
    correction: Polynomial


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
def charts(system_id: str) -> dict[str, Chart]:
    """Chart r_i (R_i with several times) of each divisor (f_i, a_i), in
    the new symbols x_i, y_i, z_i, w_i in table order."""
    sys = build_system(system_id)
    old = sys.table
    prefix = "r" if len(sys.hamiltonians) == 1 else "R"
    out = {}
    for i, (f, alpha) in enumerate(sys.divisors):
        rules, correction = _divisor_chart(f, alpha, sys.pairing)
        names = tuple(f"{'xyzw'[k]}{i}" for k in range(len(rules)))
        new = VarTable.make(dynamical=names, times=old.symbols(TIME),
                            parameters=old.symbols(PARAMETER))
        out[f"{prefix}{i}"] = Chart.derive(
            old, new, tuple(zip(names, rules)), system_id=system_id,
            name=f"{prefix}{i}", correction=correction)
    return out


def transform_hamiltonian(chart: Chart, ham: Polynomial) -> RationalExpr:
    """H + correction expressed in the chart's new coordinates."""
    return substitute(ham + chart.correction, chart.inverse_rules(),
                      chart.new_table)


@dataclass(frozen=True)
class PolynomialityResult:
    chart_name: str
    polynomial: Optional[Polynomial]
    witness: Optional[Polynomial]

    @property
    def passed(self) -> bool:
        return self.polynomial is not None

    def as_dict(self) -> dict:
        return {
            "chart": self.chart_name,
            "polynomial": self.passed,
            "witness": exprtext.poly_text(self.witness)
            if self.witness is not None else None,
        }


def check_polynomiality(chart: Chart, ham: Polynomial) -> PolynomialityResult:
    """Exact division of the transformed Hamiltonian; residuals witness failure.

    The system's parameter relation is imposed first: the holomorphy
    statements hold on the relation hyperplane (and recover the relation,
    which otherwise shows up as a constant-in-alpha witness).
    """
    relation = build_system(chart.system_id).relation
    image = reduce_parameters(transform_hamiltonian(chart, ham), relation)
    if image.is_polynomial():
        return PolynomialityResult(chart.name, image.as_polynomial(), None)
    _, remainder = divide_with_remainder(image.num, image.den)
    return PolynomialityResult(chart.name, None, remainder)


def verify_chart_roundtrip(m: VariableMap, mode: str = "symbolic", *,
                           seed: int = 0) -> bool:
    """forward(inverse) = id and inverse(forward) = id on all symbols."""
    for rules, back_rules, table in (
            (m.forward, m.inverse_rules(), m.new_table),
            (m.inverse, m.forward_rules(), m.old_table)):
        for name, rule in rules:
            back = substitute(rule, back_rules, table)
            if not is_identically_equal(back, RationalExpr.variable(table, name),
                                        mode, seed=seed):
                return False
    return True


# ---------------------------------------------------------------------------
# degree-6 ansatz solver


@dataclass(frozen=True)
class AnsatzReport:
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


Laurent = dict[tuple[int, ...], int]


def _laurent_mul(a: Laurent, b: Laurent) -> Laurent:
    """Product of two Laurent polynomials with integer coefficients."""
    out: Laurent = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = tuple(map(int.__add__, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _chart_constraints(chart: Chart, basis: Sequence[tuple[int, ...]],
                       alpha: Mapping[str, Fraction]
                       ) -> tuple[dict[tuple[int, ...], dict[int, Fraction]],
                                  dict[tuple[int, ...], Fraction]]:
    """The linear constraints one chart puts on the ansatz coefficients.

    With the parameter sample bound, every inverse rule is a Laurent
    polynomial in the chart's coordinates (its denominator is a monomial).
    Scaled by one integer ``scale`` the rules have integer coefficients,
    so the image of an old monomial of total degree d is an integer
    Laurent polynomial over ``scale**d``.  Each image is one product, that
    of its parent monomial's image and one rule, computed walking the tree
    of parents depth first from the constant monomial.
    Returns the rows (column -> coefficient) and the right-hand sides (the
    correction's), both keyed by the negative-exponent Laurent monomial.
    """
    new = chart.new_table
    bind: dict[str, RationalExpr] = {
        n: RationalExpr.const(new, v) for n, v in alpha.items()}
    for n in new.symbols(DYNAMICAL) + new.symbols(TIME):
        bind[n] = RationalExpr.variable(new, n)
    laurent: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for old, rule in chart.inverse_rules().items():
        image = substitute(rule, bind, new)
        if len(image.den.terms) != 1:
            raise ValueError(f"chart {chart.name} denominator is not a monomial")
        (de, dc), = image.den.terms.items()
        laurent[chart.old_table.index(old)] = {
            tuple(map(int.__sub__, e, de)): c / dc
            for e, c in image.num.terms.items()}
    scale = lcm(*(c.denominator for rule in laurent.values()
                  for c in rule.values()))
    rules = {i: {e: int(c * scale) for e, c in rule.items()}
             for i, rule in laurent.items()}

    def parent_step(mono: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        # drop one power of the variable with the shortest rule, since the
        # product costs the parent image's length times the rule's
        i = min((i for i, p in enumerate(mono) if p),
                key=lambda i: (len(rules[i]), i))
        return mono[:i] + (mono[i] - 1,) + mono[i + 1:], i

    steps: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for mono in (*basis, *chart.correction.terms):
        while any(mono) and mono not in steps:
            steps[mono] = parent_step(mono)
            mono = steps[mono][0]
    children: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for mono, (parent, i) in steps.items():
        children.setdefault(parent, []).append((mono, i))

    columns = {mono: col for col, mono in enumerate(basis)}
    rows: dict[tuple[int, ...], dict[int, Fraction]] = {}
    correction: dict[tuple[int, ...], Fraction] = {}
    # depth first, so that only the images on the current path are alive
    pending: list[tuple[tuple[int, ...], Optional[int], Laurent]] = [
        ((0,) * len(chart.old_table), None, {(0,) * len(new): 1})]
    while pending:
        mono, i, image = pending.pop()
        if i is not None:
            image = _laurent_mul(image, rules[i])
        pending.extend((child, j, image) for child, j in children.get(mono, ()))
        den = scale ** sum(mono)
        col = columns.get(mono)
        if col is not None:
            for lau, c in image.items():
                if min(lau) < 0:
                    rows.setdefault(lau, {})[col] = Fraction(c, den)
        coeff = chart.correction.terms.get(mono)
        if coeff is not None:
            for lau, c in image.items():
                correction[lau] = correction.get(lau, 0) + coeff * Fraction(c, den)
    rhs: dict[tuple[int, ...], Fraction] = {}
    for lau, c in correction.items():
        if c and min(lau) < 0:
            rows.setdefault(lau, {})
            rhs[lau] = -c
    return rows, rhs


def ansatz_solve(system_id: str, t_degree_bound: Optional[int] = None,
                 alpha: Optional[Mapping[str, Fraction] | ParameterValues] = None,
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
    sys = build_system(system_id)
    autonomous = all(h.degree_in_class(TIME) == 0 for _, h in sys.hamiltonians)
    if t_degree_bound is None:
        t_degree_bound = 0 if autonomous else 2
    if t_degree_bound < 0:
        raise ValueError(f"negative time-degree bound {t_degree_bound}")
    if autonomous and t_degree_bound != 0:
        raise ValueError("the autonomous system takes a time-free ansatz")
    if alpha is None:
        alpha = default_alpha_samples(system_id)[0]
    if isinstance(alpha, ParameterValues):
        alpha_values = alpha.as_dict()
    else:
        alpha_values = ParameterValues.make(system_id, alpha).as_dict()

    chart_map = charts(system_id)
    names = tuple(chart_names) if chart_names is not None else tuple(chart_map)
    if len(set(names)) != len(names):
        raise ValueError(f"repeated chart names in {list(names)}")
    basis = _ansatz_basis(sys, t_degree_bound)
    basis_index = {e: i for i, e in enumerate(basis)}

    rows: dict[tuple, dict[int, Fraction]] = {}
    rhs: dict[tuple, Fraction] = {}
    for cname in names:
        chart_rows, chart_rhs = _chart_constraints(chart_map[cname], basis,
                                                   alpha_values)
        rows.update(((cname, lau), row) for lau, row in chart_rows.items())
        rhs.update(((cname, lau), v) for lau, v in chart_rhs.items())

    system = EchelonSystem(len(basis))
    ordered = sorted(rows)
    for key in ordered:
        system.add_row(rows[key], rhs.get(key, Fraction(0)))

    membership = []
    for time_symbol, ham in sys.hamiltonians:
        vec = _coefficient_vector(sys, ham, basis_index, alpha_values)
        ok = vec is not None
        if ok:
            for key in ordered:
                if system.residual(rows[key], rhs.get(key, Fraction(0)), vec) != 0:
                    ok = False
                    break
        membership.append((sys.hamiltonian_name(time_symbol), ok))

    basis_texts = []
    for vec in system.nullspace():
        terms = {basis[i]: c for i, c in enumerate(vec) if c}
        basis_texts.append(exprtext.poly_text(Polynomial(sys.table, terms)))

    return AnsatzReport(
        system_id=system_id,
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


def default_alpha_samples(system_id: str) -> tuple[dict[str, Fraction], ...]:
    """Two independent generic parameter samples satisfying each relation."""
    return tuple(dict(sample) for sample in SPECS[system_id].alpha_samples)
