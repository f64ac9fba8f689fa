"""Backlund transformations as birational maps with affine parameter actions.

Word convention: in a product such as ``s1 s2 s1 s0`` the leftmost generator
acts first on states (and its parameter action is applied first).  This is
the convention that reproduces the translation actions (-2, 1, 0), (0, -1, 1)
and (-2, 2) on the parameter lattice exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from . import exprtext
from .catalog import SPECS, HamiltonianSystem, build_system
from .flows import derivative_along, hamiltonian_vector_field
from .symkernel import (DYNAMICAL, PARAMETER, AffineRelation, Polynomial,
                        RationalExpr, Scalar, SymbolError, TIME, VarTable,
                        ZeroDenominatorError, is_identically_equal,
                        poisson_bracket, random_rational, reduce_parameters,
                        substitute)


class ExceedsMax:
    """Sentinel: no relation order found up to the requested bound."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ExceedsMax"


EXCEEDS_MAX = ExceedsMax()


@dataclass(frozen=True)
class ParameterAction:
    """Affine action alpha -> matrix @ alpha + offset on the parameter vector."""

    params: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[Fraction, ...]

    @staticmethod
    def identity(params: Sequence[str]) -> "ParameterAction":
        n = len(params)
        return ParameterAction(tuple(params),
                               tuple(tuple(1 if i == j else 0 for j in range(n))
                                     for i in range(n)),
                               (Fraction(0),) * n)

    def rules(self, table: VarTable) -> dict[str, Polynomial]:
        """The action as substitution rules alpha_i -> affine polynomial."""
        out: dict[str, Polynomial] = {}
        for i, p in enumerate(self.params):
            expr = Polynomial.const(table, self.offset[i])
            for j, q in enumerate(self.params):
                if self.matrix[i][j]:
                    expr = expr + self.matrix[i][j] * Polynomial.variable(table, q)
            out[p] = expr
        return out

    def apply_values(self, values: Mapping[str, Scalar]) -> dict[str, Fraction]:
        vec = [Fraction(values[p]) for p in self.params]
        out = {}
        for i, p in enumerate(self.params):
            out[p] = sum((self.matrix[i][j] * vec[j] for j in range(len(vec))),
                         self.offset[i])
        return out

    def after(self, first: "ParameterAction") -> "ParameterAction":
        """Composite action: ``first`` applied, then self."""
        if self.params != first.params:
            raise SymbolError("parameter actions over different parameter lists")
        n = len(self.params)
        matrix = tuple(tuple(sum(self.matrix[i][k] * first.matrix[k][j]
                                 for k in range(n)) for j in range(n))
                       for i in range(n))
        offset = tuple(sum((self.matrix[i][k] * first.offset[k] for k in range(n)),
                           self.offset[i]) for i in range(n))
        return ParameterAction(self.params, matrix, offset)

    def is_identity(self) -> bool:
        return self == ParameterAction.identity(self.params)


@dataclass(frozen=True)
class BirationalMap:
    """Per-variable rational substitution plus an affine parameter action.

    ``rules`` lists only the dynamical symbols the map moves; absent
    dynamical symbols and all time symbols map to themselves.  Composite
    maps keep their factor maps in ``steps`` (application order) and
    materialize variable rules lazily: the exact point action and the
    parameter action never need the expanded rules, which can be large.
    """

    system_id: str
    name: str
    table: VarTable
    rules: tuple[tuple[str, RationalExpr], ...]
    action: ParameterAction
    steps: tuple["BirationalMap", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_rule_cache", {})

    @property
    def is_composite(self) -> bool:
        return bool(self.steps)

    def rule(self, name: str) -> RationalExpr:
        self.table.index(name)
        if not self.steps:
            for n, r in self.rules:
                if n == name:
                    return r
            return RationalExpr.variable(self.table, name)
        cache = self._rule_cache  # type: ignore[attr-defined]
        if name not in cache:
            expr = RationalExpr.variable(self.table, name)
            for step in reversed(self.steps):
                expr = apply_map(step, expr)
            cache[name] = expr
        return cache[name]

    def full_rules(self) -> dict[str, RationalExpr]:
        """Substitution rules for every dynamical and parameter symbol."""
        out = {name: self.rule(name) for name in self.table.symbols(DYNAMICAL)}
        for name, poly in self.action.rules(self.table).items():
            out[name] = RationalExpr.from_polynomial(poly)
        return out

    def atomic_steps(self) -> tuple["BirationalMap", ...]:
        return self.steps if self.steps else (self,)


def apply_map(m: BirationalMap, f: RationalExpr | Polynomial) -> RationalExpr:
    """Transform an expression: variable rules plus the parameter action."""
    if m.is_composite:
        out = f if isinstance(f, RationalExpr) else RationalExpr.from_polynomial(f)
        for step in reversed(m.atomic_steps()):
            out = apply_map(step, out)
        return out
    return substitute(f, m.full_rules())


def apply_to_state(m: BirationalMap, state: Mapping[str, Scalar],
                   params: Mapping[str, Scalar]) -> tuple[dict[str, Fraction],
                                                          dict[str, Fraction]]:
    """Exact action on a rational point; raises ZeroDenominatorError on poles."""
    point = {k: Fraction(v) for k, v in state.items()}
    values = {k: Fraction(v) for k, v in params.items()}
    for step in m.atomic_steps():
        point.update(values)
        new_point = {}
        for name in step.table.symbols(DYNAMICAL):
            new_point[name] = step.rule(name).evaluate(point)
        for name in step.table.symbols(TIME):
            if name in point:
                new_point[name] = point[name]
        point = new_point
        values = step.action.apply_values(values)
    return point, values


def compose(m1: BirationalMap, m2: BirationalMap) -> BirationalMap:
    """The map acting as m2 first, then m1 (rules of m2 substituted into m1's).

    Parameter actions compose eagerly; the composite variable rules are the
    substitution of m2's rules into m1's, materialized on first access.
    """
    if m1.system_id != m2.system_id:
        raise SymbolError("cannot compose maps of different systems")
    return BirationalMap(
        system_id=m1.system_id,
        name=f"{m1.name}*{m2.name}",
        table=m1.table,
        rules=(),
        action=m1.action.after(m2.action),
        steps=m2.atomic_steps() + m1.atomic_steps(),
    )


def _word_product(maps: Mapping[str, BirationalMap],
                  word: Sequence[str]) -> BirationalMap:
    acc = maps[word[0]]
    for name in word[1:]:
        acc = compose(maps[name], acc)
    return acc


def word_map(system_id: str, word: Sequence[str]) -> BirationalMap:
    """Map for a word over registered map names; leftmost applied first."""
    maps = named_maps(system_id)
    for w in word:
        if w not in maps:
            raise SymbolError(f"unknown generator {w!r} for {system_id}")
    if not word:
        sys = build_system(system_id)
        return BirationalMap(system_id, "id", sys.table, (),
                             ParameterAction.identity(sys.table.symbols(PARAMETER)))
    return _word_product(maps, word)


@lru_cache(maxsize=None)
def generators(system_id: str) -> dict[str, BirationalMap]:
    """s_i for each divisor (f_i, a_i), from the divisor and row i of the
    Cartan matrix A: the rules are ``_exponential_series`` on the dynamical
    symbols it moves, and s_i(a_j) = a_j - A_ij a_i.  A series that has not
    terminated by order 6 raises ValueError."""
    sys = build_system(system_id)
    table = sys.table
    params = table.symbols(PARAMETER)
    n = len(params)
    out = {}
    for i, row in enumerate(SPECS[system_id].cartan):
        rules = []
        for v in table.symbols(DYNAMICAL):
            order, image = _exponential_series(sys, i, Polynomial.variable(table, v))
            if image is None:
                raise ValueError(f"{system_id}: the series of s{i}({v}) has "
                                 f"not terminated by order {order}")
            if order:
                rules.append((v, image))
        # a_p -> a_p - shift[p] * a_i, with shift[p] = A_ij where a_p = a_j
        col = params.index(sys.divisors[i][1])
        shift = {params.index(a_j): a_ij for (_, a_j), a_ij in zip(sys.divisors, row)}
        matrix = tuple(tuple(int(p == q) - shift[p] * (q == col) for q in range(n))
                       for p in range(n))
        out[f"s{i}"] = BirationalMap(
            system_id, f"s{i}", table, tuple(rules),
            ParameterAction(params, matrix, (Fraction(0),) * n))
    return out


def coxeter_order(product: int):
    """The order m_ij of s_i s_j from A_ij * A_ji by the Coxeter rule: 2, 3,
    4 or 6 for a product of 0, 1, 2 or 3, and EXCEEDS_MAX (infinite) from 4
    on."""
    return EXCEEDS_MAX if product >= 4 else {0: 2, 1: 3, 2: 4, 3: 6}[product]


@lru_cache(maxsize=None)
def named_maps(system_id: str) -> dict[str, BirationalMap]:
    """Generators plus the named translation operators."""
    maps = dict(generators(system_id))
    for name, (word, _) in SPECS[system_id].translations.items():
        acc = _word_product(maps, word.split())
        maps[name] = BirationalMap(acc.system_id, name, acc.table, (),
                                   acc.action, steps=acc.atomic_steps())
    return maps


def serialize_map(m: BirationalMap) -> dict:
    """JSON-ready map description with rules in canonical text syntax."""
    return {
        "system": m.system_id,
        "name": m.name,
        "rules": {name: exprtext.expr_text(m.rule(name))
                  for name in m.table.symbols(DYNAMICAL)},
        "parameter_action": {
            "parameters": list(m.action.params),
            "matrix": [list(row) for row in m.action.matrix],
            "offset": [str(v) for v in m.action.offset],
        },
    }


def translation_offset(m: BirationalMap,
                       sys: Optional[HamiltonianSystem] = None
                       ) -> Optional[tuple[Fraction, ...]]:
    """The constant alpha-shift of m on the relation hyperplane, if any."""
    sys = sys or build_system(m.system_id)
    return relation_offset(m.action, sys.relation)


def relation_offset(action: ParameterAction, relation: AffineRelation
                    ) -> Optional[tuple[Fraction, ...]]:
    """The constant shift of an action on the relation hyperplane, if any.

    On the hyperplane sum_k r_k alpha_k = c the eliminated parameter is
    alpha_e = (c - sum_{k != e} r_k alpha_k) / r_e, so the shift
    (matrix - 1) alpha + offset is affine in the other parameters, and
    constant exactly when each of their coefficients vanishes.
    """
    params = action.params
    e = params.index(relation.eliminated)
    r = [relation.coeff(p) for p in params]
    offsets = []
    for i, row in enumerate(action.matrix):
        shift = [v - (i == k) for k, v in enumerate(row)]
        ratio = shift[e] / r[e]
        if any(shift[k] != ratio * r[k] for k in range(len(params)) if k != e):
            return None
        offsets.append(action.offset[i] + ratio * relation.constant)
    return tuple(offsets)


def preserves_relation(m: BirationalMap,
                       sys: Optional[HamiltonianSystem] = None) -> bool:
    """Does the parameter action map the relation hyperplane to itself?

    The action sends alpha to M alpha + o, so on the hyperplane
    r . alpha = c the relation's residual becomes r^T M alpha + r . o - c.
    That vanishes on the whole hyperplane exactly when r^T M = lambda r^T
    for some lambda (read off at the eliminated parameter) and
    lambda c + r . o = c.
    """
    sys = sys or build_system(m.system_id)
    action, relation = m.action, sys.relation
    params = action.params
    r = [relation.coeff(p) for p in params]
    rm = [sum(ri * row[k] for ri, row in zip(r, action.matrix))
          for k in range(len(params))]
    e = params.index(relation.eliminated)
    ratio = rm[e] / r[e]
    shift = sum(ri * o for ri, o in zip(r, action.offset))
    return (all(v == ratio * rk for v, rk in zip(rm, r))
            and ratio * relation.constant + shift == relation.constant)


# ---------------------------------------------------------------------------
# symmetry verification


@dataclass(frozen=True)
class SymmetryCheck:
    time_symbol: str
    variable: str
    passed: bool


@dataclass(frozen=True)
class SymmetryReport:
    system_id: str
    map_name: str
    checks: tuple[SymmetryCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "system": self.system_id,
            "map": self.map_name,
            "passed": self.passed,
            "checks": [{"time": c.time_symbol, "variable": c.variable,
                        "passed": c.passed} for c in self.checks],
        }


def verify_symmetry(sys: HamiltonianSystem, m: BirationalMap) -> SymmetryReport:
    """Check that m sends solutions to solutions with shifted parameters.

    For each time symbol and each dynamical symbol v the chain-rule identity

        sum_u  d(m(v))/du * udot  +  d(m(v))/dt   =   X_v(m(state), action(alpha))

    must hold as a rational-function identity modulo the parameter relation,
    where X is the Hamiltonian vector field for that time.  The relation is
    applied to the inputs: with rho the reduction of ``reduce_parameters``
    (a ring homomorphism that fixes every dynamical and time symbol, so it
    commutes with d/du and d/dt) and m's full rules, which give every
    parameter a rule, rho(X_v o m) = X_v o (rho o m).  So the identity
    modulo the relation is derivative_along(rho X, rho m(v)) = X_v o
    (rho o m), the same exact check on smaller operands.
    """
    checks = []
    relation = sys.relation
    rules = {name: reduce_parameters(rule, relation)
             for name, rule in m.full_rules().items()}
    for time_symbol in sys.times:
        field = hamiltonian_vector_field(sys, time_symbol)
        reduced = replace(field, components=tuple(
            (v, reduce_parameters(c, relation)) for v, c in field.components))
        for v, component in field.components:
            lhs = derivative_along(reduced, rules[v])
            rhs = substitute(component, rules)
            checks.append(SymmetryCheck(time_symbol, v, is_identically_equal(lhs, rhs)))
    return SymmetryReport(sys.id, m.name, tuple(checks))


def is_involution(m: BirationalMap) -> bool:
    """m composed with itself is the identity on variables and parameters."""
    square = compose(m, m)
    if not square.action.is_identity():
        return False
    return all(is_identically_equal(square.rule(name),
                                    RationalExpr.variable(square.table, name))
               for name in square.table.symbols(DYNAMICAL))


def relation_order(system_id: str, i: int, j: int, max_n: int, *,
                   seed: int = 0, samples: int = 4):
    """Smallest n <= max_n with (s_i s_j)^n = id, else EXCEEDS_MAX.

    Parameters are checked exactly through the affine action (restricted to
    the relation hyperplane); variables are checked at ``samples``
    deterministic rational points, re-drawn when an iteration hits a pole.

    The candidates are the n <= max_n at which the parameter action is the
    identity; with none (a translation, say) the answer is EXCEEDS_MAX and
    no orbit is drawn.  An orbit stops when it first returns to its start
    at a candidate n: from there it is periodic, so it hits no pole later
    and its state at any m > n is its state at m mod n.  Each orbit drops
    the candidates at which it does not return, and drawing stops as soon
    as none is left.  The answer and the sample points are those of drawing
    every orbit to max_n and trying every n, with one exception: when
    64 * samples draws give fewer than ``samples`` pole-free orbits,
    ZeroDenominatorError is raised only if candidates remain.  An answer
    already settled (no candidate left) is returned, where the exhaustive
    loop raised.
    """
    sys = build_system(system_id)
    gens = generators(system_id)
    si = gens[f"s{i}"]
    sj = gens[f"s{j}"]
    pair_action = sj.action.after(si.action)

    candidates = []
    acc = ParameterAction.identity(pair_action.params)
    for n in range(1, max_n + 1):
        acc = pair_action.after(acc)
        off = relation_offset(acc, sys.relation)
        if off is not None and not any(off):
            candidates.append(n)

    rng = random.Random(seed)
    dyn = sys.table.symbols(DYNAMICAL)
    times = sys.table.symbols(TIME)
    params = sys.table.symbols(PARAMETER)

    def random_start():
        state = {name: random_rational(rng, 50) for name in dyn}
        for name in times:
            state[name] = random_rational(rng, 50)
        vals = {name: random_rational(rng, 50) for name in params[:-1]}
        name, expr = sys.relation.solve_for(sys.table, params[-1])
        vals[name] = expr.evaluate(vals)
        return state, vals

    def orbit(state, vals) -> list[dict[str, Fraction]]:
        """States from the start up to max_n, or up to the first return."""
        states = [state]
        for n in range(1, max_n + 1):
            state, vals = apply_to_state(si, state, vals)
            state, vals = apply_to_state(sj, state, vals)
            if n in candidates and state == states[0]:
                break
            states.append(state)
        return states

    found = 0
    attempts = 0
    while candidates and found < samples:
        attempts += 1
        if attempts > 64 * samples:
            raise ZeroDenominatorError(
                "could not find pole-free sample orbits for relation_order")
        try:
            states = orbit(*random_start())
        except ZeroDenominatorError:
            continue
        found += 1
        period = len(states)
        candidates = [n for n in candidates
                      if states[n % period] == states[0]]
    return candidates[0] if candidates else EXCEEDS_MAX


# ---------------------------------------------------------------------------
# exponential bracket formula


@dataclass(frozen=True)
class ExponentialFormulaReport:
    system_id: str
    generator: str
    terminated: bool
    order: int
    matches: Optional[bool]

    def as_dict(self) -> dict:
        return {"system": self.system_id, "generator": self.generator,
                "terminated": self.terminated, "order": self.order,
                "matches": self.matches}


def _exponential_series(sys: HamiltonianSystem, i: int, g: Polynomial,
                        max_order: int = 6
                        ) -> tuple[int, Optional[RationalExpr]]:
    """(order, sum_k (1/k!) (alpha_i/f_i)^k ad_{f_i}^k(g)) with ad_f(g) =
    {f, g} (Noumi and Yamada, Comm. Math. Phys. 199 (1998) 281).  ``order``
    is the last k summed; a bracket still alive past ``max_order`` gives
    (max_order, None)."""
    f_i, alpha = sys.divisors[i]
    ratio = RationalExpr(Polynomial.variable(sys.table, alpha), f_i)
    series = RationalExpr.from_polynomial(g)
    bracket = g
    factorial = 1
    for k in range(1, max_order + 1):
        bracket = poisson_bracket(f_i, bracket, sys.pairing).as_polynomial()
        if bracket.is_zero():
            return k - 1, series
        factorial *= k
        series = series + (ratio ** k) * bracket * Fraction(1, factorial)
    return max_order, None


def exponential_formula_check(sys: HamiltonianSystem, i: int, g: Polynomial,
                              max_order: int = 6) -> ExponentialFormulaReport:
    """Check s_i(g) = sum_k (1/k!) (alpha_i/f_i)^k ad_{f_i}^k(g); a series
    alive past ``max_order`` is reported as non-terminating, not raised.
    The generators are this series, so on a dynamical symbol the check
    holds by construction."""
    order, series = _exponential_series(sys, i, g, max_order)
    matches = None
    if series is not None:
        gen = generators(sys.id)[f"s{i}"]
        matches = is_identically_equal(series, apply_map(gen, g))
    return ExponentialFormulaReport(sys.id, f"s{i}", series is not None,
                                    order, matches)
