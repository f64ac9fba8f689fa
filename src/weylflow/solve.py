"""Closed-form solving of triangular rational-rule systems.

Every coordinate change in this package (holomorphy charts, the birational
reduction) is inverted here.  Most rules assign a new symbol an expression
of the form

    n = (a*v + b) / (c*v + d)

in one unknown old symbol v, with a, b, c, d free of v, which gives
v = (b - n*d) / (n*c - a).  Two unknowns left over are solved as a linear
pair, like the reduction's (p1, p2).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .symkernel import (Polynomial, RationalExpr, VarTable, cast,
                        substitute)


class NotInvertibleError(ValueError):
    """The rule system cannot be solved in closed form by this solver."""


def linear_parts(p: Polynomial, name: str) -> Optional[tuple[Polynomial, Polynomial]]:
    """Split p = a*v + b with a, b free of v; None when deg_v(p) > 1."""
    i = p.table.index(name)
    a: dict[tuple[int, ...], object] = {}
    b: dict[tuple[int, ...], object] = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            b[e] = c
        elif e[i] == 1:
            a[e[:i] + (0,) + e[i + 1:]] = c
        else:
            return None
    return Polynomial(p.table, a), Polynomial(p.table, b)


def solve_univariate(lhs: RationalExpr, expr: RationalExpr, name: str) -> RationalExpr:
    """Solve lhs = expr for the symbol ``name`` (expr of degree <= 1 in it)."""
    num_parts = linear_parts(expr.num, name)
    den_parts = linear_parts(expr.den, name)
    if num_parts is None or den_parts is None:
        raise NotInvertibleError(f"rule is not linear in {name!r}")
    a, b = num_parts
    c, d = den_parts
    denominator = lhs * c - a
    if denominator.is_zero():
        raise NotInvertibleError(f"rule does not determine {name!r}")
    return (b - lhs * d) / denominator


def triangular_inverse(forward: Mapping[str, RationalExpr],
                       unknowns: Sequence[str],
                       union: VarTable) -> dict[str, RationalExpr]:
    """Invert new = forward(old) one unknown at a time over a union table.

    ``forward`` maps new symbol names to expressions; both the new symbols
    and the unknown old symbols must be registered in ``union``.  When no
    univariate step is left and two unknowns remain, the first two forward
    equations holding them are solved as a linear pair.  Returns expressions
    for the unknowns containing no unknown symbols.
    """
    equations = [(n, cast(e, union)) for n, e in forward.items()]
    solved: dict[str, RationalExpr] = {}
    remaining = set(unknowns)
    while remaining:
        progress = False
        pending = []
        for new_name, expr in equations:
            cur = substitute(expr, solved) if solved else expr
            present = [v for v in remaining if v in cur.symbols()]
            if not present:
                continue
            lhs = RationalExpr.variable(union, new_name)
            pending.append((lhs, cur))
            if len(present) != 1:
                continue
            try:
                solved[present[0]] = solve_univariate(lhs, cur, present[0])
            except NotInvertibleError:
                continue
            remaining.discard(present[0])
            progress = True
        if not progress and len(remaining) == 2 and len(pending) >= 2:
            pair = tuple(v for v in unknowns if v in remaining)
            solved.update(zip(pair, solve_linear_pair(pending[:2], pair)))
            remaining.clear()
        elif not progress:
            raise NotInvertibleError(
                f"could not solve for {sorted(remaining)} by univariate steps")
    return solved


def solve_linear_pair(equations: Sequence[tuple[RationalExpr, RationalExpr]],
                      names: tuple[str, str]) -> tuple[RationalExpr, RationalExpr]:
    """Solve two equations lhs_k = expr_k jointly linear in two symbols.

    Each expr must be A*v1 + B*v2 + C with A, B, C free of both symbols
    (no v1*v2 cross terms); Cramer's rule does the rest.
    """
    v1, v2 = names
    rows = []
    for lhs, expr in equations:
        if not expr.den.is_constant() and (
                v1 in expr.den.symbols() or v2 in expr.den.symbols()):
            raise NotInvertibleError("denominator depends on the unknowns")
        split1 = linear_parts(expr.num, v1)
        if split1 is None:
            raise NotInvertibleError(f"equation not linear in {v1!r}")
        a_num, rest = split1
        if v2 in a_num.symbols():
            raise NotInvertibleError("cross term between unknowns")
        split2 = linear_parts(rest, v2)
        if split2 is None:
            raise NotInvertibleError(f"equation not linear in {v2!r}")
        b_num, c_num = split2
        den = RationalExpr.from_polynomial(expr.den)
        rows.append((RationalExpr.from_polynomial(a_num) / den,
                     RationalExpr.from_polynomial(b_num) / den,
                     lhs - RationalExpr.from_polynomial(c_num) / den))
    (a1, b1, r1), (a2, b2, r2) = rows
    det = a1 * b2 - a2 * b1
    if det.is_zero():
        raise NotInvertibleError("linear pair is singular")
    sol1 = (r1 * b2 - r2 * b1) / det
    sol2 = (a1 * r2 - a2 * r1) / det
    return sol1, sol2
