"""Fraction-free integer elimination in EchelonSystem."""

import random
from fractions import Fraction as F
from math import gcd

from weylflow.linalg import EchelonSystem


def _system(n_cols, rows):
    system = EchelonSystem(n_cols)
    for row, rhs in rows:
        system.add_row(row, rhs)
    return system


def _assert_primitive(system):
    for col, row in system.pivots.items():
        assert min(row) == col
        assert row[col] > 0
        assert gcd(system.rhs[col], *row.values()) == 1


def test_dependent_rows_leave_one_pivot():
    system = _system(3, [({0: F(1), 1: F(2), 2: F(3)}, F(0)),
                         ({0: F(2), 1: F(4), 2: F(6)}, F(0)),
                         ({0: F(-1, 3), 1: F(-2, 3), 2: F(-1)}, F(0))])
    assert system.rows_seen == 3
    assert system.rank == 1 and system.nullity == 2
    assert not system.inconsistent
    assert system.nullspace() == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    _assert_primitive(system)


def test_inconsistent_rhs_is_detected():
    consistent = _system(2, [({0: F(1), 1: F(1)}, F(1)),
                             ({0: F(2), 1: F(2)}, F(2))])
    assert not consistent.inconsistent and consistent.rank == 1
    inconsistent = _system(2, [({0: F(1), 1: F(1)}, F(1)),
                               ({0: F(2), 1: F(2)}, F(3))])
    assert inconsistent.inconsistent and inconsistent.rank == 1


def test_negative_and_fractional_leading_entries():
    system = _system(3, [({0: F(-1, 2), 1: F(3, 4)}, F(5, 6)),
                         ({1: F(-7, 3), 2: F(2, 9)}, F(0))])
    assert sorted(system.pivots) == [0, 1]
    # -1/2 c0 + 3/4 c1 = 5/6 times -12 is 6 c0 - 9 c1 = -10
    assert system.pivots[0] == {0: 6, 1: -9}
    assert system.rhs[0] == -10
    assert system.pivots[1] == {1: 21, 2: -2}
    _assert_primitive(system)
    assert system.nullspace() == [[F(1, 7), F(2, 21), F(1)]]


def test_empty_rows():
    system = EchelonSystem(2)
    system.add_row({})
    system.add_row({0: F(0), 1: F(0)}, F(0))
    assert system.rows_seen == 2 and system.rank == 0
    assert not system.inconsistent
    assert system.nullspace() == [[F(1), F(0)], [F(0), F(1)]]
    system.add_row({}, F(1, 2))
    assert system.inconsistent


def test_residual_is_exact():
    system = EchelonSystem(2)
    row = {0: F(1, 3), 1: F(-2)}
    assert system.residual(row, F(1), [F(3), F(0)]) == 0
    assert system.residual(row, F(1), [F(3), F(1, 10 ** 30)]) != 0


def _reference(n_cols, rows):
    """Plain Gauss-Jordan over Fractions on the augmented matrix."""
    matrix = [[F(row.get(c, 0)) for c in range(n_cols)] + [F(rhs)]
              for row, rhs in rows]
    pivots = []
    r = 0
    for c in range(n_cols + 1):
        hit = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if hit is None:
            continue
        matrix[r], matrix[hit] = matrix[hit], matrix[r]
        lead = matrix[r][c]
        matrix[r] = [v / lead for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
    inconsistent = n_cols in pivots
    pivot_cols = [c for c in pivots if c < n_cols]
    free = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for f in free:
        vec = [F(0)] * n_cols
        vec[f] = F(1)
        for i, p in enumerate(pivot_cols):
            vec[p] = -matrix[i][f]
        basis.append(vec)
    return pivot_cols, inconsistent, basis


def _random_rows(rng, n_cols, n_rows):
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.3:
            # a combination of earlier rows, its rhs combined or perturbed
            row, rhs = {}, F(0)
            for base, base_rhs in rng.sample(rows, min(len(rows), 2)):
                k = F(rng.randint(-5, 5), rng.randint(1, 4))
                for c, v in base.items():
                    row[c] = row.get(c, 0) + k * v
                rhs += k * base_rhs
            if rng.random() < 0.3:
                rhs += 1
            rows.append(({c: v for c, v in row.items() if v}, rhs))
            continue
        cols = rng.sample(range(n_cols), rng.randint(0, n_cols))
        row = {c: F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12))
               for c in cols}
        rhs = F(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.3 \
            else F(0)
        rows.append((row, rhs))
    return rows


def test_matches_fraction_gauss_jordan():
    rng = random.Random(20080917)
    for _ in range(300):
        n_cols = rng.randint(1, 9)
        rows = _random_rows(rng, n_cols, rng.randint(0, 12))
        system = _system(n_cols, rows)
        pivot_cols, inconsistent, basis = _reference(n_cols, rows)
        assert sorted(system.pivots) == pivot_cols
        assert system.rank == len(pivot_cols)
        assert system.nullity == n_cols - len(pivot_cols)
        assert system.inconsistent == inconsistent
        assert system.rows_seen == len(rows)
        assert system.nullspace() == basis
        _assert_primitive(system)
        for vec in basis:
            for row, _ in rows:
                assert system.residual(row, F(0), vec) == 0


def _integer_rows(rng, n_cols, n_rows):
    """Integer rows, some with a common factor; about a third combine
    earlier rows, and a quarter of those have their rhs moved off."""
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.35:
            row, rhs = {}, 0
            for base, base_rhs in rng.sample(rows, min(len(rows), 2)):
                k = rng.choice([-3, -2, -1, 1, 2, 3])
                for c, v in base.items():
                    row[c] = row.get(c, 0) + k * v
                rhs += k * base_rhs
            if rng.random() < 0.25:
                rhs += rng.choice([-1, 1])
            rows.append(({c: v for c, v in row.items() if v}, rhs))
            continue
        common = rng.choice([1, 1, 2, 6])
        cols = rng.sample(range(n_cols), rng.randint(0, n_cols))
        row = {c: common * rng.choice([-1, 1]) * rng.randint(1, 20) for c in cols}
        rhs = common * rng.randint(-9, 9) if rng.random() < 0.4 else 0
        rows.append((row, rhs))
    return rows


def test_integer_rows_in_any_order_span_one_row_space():
    rng = random.Random(27)
    seen = {"inconsistent": 0, "dependent": 0}
    for _ in range(200):
        n_cols = rng.randint(1, 8)
        rows = _integer_rows(rng, n_cols, rng.randint(0, 14))
        pivot_cols, inconsistent, basis = _reference(n_cols, rows)
        seen["inconsistent"] += inconsistent
        seen["dependent"] += len(pivot_cols) + inconsistent < len(rows)
        for _ in range(4):
            order = rows[:]
            rng.shuffle(order)
            system = _system(n_cols, order)
            _assert_primitive(system)
            assert sorted(system.pivots) == pivot_cols
            assert system.inconsistent == inconsistent
            assert system.nullspace() == basis
            # the same rows over a denominator give the same stored rows
            dens = [rng.randint(1, 12) for _ in order]
            fractional = _system(n_cols, [
                ({c: F(v, d) for c, v in row.items()}, F(rhs, d))
                for (row, rhs), d in zip(order, dens)])
            assert fractional.pivots == system.pivots
            assert fractional.rhs == system.rhs
            assert fractional.inconsistent == system.inconsistent
    assert seen["inconsistent"] > 10 and seen["dependent"] > 10
