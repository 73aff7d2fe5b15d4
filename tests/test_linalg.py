"""Exact dense linear algebra: solving, nullspaces, ranks, determinants.

Oracles: permutation-expansion determinant, residual checks A*x == b and
A*v == 0, and random matrices with planted rank/kernel structure.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfansatz.linalg import (
    ExactMatrix,
    determinant,
    matrix_rank,
    nullspace,
    solve_linear,
)
from pfansatz.poly import Polynomial, RationalFunction, parse_poly


def det_permutation_sum(rows):
    """Independent oracle: sum over permutations with inversion signs."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        sign = -1 if inversions % 2 else 1
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def random_rational_rows(rng, rows, cols, denom=False):
    def draw():
        if denom and rng.random() < 0.3:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return Fraction(rng.randint(-6, 6))

    return [[draw() for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# ExactMatrix basics


def test_matrix_shape_and_access():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entry(1, 2) == 6
    assert m.transpose().entry(2, 1) == 6
    assert m.column_submatrix([2, 0]).row(0) == (3, 1)
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(AttributeError):
        m.rows = 5


def test_matmul_against_by_hand():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert a.matmul(b) == ExactMatrix([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        a.matmul(ExactMatrix([[1, 2, 3]]))


# ---------------------------------------------------------------------------
# determinant


def test_determinant_matches_permutation_sum():
    rng = random.Random(101)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = random_rational_rows(rng, n, n, denom=True)
            assert determinant(ExactMatrix(rows)) == det_permutation_sum(rows)


def test_determinant_empty_and_singular():
    assert determinant(ExactMatrix([])) == 1
    assert determinant(ExactMatrix([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        determinant(ExactMatrix([[1, 2]]))


def test_determinant_polynomial_entries():
    n = parse_poly("n", ("n",))
    one = Polynomial.constant(1, ("n",))
    m = ExactMatrix([[n, one], [one, n]])
    assert determinant(m) == parse_poly("n^2 - 1", ("n",))


def test_determinant_polynomial_matches_permutation_sum():
    rng = random.Random(103)
    x = parse_poly("x", ("x",))
    for n in (1, 2, 3, 4):
        for _ in range(5):
            rows = [
                [rng.randint(-3, 3) * x * x + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
                for _ in range(n)
            ]
            rows[0][0] = Fraction(0)  # forces a row swap whenever n > 1
            assert determinant(ExactMatrix(rows)) == det_permutation_sum(rows)


def test_determinant_rejects_rational_functions():
    r = RationalFunction(parse_poly("1", ("x",)), parse_poly("x", ("x",)))
    with pytest.raises(ValueError):
        determinant(ExactMatrix([[r]]))


def test_determinant_multiplicative():
    rng = random.Random(102)
    for _ in range(5):
        a = random_rational_rows(rng, 4, 4)
        b = random_rational_rows(rng, 4, 4)
        prod = ExactMatrix(a).matmul(ExactMatrix(b))
        assert determinant(prod) == determinant(ExactMatrix(a)) * determinant(ExactMatrix(b))


# ---------------------------------------------------------------------------
# solve_linear


def test_solve_unique_system():
    sol = solve_linear([[2, 1], [1, -1]], [Fraction(5), Fraction(1)])
    assert sol is not None and sol.unique
    assert sol.vector == (Fraction(2), Fraction(1))


def test_solve_residual_on_random_systems():
    rng = random.Random(103)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = random_rational_rows(rng, n, n, denom=True)
        x_true = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(rows[i][j] * x_true[j] for j in range(n)) for i in range(n)]
        sol = solve_linear(rows, rhs)
        assert sol is not None
        # the residual must vanish whether or not the system was unique
        for i in range(n):
            assert sum(rows[i][j] * sol.vector[j] for j in range(n)) == rhs[i]


def test_solve_inconsistent_returns_none():
    assert solve_linear([[1, 1], [1, 1]], [Fraction(0), Fraction(1)]) is None


def test_solve_underdetermined_flags_nonunique():
    sol = solve_linear([[1, 1]], [Fraction(3)])
    assert sol is not None and not sol.unique
    assert sol.vector[0] + sol.vector[1] == 3


def test_solve_polynomial_entries():
    n = parse_poly("n", ("n",))
    one = Polynomial.constant(1, ("n",))
    # [[n, 1], [0, 1]] x = [n + 1, 1]  =>  x = (1, 1)
    sol = solve_linear(
        [[n, one], [Polynomial.zero(("n",)), one]],
        [parse_poly("n + 1", ("n",)), one],
    )
    assert sol is not None and sol.unique
    assert sol.vector[0] == RationalFunction.lift(one)
    assert sol.vector[1] == RationalFunction.lift(one)


# ---------------------------------------------------------------------------
# nullspace and rank


def test_nullspace_planted_kernel():
    rng = random.Random(104)
    for _ in range(15):
        rows_n = rng.randint(2, 5)
        cols_n = rows_n + rng.randint(1, 2)
        rows = random_rational_rows(rng, rows_n, cols_n)
        basis = nullspace(rows)
        assert len(basis) == cols_n - matrix_rank(rows)
        for v in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0
            # normalization: integer entries, content 1, first nonzero positive
            nz = [a for a in v if a != 0]
            assert nz and nz[0] > 0
            assert all(a.denominator == 1 for a in v)


def test_nullspace_full_rank_is_empty():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_known_vector():
    basis = nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] + v[2] == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_nullspace_of_integer_rows_equals_fraction_rows(nrows, ncols, data):
    """Rows of plain ints skip the denominator clearing; scaling a row by a
    positive integer never changes the normalized kernel basis."""
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    ints = []
    for r in rows:
        scale = data.draw(st.integers(1, 5)) * math.lcm(*(x.denominator for x in r))
        ints.append([int(x * scale) for x in r])
    assert all(type(x) is int for r in ints for x in r)
    assert nullspace(ints) == nullspace(rows)



def test_rank_examples():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0


def test_rank_polynomial_entries():
    n = parse_poly("n", ("n",))
    zero = Polynomial.zero(("n",))
    assert matrix_rank([[n, n], [n, n]]) == 1
    assert matrix_rank([[n, zero], [zero, n]]) == 2
