"""Pfaffian algorithms, sub-Pfaffian cofactors, and skew-matrix plumbing.

Independent oracles: the definition as a signed sum over pair-partitions is
re-derived here from scratch (explicit recursion, no shared code with
pf_naive's own recursion), determinants come from linalg, and a hand
worked 4x4 pins the sign conventions.  The perfect matchings, minors and
sub-Pfaffian cofactors (`pf_minor`, `gamma`, the cofactor row by minors)
are oracles defined here; the package no longer exports them.
"""

import builtins
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfansatz import pfaffian
from pfansatz.linalg import determinant
from pfansatz.pfaffian import (
    LAPLACE_DIMENSION_LIMIT,
    NAIVE_DIMENSION_LIMIT,
    SingularCofactorSystem,
    SkewMatrix,
    cofactor_vector,
    permutation_sign,
    pf_eliminate,
    pf_laplace,
    pf_naive,
)
from pfansatz.pipeline import conjecture_class, ratio_sequence
from pfansatz.poly import (
    Polynomial,
    common_variables,
    entry_text,
    parse_poly,
    polynomial_over,
)
from pfansatz.sequences import MatrixFamily, family_from_descriptor


def pf_reference(entries, indices=None):
    """Oracle: pair index 1 with each partner and recurse with the
    alternating sign; entries is a dict (i, j) -> value for i < j."""
    if indices is None:
        size = max((j for _, j in entries), default=0)
        indices = tuple(range(1, size + 1))
    if not indices:
        return Fraction(1)
    first, rest = indices[0], indices[1:]
    total = Fraction(0)
    for pos, partner in enumerate(rest):
        a = entries.get((first, partner), Fraction(0))
        if a:
            remaining = rest[:pos] + rest[pos + 1:]
            term = a * pf_reference(entries, remaining)
            total += term if pos % 2 == 0 else -term
    return total


def perfect_matchings(dim):
    """Oracle: every perfect matching of {1..dim}, as a tuple of pairs (i, j),
    i < j, with increasing first elements."""

    def rec(items):
        if not items:
            yield ()
            return
        for t in range(1, len(items)):
            for sub in rec(items[1:t] + items[t + 1:]):
                yield ((items[0], items[t]),) + sub

    if dim % 2 == 0:
        yield from rec(tuple(range(1, dim + 1)))


def submatrix_removing(A, removed):
    """Oracle: A without the listed rows and the same-numbered columns."""
    keep = [k for k in range(1, A.dim + 1) if k not in set(removed)]
    return SkewMatrix.from_function(len(keep), lambda a, b: A.entry(keep[a - 1], keep[b - 1]),
                                    A.zero())


def pf_minor(A, removed):
    """Oracle: the Pfaffian of A with the listed rows and columns removed."""
    return pf_eliminate(submatrix_removing(A, removed))


def gamma(A, i, j):
    """Oracle: the signed sub-Pfaffian cofactor, zero on the diagonal, and
    for i < j the Pfaffian of A without rows/columns {i, j}, weighted by
    (-1)^(j-i-1); antisymmetric in (i, j)."""
    if i == j:
        return A.zero()
    if i > j:
        return -gamma(A, j, i)
    v = pf_minor(A, (i, j))
    return v if (j - i - 1) % 2 == 0 else -v


def cofactor_vector_via_minors(A):
    """Oracle: the cofactor row by sub-Pfaffians, c_i = gamma(i, dim) /
    gamma(dim-1, dim), as ([gamma(i, dim)], gamma(dim-1, dim))."""
    m = A.dim
    denom = gamma(A, m - 1, m)
    if not denom:
        raise SingularCofactorSystem(m, "normalizing sub-Pfaffian is zero")
    return [gamma(A, i, m) for i in range(1, m)], denom


def random_skew(rng, dim, lo=-9, hi=9):
    return SkewMatrix(
        dim,
        {
            (i, j): Fraction(rng.randint(lo, hi))
            for i in range(1, dim + 1)
            for j in range(i + 1, dim + 1)
        },
    )


def dense_rows(A):
    return [[A.entry(i, j) for j in range(1, A.dim + 1)] for i in range(1, A.dim + 1)]


# ---------------------------------------------------------------------------
# SkewMatrix plumbing


def test_skew_matrix_rejects_odd_dimension():
    with pytest.raises(ValueError):
        SkewMatrix(3, {})
    with pytest.raises(ValueError):
        SkewMatrix(-2, {})


def test_skew_matrix_entry_signs():
    A = SkewMatrix(4, {(1, 2): Fraction(5), (3, 4): Fraction(-2)})
    assert A.entry(1, 2) == 5
    assert A.entry(2, 1) == -5
    assert A.entry(1, 1) == 0
    assert A.entry(1, 3) == 0
    with pytest.raises(ValueError):
        SkewMatrix(4, {(2, 1): Fraction(1)})


def test_from_dense_validates_skewness():
    A = SkewMatrix.from_dense([[0, 1], [-1, 0]])
    assert type(A.zero()) is Fraction and type(A.entry(1, 1)) is Fraction
    Z = SkewMatrix.from_dense([[0, 0], [0, 0]])
    assert type(pf_eliminate(Z)) is Fraction and type(pf_naive(Z)) is Fraction
    zero, x = Polynomial.zero(("x", "y")), parse_poly("x", ("x", "y"))
    assert SkewMatrix.from_dense([[zero, x], [-x, zero]]).zero().variables == ("x", "y")
    with pytest.raises(ValueError):
        SkewMatrix.from_dense([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SkewMatrix.from_dense([[1, 2], [-2, 0]])


@pytest.mark.parametrize("rows", [[[]], [[0, 1], []], [[0, 1, 2], [-1, 0], [-2, 0, 0]]])
def test_from_dense_refuses_ragged_rows_before_reading_them(rows):
    with pytest.raises(ValueError, match="ragged matrix"):
        SkewMatrix.from_dense(rows)


def test_json_round_trip():
    rng = random.Random(11)
    A = random_skew(rng, 6)
    data = json.loads(json.dumps(A.to_json_dict()))
    B = SkewMatrix.from_json_dict(data)
    assert B.dim == A.dim and B.upper == A.upper
    assert set(data) == {"dim", "upper"}
    assert all(len(t) == 3 and isinstance(t[2], str) for t in data["upper"])


def test_json_round_trip_symbolic():
    x = parse_poly("x", ("x",))
    A = SkewMatrix(2, {(1, 2): x * x - 1})
    B = SkewMatrix.from_json_dict(json.loads(json.dumps(A.to_json_dict())))
    assert B.entry(1, 2) == parse_poly("x^2 - 1", ("x",))


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        SkewMatrix.from_json_dict({"dim": 2})
    with pytest.raises(ValueError):
        SkewMatrix.from_json_dict({"dim": 2, "upper": [[1, 2, "1"], [1, 2, "3"]]})


@pytest.mark.parametrize("i, j", [(2, 1), (1, 1), (0, 2), (1, 5), (3, 5)])
def test_json_refuses_an_index_outside_the_strict_upper_triangle(i, j):
    with pytest.raises(ValueError, match=rf"bad upper index \({i}, {j}\) for dim 4"):
        SkewMatrix.from_json_dict({"dim": 4, "upper": [[1, 2, "1"], [i, j, "3"]]})
    with pytest.raises(ValueError, match="dimension must be even and non-negative, got 3"):
        SkewMatrix.from_json_dict({"dim": 3, "upper": []})


@pytest.mark.parametrize("descriptor", [
    "motzkin", "delannoy", "schroeder", "narayana:x=3/7", "narayana:x=0", "narayana:x=sym",
    "genmotzkin:k=2", "genmotzkin-sum:k=3",
])
def test_family_matrices_equal_the_checked_construction(descriptor):
    # from_family builds its upper triangle without __init__'s checks
    family = family_from_descriptor(descriptor)
    for dim in (0, 2, 8, 14):
        A = SkewMatrix.from_family(family, dim)
        m = [family.moment(s) for s in range(2 * dim)]
        checked = SkewMatrix(dim, {(i, j): (j - i) * m[i + j] for i in range(1, dim + 1)
                                   for j in range(i + 1, dim + 1)}, Fraction(0) * family.moment(0))
        assert A.dim == checked.dim
        assert list(A.upper) == list(checked.upper)
        assert [(type(v), v) for v in A.upper.values()] == \
            [(type(v), v) for v in checked.upper.values()]
        assert type(A.zero()) is type(checked.zero()) and A.zero() == checked.zero()
        assert all(A.upper.values())


def test_from_function_refuses_an_odd_dimension():
    with pytest.raises(ValueError, match="dimension must be even and non-negative, got 5"):
        SkewMatrix.from_function(5, lambda i, j: Fraction(1))
    A = SkewMatrix.from_function(4, lambda i, j: Fraction((i + j) % 2))
    assert A.upper == {(1, 2): 1, (1, 4): 1, (2, 3): 1, (3, 4): 1}


# ---------------------------------------------------------------------------
# matchings and signs


def test_matching_count_is_double_factorial():
    for n, expect in ((1, 1), (2, 3), (3, 15), (4, 105)):
        assert sum(1 for _ in perfect_matchings(2 * n)) == expect


def test_permutation_sign_transpositions():
    assert permutation_sign((1, 2, 3, 4)) == 1
    assert permutation_sign((2, 1, 3, 4)) == -1
    assert permutation_sign((2, 3, 1)) == 1
    rng = random.Random(12)
    for _ in range(20):
        p = list(range(1, 7))
        rng.shuffle(p)
        inversions = sum(
            1 for a in range(6) for b in range(a + 1, 6) if p[a] > p[b]
        )
        assert permutation_sign(p) == (-1) ** inversions


# ---------------------------------------------------------------------------
# the three algorithms


def test_hand_worked_four_by_four():
    a, b, c, d, e, f = (Fraction(v) for v in (2, 3, 5, 7, 11, 13))
    A = SkewMatrix(4, {(1, 2): a, (1, 3): b, (1, 4): c, (2, 3): d, (2, 4): e, (3, 4): f})
    expect = a * f - b * e + c * d
    assert pf_naive(A) == expect
    assert pf_eliminate(A) == expect
    assert pf_laplace(A) == expect


def test_two_by_two_and_empty():
    A = SkewMatrix(2, {(1, 2): Fraction(7)})
    for alg in (pf_naive, pf_eliminate, pf_laplace):
        assert alg(A) == 7
    E = SkewMatrix(0, {})
    for alg in (pf_naive, pf_eliminate, pf_laplace):
        assert alg(E) == 1


def test_algorithms_match_reference_recursion():
    rng = random.Random(13)
    for dim in (2, 4, 6, 8):
        for _ in range(8):
            A = random_skew(rng, dim)
            expect = pf_reference(dict(A.upper), tuple(range(1, dim + 1)))
            assert pf_naive(A) == expect
            assert pf_eliminate(A) == expect
            assert pf_laplace(A) == expect


def test_square_is_determinant():
    rng = random.Random(14)
    for dim in (2, 4, 6, 8, 10):
        for _ in range(4):
            A = random_skew(rng, dim)
            pf = pf_eliminate(A)
            assert pf * pf == determinant(dense_rows(A))


def test_relabeling_sign_law():
    rng = random.Random(15)
    for _ in range(25):
        dim = rng.choice((4, 6))
        A = random_skew(rng, dim)
        perm = list(range(1, dim + 1))
        rng.shuffle(perm)
        B = SkewMatrix.from_function(dim, lambda i, j: A.entry(perm[i - 1], perm[j - 1]))
        assert pf_eliminate(B) == permutation_sign(perm) * pf_eliminate(A)


def test_singular_matrix_gives_zero():
    # rank-deficient: row 1 = row 2 pattern forces Pf = 0
    A = SkewMatrix(4, {(1, 3): Fraction(2), (2, 3): Fraction(2),
                       (1, 4): Fraction(5), (2, 4): Fraction(5)})
    assert pf_eliminate(A) == 0
    assert pf_naive(A) == 0
    assert pf_laplace(A) == 0


def test_naive_dimension_guard():
    A = SkewMatrix.from_function(16, lambda i, j: Fraction(1))
    with pytest.raises(ValueError):
        pf_naive(A)
    assert NAIVE_DIMENSION_LIMIT == 14


def test_laplace_dimension_guard():
    A = SkewMatrix.from_function(LAPLACE_DIMENSION_LIMIT + 2, lambda i, j: Fraction(1))
    with pytest.raises(ValueError, match="pf_laplace dimension guard"):
        pf_laplace(A)
    assert LAPLACE_DIMENSION_LIMIT == 22


def test_symbolic_pfaffian():
    fam = family_from_descriptor("narayana:x=sym")
    A = SkewMatrix.from_family(fam, 2)
    assert pf_eliminate(A) == parse_poly("x", ("x",))
    B = SkewMatrix.from_family(fam, 4)
    expect = pf_naive(B)
    assert isinstance(expect, Polynomial)
    assert pf_eliminate(B) == expect
    assert pf_laplace(B) == expect


def test_block_diagonal_multiplicativity():
    rng = random.Random(16)
    for _ in range(6):
        A = random_skew(rng, 4)
        B = random_skew(rng, 4)

        def block(i, j):
            if i <= 4 and j <= 4:
                return A.entry(i, j)
            if i > 4 and j > 4:
                return B.entry(i - 4, j - 4)
            return Fraction(0)

        C = SkewMatrix.from_function(8, block)
        assert pf_eliminate(C) == pf_eliminate(A) * pf_eliminate(B)


# ---------------------------------------------------------------------------
# sub-Pfaffian cofactors


def test_pf_minor_removes_rows_and_columns():
    rng = random.Random(17)
    A = random_skew(rng, 6)
    sub = pf_minor(A, (2, 5))
    keep = [1, 3, 4, 6]
    entries = {}
    for a in range(4):
        for b in range(a + 1, 4):
            v = A.entry(keep[a], keep[b])
            if v:
                entries[(a + 1, b + 1)] = v
    assert sub == pf_reference(entries, (1, 2, 3, 4))


def test_gamma_antisymmetry_and_sign():
    rng = random.Random(18)
    A = random_skew(rng, 6)
    for i in range(1, 7):
        assert gamma(A, i, i) == 0
        for j in range(1, 7):
            assert gamma(A, i, j) == -gamma(A, j, i)
    # adjacent pair: weight (+1)
    assert gamma(A, 5, 6) == pf_minor(A, (5, 6))
    # gap of one: weight (-1)
    assert gamma(A, 4, 6) == -pf_minor(A, (4, 6))


def test_gamma_expansion_reconstructs_pfaffian():
    # expansion along the last column: sum_k a(k, 2n) gamma(k, 2n) = Pf A ... in
    # cofactor form: sum_k a(i, k) gamma(j, k) = delta_ij Pf A
    rng = random.Random(19)
    for dim in (4, 6):
        A = random_skew(rng, dim)
        pf = pf_eliminate(A)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                total = sum(
                    (A.entry(i, k) * gamma(A, j, k) for k in range(1, dim + 1)),
                    Fraction(0),
                )
                assert total == (pf if i == j else 0)


def test_cofactor_vector_defining_identities():
    rng = random.Random(20)
    for dim in (4, 6, 8):
        found = 0
        while found < 4:
            A = random_skew(rng, dim)
            try:
                c, den = cofactor_vector(A)
            except SingularCofactorSystem:
                continue
            found += 1
            assert len(c) == dim - 1
            assert den == 1 and c[-1] == 1
            for j in range(1, dim):
                assert sum(
                    (c[i - 1] * A.entry(i, j) for i in range(1, dim)), Fraction(0)
                ) == 0


def test_cofactor_vector_matches_minor_route():
    rng = random.Random(21)
    for dim in (4, 6):
        for _ in range(4):
            A = random_skew(rng, dim)
            try:
                y, d = cofactor_vector(A)
            except SingularCofactorSystem:
                continue
            g, gd = cofactor_vector_via_minors(A)
            assert len(y) == len(g) == dim - 1
            assert all(a * gd == b * d for a, b in zip(y, g))
    # over Q[x], where the row at dim 4 is a quotient that is no polynomial
    x = parse_poly("x", ("x",))
    family = MatrixFamily("moments", "x^s + 1", lambda s: x ** s + 1)
    for dim in (4, 6):
        A = SkewMatrix.from_family(family, dim)
        y, d = cofactor_vector(A)
        g, gd = cofactor_vector_via_minors(A)
        assert all(a * gd == b * d for a, b in zip(y, g))


def test_cofactor_vector_singular_raises():
    # normalizing sub-Pfaffian Pf A({1,2}) = a(1,2) = 0 at dim 4
    A = SkewMatrix(4, {(1, 3): Fraction(1), (2, 4): Fraction(1), (3, 4): Fraction(1)})
    with pytest.raises(SingularCofactorSystem):
        cofactor_vector(A)
    with pytest.raises(SingularCofactorSystem):
        cofactor_vector_via_minors(A)


# ---------------------------------------------------------------------------
# seeded property tests of the fraction-free kernel

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

X_ZERO = Polynomial.zero(("x",))
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def polynomials(coefficients):
    return st.builds(
        lambda cs: Polynomial(("x",), {(k,): c for k, c in enumerate(cs)}),
        st.lists(coefficients, min_size=1, max_size=3),
    )


POLYNOMIALS = polynomials(RATIONALS)


@st.composite
def sparse_skew(draw, values, max_dim, zero=Fraction(0)):
    """Random skew matrix in which each upper entry is zero with a drawn
    probability, so leading pivots vanish (forcing swaps) and whole rows do
    (forcing Pf = 0)."""
    dim = draw(st.sampled_from(range(0, max_dim + 1, 2)))
    density = draw(st.sampled_from((0.2, 0.5, 0.8, 1.0)))
    upper = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            if draw(st.floats(0, 1)) < density:
                upper[(i, j)] = draw(values)
    return SkewMatrix(dim, upper, zero)


@st.composite
def low_rank_skew(draw, max_dim):
    """B^T J B for an integer r x dim matrix B with r < dim: singular, but
    with no zero row to give it away."""
    dim = draw(st.sampled_from(range(4, max_dim + 1, 2)))
    r = draw(st.sampled_from(range(2, dim, 2)))
    B = [[draw(st.integers(-3, 3)) for _ in range(dim)] for _ in range(r)]
    upper = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            upper[(i + 1, j + 1)] = Fraction(sum(
                B[2 * m][i] * B[2 * m + 1][j] - B[2 * m + 1][i] * B[2 * m][j]
                for m in range(r // 2)
            ))
    return SkewMatrix(dim, upper)


@PROPERTY
@given(sparse_skew(RATIONALS, 10))
def test_eliminate_matches_naive_and_laplace_over_q(A):
    pf = pf_eliminate(A)
    assert isinstance(pf, Fraction)
    assert pf == pf_naive(A) == pf_laplace(A)


@PROPERTY
@given(low_rank_skew(10))
def test_eliminate_vanishes_on_low_rank_matrices(A):
    assert pf_eliminate(A) == 0 == pf_laplace(A)


@PROPERTY
@given(sparse_skew(POLYNOMIALS, 8, X_ZERO))
def test_eliminate_matches_naive_and_laplace_over_qx(A):
    pf = pf_eliminate(A)
    assert pf == pf_naive(A) == pf_laplace(A)
    assert isinstance(pf, Polynomial)


@PROPERTY
@given(st.one_of(sparse_skew(RATIONALS, 10), sparse_skew(POLYNOMIALS, 6, X_ZERO)))
def test_square_is_determinant_property(A):
    pf = pf_eliminate(A)
    assert pf * pf == determinant(dense_rows(A))


@PROPERTY
@given(st.one_of(sparse_skew(RATIONALS, 10), sparse_skew(POLYNOMIALS, 6, X_ZERO)))
def test_leading_list_holds_leading_pfaffians(A):
    leading = []
    pf = pf_eliminate(A, leading)
    n = A.dim // 2
    # every leading Pfaffian, those past a swap or a zero row included
    assert leading == leading_blocks(A)
    assert len(leading) == n
    if n:
        assert leading[-1] == pf


def leading_blocks(A):
    """pf_naive of each leading 2k x 2k block of A, k = 1 .. dim/2."""
    return [pf_naive(submatrix_removing(A, range(2 * k + 1, A.dim + 1)))
            for k in range(1, A.dim // 2 + 1)]


LEADING_FAMILIES = (("motzkin", 10), ("delannoy", 10), ("narayana:x=3/7", 10), ("narayana:x=sym", 6))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.sampled_from(LEADING_FAMILIES), st.data())
def test_leading_list_matches_per_n_elimination(case, data):
    descriptor, n_max = case
    n = data.draw(st.integers(1, n_max))
    fam = family_from_descriptor(descriptor)
    leading = []
    pf_eliminate(SkewMatrix.from_family(fam, 2 * n), leading)
    per_n = [pf_eliminate(SkewMatrix.from_family(fam, 2 * k)) for k in range(1, n + 1)]
    assert leading == per_n
    assert [str(v) for v in leading] == [str(v) for v in per_n]


@pytest.mark.parametrize("variant", ["genmotzkin", "genmotzkin-sum"])
@pytest.mark.parametrize("k", range(1, 7))
def test_leading_list_matches_per_n_elimination_on_the_scaled_families(variant, k):
    # off the residue classes Pf(A_2n) = 0, so the pass swaps there
    fam = family_from_descriptor(f"{variant}:k={k}")
    leading = []
    pf_eliminate(SkewMatrix.from_family(fam, 24), leading)
    per_n = [pf_eliminate(SkewMatrix.from_family(fam, 2 * n)) for n in range(1, 13)]
    assert leading == per_n
    assert [entry_text(v) for v in leading] == [entry_text(v) for v in per_n]
    shift = "i" if variant == "genmotzkin" else "ii"
    assert [n for n in range(1, 13) if not leading[n - 1]] == [
        n for n in range(1, 13) if conjecture_class(k, n, shift) is None]


# ---------------------------------------------------------------------------
# the integer kernels against the routes that multiplied Fractions

WIDE_RATIONALS = st.builds(Fraction, st.integers(-999, 999), st.integers(1, 1000))
WIDE_POLYNOMIALS = polynomials(WIDE_RATIONALS)


@st.composite
def skew_with_zero_rows(draw, values, max_dim, zero=Fraction(0)):
    """A sparse skew matrix whose drawn rows (and columns) are zeroed out."""
    A = draw(sparse_skew(values, max_dim, zero))
    zeroed = draw(st.sets(st.integers(1, max(A.dim, 1)), max_size=2)) if A.dim else set()
    return SkewMatrix(A.dim, {key: v for key, v in A.upper.items() if not zeroed & set(key)},
                      zero)


@PROPERTY
@given(st.one_of(skew_with_zero_rows(WIDE_RATIONALS, 10),
                 skew_with_zero_rows(WIDE_POLYNOMIALS, 6, X_ZERO)))
def test_naive_and_laplace_match_the_reference_in_value_and_type(A):
    # in the matrix's own domain: a Fraction, or a Polynomial over its variables
    expected = A.zero() + pf_reference(A.upper, tuple(range(1, A.dim + 1)))
    for pf in (pf_naive, pf_laplace):
        value = pf(A)
        assert value == expected
        assert type(value) is type(expected)
        assert entry_text(value) == entry_text(expected)


def matching_loop(A):
    """pf_naive's former loop: every matching of `perfect_matchings`, signed
    by `permutation_sign` of its pairs in order (an inversion count), its
    entries multiplied in the matrix's own domain."""
    total = A.zero()
    for pairs in perfect_matchings(A.dim):
        term = A.zero() + 1
        for pair in pairs:
            v = A.entry(*pair)
            if not v:
                break
            term = term * v
        else:
            sign = permutation_sign([k for pair in pairs for k in pair])
            total = total + (term if sign > 0 else -term)
    return total


INTEGRAL = st.builds(Fraction, st.integers(-10**6, 10**6))


@PROPERTY
@given(st.one_of(skew_with_zero_rows(INTEGRAL, 10),
                 skew_with_zero_rows(WIDE_RATIONALS, 8),
                 skew_with_zero_rows(polynomials(st.integers(-9, 9)), 6, X_ZERO),
                 skew_with_zero_rows(WIDE_POLYNOMIALS, 6, X_ZERO)))
def test_naive_matches_the_matching_loop_in_value_and_type(A):
    expected = matching_loop(A)
    value = pf_naive(A)
    assert value == expected
    assert type(value) is type(expected)
    assert entry_text(value) == entry_text(expected)


def one_lcm_eliminate(A, leading=None):
    """The elimination before diagonal scaling: every entry of a rational
    matrix scaled by the one lcm L of all denominators, so that the s-th
    pivot carries L^s.  `leading` gets every leading Pfaffian: the s-th
    pivot, signed by the swaps, while every swap so far stayed inside the
    leading 2s x 2s block, else 0."""
    m = A.dim
    if m == 0:
        return A.zero() + 1
    if any(isinstance(v, Polynomial) for v in A.upper.values()):
        variables = common_variables(A.upper.values())
        zero, one = Polynomial.zero(variables), Polynomial.constant(1, variables)
        upper = {key: polynomial_over(v, variables) for key, v in A.upper.items()}
        scale = None
    else:
        zero, one = 0, 1
        scale = math.lcm(*(v.denominator for v in A.upper.values()))
        upper = {key: v.numerator * (scale // v.denominator) for key, v in A.upper.items()}
    M = [[zero] * m for _ in range(m)]
    for (i, j), v in upper.items():
        M[i - 1][j - 1] = v
        M[j - 1][i - 1] = -v

    def unscaled(value, steps):
        return value if scale is None else Fraction(value, scale ** steps)

    sign, prev = 1, one
    swapped = set()  # the columns swapped into place so far
    for k in range(0, m, 2):
        row_k = M[k]
        piv = next((j for j in range(k + 1, m) if row_k[j]), -1)
        if piv < 0:
            if leading is not None:
                leading += [A.zero()] * ((m - k) // 2)
            return A.zero()
        if piv != k + 1:
            for row in M:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            M[k + 1], M[piv] = M[piv], M[k + 1]
            sign = -sign
            swapped.add(piv)
        row_k1 = M[k + 1]
        p = row_k[k + 1]
        if leading is not None:
            # a column from outside the leading block makes its Pfaffian 0
            outside = any(j > k + 1 for j in swapped)
            leading.append(A.zero() if outside else unscaled(p if sign > 0 else -p, k // 2 + 1))
        for i in range(k + 2, m):
            row_i = M[i]
            for j in range(i + 1, m):
                v, r = divmod(p * row_i[j] - row_k[i] * row_k1[j] + row_k[j] * row_k1[i], prev)
                assert not r
                row_i[j] = v
                M[j][i] = -v
        prev = p
    return unscaled(prev if sign > 0 else -prev, m // 2)


def assert_eliminates_as_one_lcm(A):
    leading, expected_leading = [], []
    value = pf_eliminate(A, leading)
    expected = one_lcm_eliminate(A, expected_leading)
    assert value == expected and type(value) is type(expected)
    assert leading == expected_leading
    assert [entry_text(v) for v in leading] == [entry_text(v) for v in expected_leading]
    assert len(leading) == A.dim // 2
    return leading


@PROPERTY
@given(st.one_of(skew_with_zero_rows(WIDE_RATIONALS, 12),
                 skew_with_zero_rows(WIDE_POLYNOMIALS, 6, X_ZERO)))
def test_eliminate_matches_the_one_lcm_elimination(A):
    leading = assert_eliminates_as_one_lcm(A)
    if A.dim <= NAIVE_DIMENSION_LIMIT:
        assert leading == leading_blocks(A)


@PROPERTY
@given(st.one_of(skew_with_zero_rows(WIDE_RATIONALS, 10),
                 skew_with_zero_rows(WIDE_POLYNOMIALS, 6, X_ZERO)))
def test_leading_list_equals_each_leading_block_eliminated(A):
    leading = []
    pf_eliminate(A, leading)
    blocks = [pf_eliminate(submatrix_removing(A, range(2 * k + 1, A.dim + 1)))
              for k in range(1, A.dim // 2 + 1)]
    assert len(leading) == A.dim // 2
    assert leading == blocks
    assert [type(v) for v in leading] == [type(v) for v in blocks]
    assert [entry_text(v) for v in leading] == [entry_text(v) for v in blocks]


def perturbed_divmod(a, b):
    """divmod with a Polynomial dividend one too large wherever the divisor
    is not constant: an exact division made inexact."""
    if isinstance(b, Polynomial) and not b.is_constant():
        a = a + 1
    return builtins.divmod(a, b)


def test_eliminate_refuses_an_inexact_int_division(monkeypatch):
    A = SkewMatrix.from_function(6, lambda i, j: Fraction(2 if (i, j) == (1, 2) else i + 2 * j))
    assert pf_eliminate(A) == pf_reference(A.upper)

    def off_by_one_divmod(a, b):
        # the dividend one too large wherever the divisor is not +-1
        return builtins.divmod(a + (abs(b) > 1), b)

    # the second step divides by the first pivot, a(1, 2) = 2
    monkeypatch.setattr(pfaffian, "divmod", off_by_one_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="inexact division"):
        pf_eliminate(A)


def test_eliminate_refuses_an_inexact_polynomial_division(monkeypatch):
    A = SkewMatrix.from_family(family_from_descriptor("narayana:x=sym"), 6)
    assert pf_eliminate(A) == pf_reference(A.upper)
    # from the second step on, the division is by a nonconstant pivot
    monkeypatch.setattr(pfaffian, "divmod", perturbed_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="inexact division"):
        pf_eliminate(A)


@pytest.mark.parametrize("upper, first_zero", [
    # a(1, 2) = 0: the first pivot is found by a swap
    ({(1, 3): Fraction(2, 3), (2, 4): Fraction(5, 7), (3, 4): Fraction(1, 9)}, 0),
    # Pf of the leading 4-block is 1/2 * 1/5 - 1/3 * 3/10 + 0 = 0: the second
    # pivot is found by a swap from outside that block, and the third is not
    ({(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 3), (2, 4): Fraction(3, 10),
      (3, 4): Fraction(1, 5), (3, 5): Fraction(7, 11), (4, 6): Fraction(1, 13),
      (5, 6): Fraction(2, 17)}, 1),
])
def test_eliminate_records_past_a_swap_as_the_one_lcm_elimination(upper, first_zero):
    dim = max(j for _, j in upper)
    A = SkewMatrix(dim, upper)
    leading = assert_eliminates_as_one_lcm(A)
    assert leading == leading_blocks(A)
    assert [bool(v) for v in leading].index(False) == first_zero
    assert leading[-1] == pf_eliminate(A) == pf_reference(upper, tuple(range(1, dim + 1))) != 0


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(1, 18), st.integers(2, 40), st.data())
def test_eliminate_matches_the_one_lcm_elimination_on_narayana(p, q, data):
    # geometric denominators q^s, where the diagonal scaling gains most
    n = data.draw(st.integers(1, 7))
    A = SkewMatrix.from_family(family_from_descriptor(f"narayana:x={p}/{q}"), 2 * n)
    assert len(assert_eliminates_as_one_lcm(A)) == n


def per_n_ratio_sequence(family, ratios):
    """The ratio cross-check with one independent elimination per size, on
    rational ratios (g, 1)."""
    pfaffians = [Fraction(1)] + [
        pf_eliminate(SkewMatrix.from_family(family, 2 * n)) for n in range(1, len(ratios) + 1)
    ]
    for n in range(1, len(ratios) + 1):
        if pfaffians[n - 1] == 0 or ratios[n - 1][0] != pfaffians[n] / pfaffians[n - 1]:
            return pfaffians, n
    return pfaffians, None


@PROPERTY
@given(st.integers(1, 5), st.lists(st.integers(-3, 3), min_size=20, max_size=20),
       st.lists(st.integers(-2, 2), min_size=5, max_size=5))
def test_ratio_sequence_falls_back_when_b2_vanishes(n_max, moments, diagonal):
    # a(1, 2) = moment(3) = 0, so b_2 = 0; dim 2 * n_max <= 10 reads moments 0..19
    moments = [Fraction(v) for v in moments]
    moments[3] = Fraction(0)
    family = MatrixFamily("handmade", "handmade", moments.__getitem__)
    ratios = [(Fraction(diagonal[n - 1]), 1) for n in range(1, n_max + 1)]
    pfaffians, mismatch_n = ratio_sequence(family, ratios)
    assert (pfaffians, mismatch_n) == per_n_ratio_sequence(family, ratios)
    assert pfaffians[1] == 0 and len(pfaffians) == n_max + 1
    if n_max > 1:
        assert mismatch_n is not None
