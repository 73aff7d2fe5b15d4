"""Tests for partition utilities, the H-matrix minor sum, the minor
summation formula, and the addition-formula grid.

Oracles used here:
  * a from-scratch partition enumerator (bounded parts/length) to cross-check
    `is_even_even` and `enumerate_even_even` against the raw definitions;
  * full enumeration of principal Pfaffian minors of the canonical block
    matrix to verify the index-set characterization;
  * an independent T*A*T^t product for the minor summation Q.
"""

import itertools
import random
from fractions import Fraction

import pytest

from pfansatz.linalg import determinant
from pfansatz.minorsum import (
    build_H,
    canonical_block_skew,
    conjugate,
    enumerate_even_even,
    index_set,
    is_even_even,
    msf_Q,
    msf_lhs_bruteforce,
    okinawa_lhs,
    okinawa_rhs,
    theorem4_lhs,
    theorem4_terms,
    verify_msf,
    verify_okinawa,
)
from pfansatz.pfaffian import SkewMatrix, pf_eliminate, pf_naive
from pfansatz.sequences import family_from_descriptor, motzkin_triangle


# ---------------------------------------------------------------------------
# oracle: enumerate every partition with parts <= max_part, length <= max_len


def all_partitions(max_part, max_len):
    found = [()]

    def rec(prefix, largest_allowed):
        for part in range(largest_allowed, 0, -1):
            if len(prefix) + 1 > max_len:
                return
            cur = prefix + (part,)
            found.append(cur)
            rec(cur, part)

    rec((), max_part)
    return found


def multiplicities_all_even(lam):
    return all(lam.count(p) % 2 == 0 for p in set(lam))


# ---------------------------------------------------------------------------
# partition utilities


def test_conjugate_worked_example():
    assert conjugate((3, 3, 1, 1)) == (4, 2, 2)


def test_conjugate_empty_and_single():
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)


def test_conjugate_is_an_involution():
    for lam in all_partitions(6, 6):
        assert conjugate(conjugate(lam)) == lam


def test_conjugate_rejects_bad_partitions():
    with pytest.raises(ValueError):
        conjugate((1, 2))
    with pytest.raises(ValueError):
        conjugate((2, 0))
    with pytest.raises(ValueError):
        conjugate((3, -1))


def test_is_even_even_matches_multiplicity_characterization():
    # all parts even and all conjugate parts even <=> all parts even with
    # even multiplicities
    for lam in all_partitions(8, 8):
        expected = all(p % 2 == 0 for p in lam) and multiplicities_all_even(lam)
        assert is_even_even(lam) == expected, lam


def test_is_even_even_examples():
    assert is_even_even(())
    assert is_even_even((2, 2))
    assert is_even_even((4, 4, 2, 2))
    assert not is_even_even((2,))  # odd multiplicity
    assert not is_even_even((3, 3))  # odd part
    assert not is_even_even((4, 2, 2))


def test_enumerate_even_even_n2_frozen():
    assert enumerate_even_even(2) == [(), (2, 2), (2, 2, 2, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_even_even_matches_brute_filter(n):
    brute = sorted(
        {
            lam
            for lam in all_partitions(2 * n - 2 if n > 1 else 0, 2 * n)
            if is_even_even(lam)
        },
        key=lambda lam: (sum(lam), lam),
    )
    got = enumerate_even_even(n)
    assert got == brute
    assert len(set(got)) == len(got)


def test_enumerate_even_even_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_even_even(0)


def test_index_set_worked_example():
    assert index_set((3, 3, 1, 1), 4) == (2, 3, 6, 7)


def test_index_set_empty_partition_is_initial_segment():
    assert index_set((), 4) == (1, 2, 3, 4)
    assert index_set((), 1) == (1,)


def test_index_set_zero_padding():
    assert index_set((2, 2), 4) == (1, 2, 5, 6)


def test_index_set_too_many_parts_raises():
    with pytest.raises(ValueError):
        index_set((1, 1, 1), 2)


def test_index_set_is_strictly_increasing_and_injective():
    seen = {}
    for lam in all_partitions(4, 4):
        idx = index_set(lam, 4)
        assert all(idx[t] < idx[t + 1] for t in range(3))
        assert idx not in seen, (lam, seen.get(idx))
        seen[idx] = lam
        # the partition is recoverable: lam_t = I_{n+1-t} - (n+1-t)
        recovered = tuple(
            idx[4 - t] - (4 + 1 - t) for t in range(1, 5) if idx[4 - t] - (4 + 1 - t) > 0
        )
        assert recovered == lam


# ---------------------------------------------------------------------------
# the H matrix and the column-minor sum


def test_build_H_4_by_8_frozen_values():
    H = build_H(4, 8)
    expected = [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 0, 0],
        [2, 2, 2, 2, 1, 0, 0, 0],
        [4, 6, 5, 6, 3, 3, 1, 0],
    ]
    assert H == expected


def test_build_H_matches_triangle_function():
    H = build_H(5, 9)
    for i in range(1, 6):
        for j in range(1, 10):
            assert H[i - 1][j - 1] == motzkin_triangle(i, j)


def test_columns_beyond_band_are_zero():
    # Rows 1..2n have h(i, j) = 0 once j >= 2i, so columns j >= 4n are
    # identically zero there.  A partition with a part exceeding 2n - 2 has
    # an even part >= 2n, selects column lam_1 + 2n >= 4n, and therefore
    # contributes nothing -- which is why enumeration stops at parts 2n - 2.
    n = 2
    H = build_H(2 * n, 4 * n + 2)
    for j in range(4 * n, 4 * n + 3):
        assert all(H[i][j - 1] == 0 for i in range(2 * n))
    cols = index_set((4, 4), 2 * n)  # first part 4 > 2n - 2 = 2
    assert cols == (1, 2, 7, 8)
    assert determinant([[r[c - 1] for c in cols] for r in H]) == 0


def test_theorem4_term_counts():
    assert len(theorem4_terms(1)) == 1
    assert len(theorem4_terms(2)) == 3
    assert len(theorem4_terms(3)) == 10


def test_theorem4_terms_n2_detail():
    terms = theorem4_terms(2)
    by_partition = {t.partition: t for t in terms}
    assert set(by_partition) == {(), (2, 2), (2, 2, 2, 2)}
    assert by_partition[()].columns == (1, 2, 3, 4)
    assert by_partition[(2, 2)].columns == (1, 2, 5, 6)
    assert by_partition[(2, 2, 2, 2)].columns == (3, 4, 5, 6)
    assert sum(t.minor for t in terms) == 5


def per_minor_terms(n):
    """The minor sum's former loop: each column minor of H(2n) eliminated
    from scratch by `determinant`."""
    H = [[h.numerator for h in row] for row in build_H(2 * n, 4 * n - 2)]
    return [(lam, index_set(lam, 2 * n),
             determinant([[r[c - 1] for c in index_set(lam, 2 * n)] for r in H]))
            for lam in enumerate_even_even(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_theorem4_terms_match_one_determinant_per_minor(n):
    terms = theorem4_terms(n)
    assert [(t.partition, t.columns, t.minor) for t in terms] == per_minor_terms(n)
    assert all(type(t.minor) is Fraction for t in terms)


def test_theorem4_lhs_small_values():
    assert theorem4_lhs(1) == 1
    assert theorem4_lhs(2) == 5
    assert theorem4_lhs(3) == 45


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theorem4_lhs_equals_pfaffian(n):
    fam = family_from_descriptor("motzkin")
    assert theorem4_lhs(n) == pf_eliminate(SkewMatrix.from_family(fam, 2 * n))


# ---------------------------------------------------------------------------
# canonical block skew matrix


def test_canonical_block_skew_shape():
    A = canonical_block_skew(6)
    assert A.dim == 6
    assert A.entry(1, 2) == 1
    assert A.entry(2, 1) == -1
    assert A.entry(1, 3) == 0
    assert pf_naive(A) == 1


def principal_pf(A, I):
    sub = SkewMatrix.from_function(len(I), lambda r, c: A.entry(I[r - 1], I[c - 1]))
    return pf_naive(sub)


@pytest.mark.parametrize("m,k", [(6, 2), (6, 4), (6, 6), (8, 4)])
def test_canonical_minors_are_indicator_of_even_even_index_sets(m, k):
    # Pf of the principal minor on I is 1 exactly when I = I_k(lam) for a
    # partition lam with lam and conjugate(lam) both even, and 0 otherwise.
    A = canonical_block_skew(m)
    expected_ones = set()
    for lam in all_partitions(m - k, k):
        if is_even_even(lam):
            idx = index_set(lam, k)
            if idx[-1] <= m:
                expected_ones.add(idx)
    for I in itertools.combinations(range(1, m + 1), k):
        pf = principal_pf(A, I)
        if I in expected_ones:
            assert pf == 1, I
        else:
            assert pf == 0, I


# ---------------------------------------------------------------------------
# minor summation formula


def random_rectangular(rng, rows, cols):
    return [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]


def random_skew(rng, dim):
    entries = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            entries[(i, j)] = Fraction(rng.randint(-4, 4))
    return SkewMatrix(dim, entries)


def test_msf_Q_identity_transform_preserves_matrix():
    rng = random.Random(20120702)
    A = random_skew(rng, 6)
    T = [[Fraction(1 if i == j else 0) for j in range(6)] for i in range(6)]
    assert msf_Q(T, A).dense() == A.dense()


def test_msf_Q_row_selection_gives_principal_submatrix():
    rng = random.Random(20120703)
    A = random_skew(rng, 6)
    keep = (2, 3, 5, 6)
    T = [[Fraction(1 if j + 1 == r else 0) for j in range(6)] for r in keep]
    Q = msf_Q(T, A)
    for r in range(4):
        for c in range(4):
            assert Q.entry(r + 1, c + 1) == A.entry(keep[r], keep[c])


def test_msf_Q_matches_independent_product():
    rng = random.Random(20120704)
    for rows, cols in [(2, 4), (4, 6), (6, 6)]:
        T = random_rectangular(rng, rows, cols)
        A = random_skew(rng, cols)
        Q = msf_Q(T, A)
        assert Q.dense() == matmul(matmul(T, A.dense()), list(zip(*T)))


def test_msf_Q_dimension_mismatch_raises():
    T = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    A = canonical_block_skew(4)
    with pytest.raises(ValueError):
        msf_Q(T, A)
    # every row is checked, not the first alone
    for width in (3, 5):
        T = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)], [Fraction(1)] * width]
        for check in (msf_Q, verify_msf):
            with pytest.raises(ValueError, match=f"row of {width} entries"):
                check(T, A)


def test_msf_lhs_bruteforce_rejects_odd_rows():
    T = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]] * 3
    A = canonical_block_skew(4)
    with pytest.raises(ValueError):
        msf_lhs_bruteforce(T, A)


@pytest.mark.parametrize("rows,dim", [(2, 4), (2, 6), (4, 6)])
def test_verify_msf_random_instances(rows, dim):
    rng = random.Random(f"msf:{rows}:{dim}")
    for _ in range(3):
        T = random_rectangular(rng, rows, dim)
        A = random_skew(rng, dim)
        report = verify_msf(T, A)
        assert report.equal, (report.lhs, report.pfaffian)


def test_verify_msf_more_rows_than_columns_gives_zero():
    # With T taller than A the column-set sum is empty and T A T^t has rank
    # at most dim(A) < rows, so both sides vanish.
    rng = random.Random(20120705)
    T = random_rectangular(rng, 6, 4)
    A = random_skew(rng, 4)
    report = verify_msf(T, A)
    assert report.lhs == 0
    assert report.pfaffian == 0
    assert report.equal


@pytest.mark.parametrize("n", [1, 2])
def test_verify_msf_on_H_and_canonical_matrix(n):
    T = build_H(2 * n, 4 * n - 2)
    A = canonical_block_skew(4 * n - 2)
    report = verify_msf(T, A)
    assert report.equal
    assert report.lhs == theorem4_lhs(n)


# ---------------------------------------------------------------------------
# addition-formula grid


def test_okinawa_hand_values():
    assert okinawa_rhs(0, 0) == 1
    assert okinawa_lhs(0, 0) == 1
    # i=1, j=1: series 2F1(-1/2, -1; 2; 4) = 1 + 1 = 2
    assert okinawa_rhs(1, 1) == 2
    assert okinawa_lhs(1, 1) == 2
    assert okinawa_rhs(1, 0) == 1
    assert okinawa_lhs(1, 0) == 1
    assert okinawa_rhs(2, 0) == 2
    assert okinawa_lhs(2, 0) == 2


def test_okinawa_symmetry():
    for i in range(5):
        for j in range(5):
            assert okinawa_lhs(i, j) == okinawa_lhs(j, i)
            assert okinawa_rhs(i, j) == okinawa_rhs(j, i)


def test_verify_okinawa_grid():
    report = verify_okinawa(8, 8)
    assert report.checked == 81
    assert report.failures == ()
    assert report.all_equal


def test_verify_okinawa_counts_rectangular_grid():
    report = verify_okinawa(3, 5)
    assert report.checked == 24
    assert report.all_equal
