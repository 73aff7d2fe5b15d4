"""Minor-summation identities for the lattice-path matrix H.

The module provides: partition utilities (conjugates, the index-set map
I_n, and enumeration of even partitions with even conjugate), the banded
matrix H built from terminating Gauss series, the signed sum of its column
minors, the minor summation formula for Pfaffians computed along two
independent paths, and the addition-formula grid check that connects them.

Conventions: partitions are nonincreasing tuples of positive integers
(the empty partition is ()); row and column indices in the public API are
1-based, matching the mathematical statements.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .linalg import _bareiss, determinant, solve_linear
from .pfaffian import SkewMatrix, pf_eliminate, pf_naive
from .poly import over_common_denominator
from .sequences import hyp2f1_terminating, motzkin_triangle


# ---------------------------------------------------------------------------
# partitions


def _validate_partition(lam: Sequence[int]) -> Tuple[int, ...]:
    lam = tuple(int(p) for p in lam)
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be nonincreasing: {lam}")
    return lam


def conjugate(lam: Sequence[int]) -> Tuple[int, ...]:
    """Transpose of the Young diagram: part i of the result counts the parts
    of `lam` that are >= i."""
    lam = _validate_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def is_even_even(lam: Sequence[int]) -> bool:
    """True when all parts are even and the conjugate is even too (the latter
    is equivalent to every part occurring with even multiplicity)."""
    lam = _validate_partition(lam)
    if any(p % 2 for p in lam):
        return False
    return all(p % 2 == 0 for p in conjugate(lam))


def enumerate_even_even(n: int) -> List[Tuple[int, ...]]:
    """Even partitions with even conjugate, at most 2n parts, parts <= 2n-2.

    These are exactly the partitions that can contribute a nonzero column
    minor of H(2n): larger first parts select an index beyond the band where
    every column is zero.  Sorted by (weight, reverse-lex) for determinism.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out: List[Tuple[int, ...]] = []

    def rec(prefix: List[int], max_part: int, remaining_slots: int):
        out.append(tuple(prefix))
        # distinct even parts chosen largest-first, each with even multiplicity
        for part in range(min(max_part, 2 * n - 2), 0, -2):
            for mult in range(2, remaining_slots + 1, 2):
                rec(prefix + [part] * mult, part - 2, remaining_slots - mult)

    rec([], 2 * n - 2, 2 * n)
    return sorted(out, key=lambda lam: (sum(lam), lam))


def index_set(lam: Sequence[int], n: int) -> Tuple[int, ...]:
    """The n-element set {lam_n + 1, lam_{n-1} + 2, ..., lam_1 + n} as an
    increasing tuple; `lam` is padded with zeros up to length n."""
    lam = _validate_partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition has more than {n} parts")
    padded = tuple(lam) + (0,) * (n - len(lam))
    return tuple(padded[n - t] + t for t in range(1, n + 1))


# ---------------------------------------------------------------------------
# the H matrix and the column-minor sum


def build_H(rows: int, cols: int) -> List[List[Fraction]]:
    """H as a list of `rows` rows of `cols` entries; row i - 1 holds h(i, j)
    for 1-based i, j."""
    return [[motzkin_triangle(i, j) for j in range(1, cols + 1)] for i in range(1, rows + 1)]


class MinorSumTerm:
    __slots__ = ("partition", "columns", "minor")

    def __init__(self, partition: Tuple[int, ...], columns: Tuple[int, ...], minor: Fraction):
        self.partition = partition
        self.columns = columns
        self.minor = minor


def theorem4_terms(n: int) -> List[MinorSumTerm]:
    """One column minor of H(2n) per contributing partition, all read from
    one reduction of H.  H's entries, counts of paths, are integers, taken
    as ints once.

    The rows of H end in distinct columns (h(i, j) = 0 for j >= 2i), so H
    has rank 2n.  Its first 2n independent columns P = (p_1 < .. < p_2n)
    are the pivot columns of one Bareiss echelon of H, whose last pivot is
    det H_P up to the sign of its row swaps.  Then H = H_P C, C = H_P^-1 H,
    whose column p_t is the unit vector e_t and whose other columns come
    from one `solve_linear(H_P, .)` each.  For a column set S, det H_S =
    det H_P * det C_S, and expanding det C_S along its unit columns gives

        det H_S = det H_P * (-1)^(sum (i + t)) * det C[R, K]

    with K = S minus P, R the rows t whose p_t is not in S, and the sum over
    the pivot columns p_t in S, i the position of p_t in S.  C is held as
    ints over one denominator, so each |K| x |K| minor is one `determinant`
    of int rows."""
    H = [[h.numerator for h in row] for row in build_H(2 * n, 4 * n - 2)]
    echelon = [row[:] for row in H]
    pivots, sign = _bareiss(echelon, len(H[0]))
    last_row, last_col = pivots[-1]
    det_p = sign * echelon[last_row][last_col]
    t_of = {col + 1: t for t, (_, col) in enumerate(pivots)}  # p_t -> t, p_t 1-based
    H_P = [[row[p - 1] for p in t_of] for row in H]
    others = [c for c in range(1, len(H[0]) + 1) if c not in t_of]
    solved = [solve_linear(H_P, [row[c - 1] for row in H]).vector for c in others]
    ints, den = over_common_denominator([v for column in solved for v in column])
    size = len(H)
    C = {c: ints[k * size:(k + 1) * size] for k, c in enumerate(others)}
    terms = []
    for lam in enumerate_even_even(n):
        cols = index_set(lam, 2 * n)
        K = [c for c in cols if c not in t_of]
        i_of = {t_of[c]: i for i, c in enumerate(cols) if c in t_of}
        R = [t for t in range(size) if t not in i_of]
        minor = determinant([[C[c][t] for c in K] for t in R]) * Fraction(det_p, den ** len(K))
        if sum(i + t for t, i in i_of.items()) % 2:
            minor = -minor
        terms.append(MinorSumTerm(lam, cols, minor))
    return terms


def theorem4_lhs(n: int) -> Fraction:
    """Sum of det H(2n)_{I_{2n}(lam)} over even partitions with even
    conjugate and at most 2n parts."""
    return sum((t.minor for t in theorem4_terms(n)), Fraction(0))


# ---------------------------------------------------------------------------
# minor summation formula


def canonical_block_skew(m: int) -> SkewMatrix:
    """The skew matrix pairing (2k-1, 2k) -> 1; its principal Pfaffian
    minors are 1 exactly on index sets of the form I_{2n}(lam) with lam and
    its conjugate even, and 0 otherwise."""
    return SkewMatrix(m, {(2 * k - 1, 2 * k): Fraction(1) for k in range(1, m // 2 + 1)})


def msf_Q(T: Sequence[Sequence[Fraction]], A: SkewMatrix) -> SkewMatrix:
    """Q = T A T^t computed two independent ways (matrix product and the
    2x2-minor expansion Q_ij = sum_{k<l} a_kl det T^{i,j}_{k,l}); both must
    agree exactly.  T is a sequence of rows of A.dim entries each."""
    for r in T:
        if len(r) != A.dim:
            raise ValueError(f"T has a row of {len(r)} entries but A has dimension {A.dim}")
    a_dense = A.dense()
    ta = [[sum(t * a[c] for t, a in zip(r, a_dense)) for c in range(A.dim)] for r in T]
    product = [[sum(x * y for x, y in zip(r, s)) for s in T] for r in ta]

    def entry(i: int, j: int) -> Fraction:
        ti, tj = T[i - 1], T[j - 1]
        total = Fraction(0)
        for (k, l), a in A.upper.items():
            total += a * (ti[k - 1] * tj[l - 1] - ti[l - 1] * tj[k - 1])
        return total

    expanded = SkewMatrix.from_function(len(T), entry)
    if expanded.dense() != product:
        raise AssertionError("matrix-product and minor-expansion forms of Q disagree")
    return expanded


def msf_lhs_bruteforce(T: Sequence[Sequence[Fraction]], A: SkewMatrix) -> Fraction:
    """Sum over all size-2n column sets I of Pf(A^I_I) det(T_I), by full
    enumeration; T must have even row count and at least as many columns."""
    two_n = len(T)
    if two_n % 2:
        raise ValueError("T must have an even number of rows")
    total = Fraction(0)
    for I in itertools.combinations(range(1, A.dim + 1), two_n):
        sub = SkewMatrix.from_function(two_n, lambda r, c: A.entry(I[r - 1], I[c - 1]))
        pf = pf_naive(sub) if two_n <= 8 else pf_eliminate(sub)
        if pf == 0:
            continue
        det = determinant([[r[c - 1] for c in I] for r in T])
        total += pf * det
    return total


class MsfReport:
    __slots__ = ("lhs", "pfaffian")

    def __init__(self, lhs: Fraction, pfaffian: Fraction):
        self.lhs = lhs
        self.pfaffian = pfaffian

    @property
    def equal(self) -> bool:
        return self.lhs == self.pfaffian


def verify_msf(T: Sequence[Sequence[Fraction]], A: SkewMatrix) -> MsfReport:
    """Full-enumeration left side against Pf(T A T^t) (dual-path Q)."""
    q = msf_Q(T, A)
    return MsfReport(msf_lhs_bruteforce(T, A), pf_eliminate(q))


# ---------------------------------------------------------------------------
# addition-formula grid


def okinawa_lhs(i: int, j: int) -> Fraction:
    total = Fraction(0)
    for k in range(0, min(i, j) + 1):
        total += comb(i, k) * comb(j, k) * _gauss_factor(k, i) * _gauss_factor(k, j)
    return total


def okinawa_rhs(i: int, j: int) -> Fraction:
    return hyp2f1_terminating(
        Fraction(1 - i - j, 2), Fraction(-i - j, 2), Fraction(2), Fraction(4)
    )


def _gauss_factor(k: int, i: int) -> Fraction:
    return hyp2f1_terminating(
        Fraction(k - i + 1, 2), Fraction(k - i, 2), Fraction(k + 2), Fraction(4)
    )


class OkinawaReport:
    __slots__ = ("checked", "failures")

    def __init__(self, checked: int, failures: Tuple[Tuple[int, int], ...]):
        self.checked = checked
        self.failures = failures

    @property
    def all_equal(self) -> bool:
        return not self.failures


def verify_okinawa(i_max: int, j_max: int) -> OkinawaReport:
    """Exact equality of the addition formula on [0, i_max] x [0, j_max]."""
    failures = []
    checked = 0
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            checked += 1
            if okinawa_lhs(i, j) != okinawa_rhs(i, j):
                failures.append((i, j))
    return OkinawaReport(checked, tuple(failures))
