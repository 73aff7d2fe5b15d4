"""Skew-symmetric matrices and three independent Pfaffian algorithms.

Conventions: indices are 1-based to match the combinatorial formulas; the
Pfaffian of the empty matrix is 1 and of any odd-dimensional matrix is 0.
Entries are Fractions or Polynomials.

The three routes share no arithmetic kernel, so a bug in one cannot hide
behind agreement with another:
  * pf_naive      - signed sum over perfect matchings (definition; dim <= 14),
  * pf_eliminate  - fraction-free skew elimination with 2x2 pivots (the
                    Pfaffian analogue of Bareiss; Rote 2001), over Z or Q[x];
                    its k-th pivot is the k-th leading Pfaffian, so one pass
                    yields all of them,
  * pf_laplace    - expansion along the last row/column via sub-Pfaffians.
cofactor_vector goes through linalg.solve_linear, whose polynomial systems
run the Bareiss row echelon `linalg._bareiss`: it shares Polynomial
arithmetic, `exact_quotient` and `over_common_denominator` (rationals as
integers over one denominator) with pf_eliminate but no elimination loop,
so the pipeline's cofactor and Pfaffian cross-checks stay independent too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .linalg import solve_linear
from .poly import (
    Entry,
    ParseBudget,
    Polynomial,
    common_variables,
    entry_text,
    exact_quotient,
    json_int,
    over_common_denominator,
    parse_entry,
    polynomial_over,
)
from .sequences import MatrixFamily

NAIVE_DIMENSION_LIMIT = 14
# the memoized expansion visits every subset of the index set: time and
# memory grow about x3.3 per +2 dimensions
LAPLACE_DIMENSION_LIMIT = 22
# the elimination holds a dense dim x dim array and does O(dim^3) exact
# operations: motzkin at dim 400 takes about 30 s (2-vCPU host, Python 3.11)
ELIMINATE_DIMENSION_LIMIT = 400


class SingularCofactorSystem(ValueError):
    """The normalized cofactor system has no unique solution at this dimension
    (the normalizing sub-Pfaffian vanishes), so the ansatz is inapplicable here."""

    def __init__(self, dim: int, detail: str = ""):
        self.dim = dim
        msg = f"cofactor system singular at dim={dim}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class SkewMatrix:
    """Even-dimensional skew-symmetric matrix stored by its strict upper triangle."""

    __slots__ = ("dim", "upper", "_zero")

    def __init__(self, dim: int, upper: dict, zero: Entry = Fraction(0)):
        if dim < 0 or dim % 2:
            raise ValueError(f"dimension must be even and non-negative, got {dim}")
        clean = {}
        for (i, j), v in upper.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bad upper index ({i}, {j}) for dim {dim}")
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "upper", clean)
        object.__setattr__(self, "_zero", zero)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("SkewMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_function(cls, dim: int, fn, zero: Entry = Fraction(0)) -> "SkewMatrix":
        upper = {(i, j): fn(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)}
        return cls(dim, upper, zero)

    @classmethod
    def from_family(cls, family: MatrixFamily, dim: int) -> "SkewMatrix":
        m = [family.moment(s) for s in range(2 * dim)]
        return cls.from_function(dim, lambda i, j: (j - i) * m[i + j], Fraction(0) * family.moment(0))

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Entry]]) -> "SkewMatrix":
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("ragged matrix")
        zero = Fraction(0) * rows[0][0] if dim else Fraction(0)
        for i in range(dim):
            if rows[i][i]:
                raise ValueError(f"nonzero diagonal at {i + 1}")
            for j in range(i + 1, dim):
                lhs = rows[i][j]
                rhs = rows[j][i]
                if lhs + rhs:
                    raise ValueError(f"not skew-symmetric at ({i + 1}, {j + 1})")
        upper = {(i + 1, j + 1): rows[i][j] for i in range(dim) for j in range(i + 1, dim)}
        return cls(dim, upper, zero)

    # -- access -----------------------------------------------------------

    def entry(self, i: int, j: int) -> Entry:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexError(f"index ({i}, {j}) out of range for dim {self.dim}")
        if i == j:
            return self._zero
        if i < j:
            return self.upper.get((i, j), self._zero)
        v = self.upper.get((j, i))
        return -v if v is not None else self._zero

    def zero(self) -> Entry:
        return self._zero

    def dense(self) -> list:
        return [[self.entry(i, j) for j in range(1, self.dim + 1)] for i in range(1, self.dim + 1)]

    def submatrix_removing(self, removed: Iterable[int]) -> "SkewMatrix":
        """Remove the listed rows and the same-numbered columns."""
        removed = set(removed)
        if any(not 1 <= r <= self.dim for r in removed):
            raise IndexError(f"removal indices {sorted(removed)} out of range")
        keep = [k for k in range(1, self.dim + 1) if k not in removed]
        upper = {}
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                v = self.entry(keep[a], keep[b])
                if v:
                    upper[(a + 1, b + 1)] = v
        return SkewMatrix(len(keep), upper, self._zero)

    def __eq__(self, other):
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        keys = set(self.upper) | set(other.upper)
        return all(self.entry(*k) == other.entry(*k) for k in keys)

    __hash__ = None

    def __repr__(self):
        return f"SkewMatrix(dim={self.dim}, nonzero={len(self.upper)})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        triples = [[i, j, entry_text(v)] for (i, j), v in sorted(self.upper.items())]
        return {"dim": self.dim, "upper": triples}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "SkewMatrix":
        """Raises TypeError where a field, triple or index has the wrong JSON
        type (a float dim or index is refused, not truncated)."""
        try:
            dim = json_int(data["dim"])
            triples = data["upper"]
        except KeyError as e:
            raise ValueError(f"malformed matrix object: missing {e}") from None
        upper = {}
        symbolic = False
        budget = ParseBudget()  # one bound on the parse work of every entry
        for item in triples:
            if len(item) != 3:
                raise ValueError(f"malformed upper triple: {item!r}")
            i, j = json_int(item[0]), json_int(item[1])
            if (i, j) in upper:
                raise ValueError(f"duplicate entry ({i}, {j})")
            v = _json_entry(item[2], budget)
            if isinstance(v, Polynomial):
                symbolic = True
            upper[(i, j)] = v
        zero = Polynomial.zero(("x",)) if symbolic else Fraction(0)
        return cls(dim, upper, zero)

    @classmethod
    def from_json_rows(cls, rows) -> "SkewMatrix":
        """The dense row-major JSON form; raises TypeError like
        `from_json_dict`."""
        budget = ParseBudget()  # one bound on the parse work of every entry
        return cls.from_dense([[_json_entry(v, budget) for v in row] for row in rows])

    @classmethod
    def from_json(cls, text: str) -> "SkewMatrix":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed matrix JSON: {e}") from None
        return cls.from_json_dict(data)


def _json_entry(value, budget: ParseBudget) -> Entry:
    """A matrix entry of either JSON form: an integer (not a bool) or entry
    text; any other JSON value (true, null, 1.5, [3]) is a TypeError."""
    if isinstance(value, str):
        return parse_entry(value, budget)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer or entry text, got {value!r}")
    return Fraction(value)


# ---------------------------------------------------------------------------
# perfect matchings


@dataclass(frozen=True)
class PerfectMatching:
    """Pairs (i, j) with i < j, listed with increasing first elements, covering
    1..2n exactly once."""

    pairs: Tuple[Tuple[int, int], ...]

    def sign(self) -> int:
        return permutation_sign([k for pair in self.pairs for k in pair])

    @staticmethod
    def enumerate(dim: int):
        """Yield all perfect matchings of {1..dim} in canonical order."""
        if dim % 2:
            return

        def rec(items):
            if not items:
                yield ()
                return
            first = items[0]
            for t in range(1, len(items)):
                partner = items[t]
                rest = items[1:t] + items[t + 1 :]
                for sub in rec(rest):
                    yield ((first, partner),) + sub

        for pairs in rec(tuple(range(1, dim + 1))):
            yield PerfectMatching(pairs)


def permutation_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sending position k to seq[k] (any distinct ints)."""
    inversions = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# Pfaffian algorithms


def pf_naive(A: SkewMatrix) -> Entry:
    """Signed sum over perfect matchings; the (2n-1)!! growth is guarded."""
    if A.dim > NAIVE_DIMENSION_LIMIT:
        raise ValueError(
            f"pf_naive dimension guard: dim {A.dim} exceeds limit {NAIVE_DIMENSION_LIMIT}"
        )
    one = A.zero() + 1
    if A.dim == 0:
        return one
    total = A.zero()
    for matching in PerfectMatching.enumerate(A.dim):
        term = one
        ok = True
        for i, j in matching.pairs:
            v = A.entry(i, j)
            if not v:
                ok = False
                break
            term = term * v
        if ok:
            total = total + (term if matching.sign() > 0 else -term)
    return total


def pf_eliminate(A: SkewMatrix, leading: Optional[list] = None) -> Entry:
    """Fraction-free skew elimination with 2x2 pivots.

    Rational matrices are scaled by D, the lcm of the entry denominators, and
    eliminated over Python ints; polynomial matrices are eliminated over Q[x]
    as they are.  Step k takes the pivot p = M[k][k+1], the first nonzero
    entry of row k after swapping that column (and row) into place, and
    replaces every trailing entry i, j >= k + 2 by

        (p * M[i][j] - M[k][i] * M[k+1][j] + M[k][j] * M[k+1][i]) / p'

    where p' is the previous pivot (1 at the first step).  The division is
    exact, and checked.  The pivot of the s-th step is the Pfaffian of the
    leading 2s x 2s block of the (relabelled) scaled matrix, so the last one,
    signed by the swaps and divided by D^n, is Pf A.  A zero row means
    Pf A = 0.

    If `leading` is a list, the Pfaffian of each leading 2k x 2k block of A,
    k = 1, 2, ..., is appended to it while no swap has happened; the first
    swap (or zero row) stops the recording, so a short list means that some
    leading Pfaffian vanished.
    """
    m = A.dim
    if m == 0:
        return A.zero() + 1
    if any(isinstance(v, Polynomial) for v in A.upper.values()):
        variables = common_variables(A.upper.values())
        zero = Polynomial.zero(variables)
        one = Polynomial.constant(1, variables)
        upper = {key: polynomial_over(v, variables) for key, v in A.upper.items()}
        scale = None
    else:
        zero, one = 0, 1
        ints, scale = over_common_denominator(A.upper.values())
        upper = dict(zip(A.upper, ints))
    M = [[zero] * m for _ in range(m)]
    for (i, j), v in upper.items():
        M[i - 1][j - 1] = v
        M[j - 1][i - 1] = -v

    def unscaled(value, steps: int) -> Entry:
        return value if scale is None else Fraction(value, scale ** steps)

    sign = 1
    prev = one
    for k in range(0, m, 2):
        row_k = M[k]
        piv = next((j for j in range(k + 1, m) if row_k[j]), -1)
        if piv < 0:
            return A.zero()
        if piv != k + 1:
            for row in M:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            M[k + 1], M[piv] = M[piv], M[k + 1]
            sign = -sign
            leading = None
        row_k1 = M[k + 1]
        p = row_k[k + 1]
        if leading is not None:
            leading.append(unscaled(p, k // 2 + 1))
        for i in range(k + 2, m):
            row_i = M[i]
            ci = row_k[i]
            di = row_k1[i]
            for j in range(i + 1, m):
                v = exact_quotient(p * row_i[j] - ci * row_k1[j] + row_k[j] * di, prev)
                row_i[j] = v
                M[j][i] = -v
        prev = p
    return unscaled(prev if sign > 0 else -prev, m // 2)


def pf_laplace(A: SkewMatrix) -> Entry:
    """Expansion along the last column: Pf A = sum_k (-1)^(k-1) a(k, 2n) Pf A(k, 2n).

    Sub-Pfaffians are memoized on the surviving index set, so the cost is one
    term per (subset, element) pair rather than a double factorial; the
    exponential growth is guarded.
    """
    if A.dim > LAPLACE_DIMENSION_LIMIT:
        raise ValueError(
            f"pf_laplace dimension guard: dim {A.dim} exceeds limit "
            f"{LAPLACE_DIMENSION_LIMIT}"
        )
    one = A.zero() + 1
    memo = {(): one}

    def rec(indices: tuple) -> Entry:
        if indices in memo:
            return memo[indices]
        last = indices[-1]
        total = A.zero()
        sign = 1
        for pos in range(len(indices) - 1):
            k = indices[pos]
            v = A.entry(k, last)
            if v:
                rest = indices[:pos] + indices[pos + 1 : -1]
                term = v * rec(rest)
                total = total + (term if sign > 0 else -term)
            sign = -sign
        memo[indices] = total
        return total

    return rec(tuple(range(1, A.dim + 1)))


def pf_minor(A: SkewMatrix, removed: Iterable[int]) -> Entry:
    """Pfaffian of the submatrix with the listed rows/columns removed."""
    return pf_eliminate(A.submatrix_removing(removed))


def gamma(A: SkewMatrix, i: int, j: int) -> Entry:
    """Signed sub-Pfaffian cofactor: zero on the diagonal, and for i != j the
    Pfaffian of A with rows/columns {i, j} removed, weighted by (-1)^(j-i-1)
    for i < j and antisymmetrized for i > j."""
    if i == j:
        return A.zero()
    if i < j:
        v = pf_minor(A, (i, j))
        return v if (j - i - 1) % 2 == 0 else -v
    v = gamma(A, j, i)
    return -v


def cofactor_vector(A: SkewMatrix) -> Tuple[List[Entry], Entry]:
    """The normalized last-column cofactor vector c of length dim-1, as
    (numerators, denominator): c = numerators / denominator.

    Defined by the linear system: sum_i c_i a(i, j) = 0 for every j < dim,
    with the normalization c_{dim-1} = 1.  The denominator is 1 for a rational
    matrix and the last Bareiss pivot of the solve over Q[x].  Raises
    SingularCofactorSystem when that system has no unique solution
    (equivalently, the normalizing sub-Pfaffian vanishes).
    """
    m = A.dim
    if m < 2:
        raise ValueError("cofactor vector needs dim >= 2")
    zero = A.zero()
    one = zero + 1
    rows = []
    rhs = []
    for j in range(1, m):
        rows.append([A.entry(i, j) for i in range(1, m)])
        rhs.append(zero)
    rows.append([one if i == m - 1 else zero for i in range(1, m)])
    rhs.append(one)
    sol = solve_linear(rows, rhs)
    if sol is None or not sol.unique:
        raise SingularCofactorSystem(m, "no unique normalized solution")
    return list(sol.vector), sol.denominator


def cofactor_vector_via_minors(A: SkewMatrix) -> Tuple[List[Entry], Entry]:
    """Independent route: c_i = gamma(i, dim) / gamma(dim-1, dim), as
    ([gamma(i, dim)], gamma(dim-1, dim))."""
    m = A.dim
    denom = gamma(A, m - 1, m)
    if not denom:
        raise SingularCofactorSystem(m, "normalizing sub-Pfaffian is zero")
    return [gamma(A, i, m) for i in range(1, m)], denom
