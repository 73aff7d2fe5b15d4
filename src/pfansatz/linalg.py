"""Exact linear algebra over Q and over Q[x].

Rational systems are solved fraction-free: rows are scaled to integers, the
elimination uses cross-multiplication updates with per-row content removal,
and pivots are chosen by minimal bit size to slow coefficient growth.  Back
substitution keeps int numerators over one common denominator.

Polynomial systems, ranks and determinants go through one fraction-free
Bareiss row echelon (`_bareiss`, over Z or Q[x]; Bareiss 1968): after k
pivot steps every trailing entry is a (k+1)-minor of the input, so the
division by the previous pivot is exact, and it is checked.  A polynomial
solve back-substitutes y = D x, D the last pivot, in Q[x] and returns the
numerators y over the one denominator D, undivided.

Rational solves, ranks and `nullspace`'s exact fallback keep their own
kernel, `_int_echelon`, beside `_bareiss`: its per-row content removal keeps
entries smaller than Bareiss's exact minors.  With rational solves and ranks
sent through `_bareiss`, reports stayed byte-identical and `certify` was
0-20% slower (2-vCPU host, Python 3.11.7, one process per run): motzkin
--n-max 30 1.84-1.94 s to 2.00-2.03 s, narayana:x=3/7 --n-max 14 0.44-0.45 s
to 0.49-0.55 s, delannoy --n-max 14 0.30-0.31 s to 0.30-0.36 s.

`nullspace` first works modulo the one prime p = 2^63 - 25 (the modular
method of Kauers, *The Guessing Handbook*, RISC 09-07, 2009): it echelons the
integer rows mod p, back-solves one vector per free column f (1 at f, zero
on the other free columns), and rational-reconstructs every entry.  On the
115x90 c-guess matrix of `certify motzkin --n-max 30`, `_int_echelon`'s
entries grow to 436 bits while the kernel entries have at most 10, so the
work mod p avoids that growth.  The
basis is returned only after every vector annihilates every integer row
exactly, and that check proves it equal to the exact one:
  - the rank mod p is at most the rank r over Q, so the n - r_p verified
    vectors, independent by their 1s on distinct free columns, are at least
    n - r kernel vectors; hence r_p = r and they span the kernel;
  - the vector of free column f is nonzero only on f and on pivot columns
    before f, so column f depends on earlier columns over Q: every free
    column mod p is a free column over Q, and as the counts agree the two
    pivot sets are equal;
  - the kernel vector with 1 at f and support on f and the earlier pivot
    columns is unique, so after `_normalize_vector` each vector equals the
    one the exact back-substitution gives.
When an entry does not reconstruct or a vector fails the check, the exact
`_int_echelon` path (the kernel of `solve_linear` and `matrix_rank`)
computes the basis.  One prime is enough: entries too large for p are too
large for any prime of its size, and a prime that divides a pivot of the
exact echelon (unlikely at 63 bits) costs only the exact path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import List, Optional, Sequence, Union

from .poly import (
    Polynomial,
    common_variables,
    exact_quotient,
    over_common_denominator,
    polynomial_over,
)


class ExactMatrix:
    """Immutable dense matrix; entries are Fractions or Polynomials (0-indexed
    storage)."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("ExactMatrix is immutable")

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries))) if self.rows else ExactMatrix(())

    def column_submatrix(self, cols: Sequence[int]) -> "ExactMatrix":
        """Select the given columns (0-indexed), keeping their order."""
        return ExactMatrix(tuple(tuple(r[c] for c in cols) for r in self.entries))

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose()
        out = []
        for r in self.entries:
            out.append(tuple(sum(a * b for a, b in zip(r, c)) for c in ot.entries))
        return ExactMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class LinearSolution:
    """x = vector / denominator: the denominator is 1 for a rational system
    and the last Bareiss pivot for a system over Q[x]."""

    vector: tuple
    unique: bool
    denominator: Union[int, Polynomial]


def _coerce_rows(matrix) -> list:
    if isinstance(matrix, ExactMatrix):
        return [list(r) for r in matrix.entries]
    return [list(r) for r in matrix]


def _all_rational(rows) -> bool:
    return all(isinstance(x, (int, Fraction)) for r in rows for x in r)


# ---------------------------------------------------------------------------
# integer fraction-free kernel


def _int_rows(rows: list) -> list:
    """Scale each row to integers and strip its gcd.  Equations are
    homogeneous in this scaling, so solutions are unchanged."""
    return [_strip_content(over_common_denominator(r)[0]) for r in rows]


def _strip_content(row: list) -> list:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row
    if g > 1:
        return [x // g for x in row]
    return row


def _int_echelon(rows: list, ncols: int) -> list:
    """In-place fraction-free row echelon; returns [(row_index, pivot_col)].

    Pivot choice: among candidate rows, the nonzero entry of minimal bit size.
    """
    pivots = []
    r = 0
    for col in range(ncols):
        best = -1
        best_bits = None
        for i in range(r, len(rows)):
            v = rows[i][col]
            if v:
                bits = abs(v).bit_length()
                if best_bits is None or bits < best_bits:
                    best, best_bits = i, bits
                    if bits <= 1:
                        break
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            q = rows[i][col]
            if q:
                ri, rr = rows[i], rows[r]
                rows[i] = _strip_content([p * a - q * b for a, b in zip(ri, rr)])
        pivots.append((r, col))
        r += 1
    return pivots


def _back_substitute(rows, pivots, ncols, assign) -> list:
    """Solve the echelon system given int values `assign` for some free
    columns (the other free columns are 0).  The unknowns are kept as int
    numerators over one common denominator, which grows by |p| / gcd(total, p)
    only when a pivot p does not divide its row's total; the Fractions are
    built once, at the end."""
    num = [0] * ncols
    for col, val in assign.items():
        num[col] = val
    den = 1
    for r, col in reversed(pivots):
        row = rows[r]
        total = 0
        for c in range(col + 1, ncols):
            a = row[c]
            if a and num[c]:
                total += a * num[c]
        p = row[col]
        if total % p:
            step = abs(p) // gcd(total, p)
            num = [v * step for v in num]
            den *= step
            total *= step
        num[col] = -total // p
    return [Fraction(v, den) for v in num]


def _normalize_vector(vec: Sequence[Fraction]) -> tuple:
    """Scale a nonzero vector to int entries with content 1 and first nonzero
    entry positive."""
    ints, _ = over_common_denominator(vec)
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# modular kernel with exact verification

# the largest prime below 2^63
_PRIME = 2**63 - 25


def _rational_reconstruction(a: int, p: int) -> Optional[Fraction]:
    """The fraction r/s with |r|, s <= sqrt(p/2) and r == a*s mod p, or None
    (Wang's extended-Euclid reconstruction; the bound makes it unique)."""
    bound = isqrt(p // 2)
    r0, r1 = p, a % p
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _modular_kernel(rows: list, ncols: int, p: int) -> Optional[List[list]]:
    """A kernel basis of the int `rows` found mod p, as lists of ints with one
    vector per free column f (1 at f, nonzero otherwise only on pivot columns
    before f), or None when an entry does not reconstruct or a vector fails
    the exact check against every row."""
    # echelon mod p; a pending row keeps only its columns from `col` on, and
    # a pivot row, scaled to pivot 1, its columns from its pivot on.  Pending
    # entries are reduced mod p only where read: each update adds c * b with
    # c, b < p, so they stay below rank * p^2.
    pending = [[a % p for a in r] for r in rows]
    pivots = []  # (pivot column, trailing row)
    for col in range(ncols):
        k = next((i for i, r in enumerate(pending) if r[0] % p), -1)
        if k < 0:
            pending = [r[1:] for r in pending]
            continue
        head = pending.pop(k)
        inv = pow(head[0], -1, p)
        head = [a * inv % p for a in head]
        pivots.append((col, head))
        tail = head[1:]
        updated = []
        for r in pending:
            c = p - r[0] % p
            updated.append([a + c * b for a, b in zip(r[1:], tail)] if c != p else r[1:])
        pending = updated
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        x = {free: 1}  # the values mod p, nonzero entries only
        for col, row in reversed(pivots):
            if col < free:
                v = -sum(row[c - col] * x[c] for c in x) % p
                if v:
                    x[col] = v
        vec = [0] * ncols
        for c, v in x.items():
            vec[c] = _rational_reconstruction(v, p)
            if vec[c] is None:
                return None
        vec = over_common_denominator(vec)[0]
        if any(sum(r[c] * vec[c] for c in x) for r in rows):
            return None
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Bareiss kernel (int or polynomial entries)


def _bareiss(m: list, ncols: int) -> tuple:
    """In-place fraction-free row echelon of an int or Polynomial matrix over
    its first `ncols` columns; returns ([(row_index, pivot_col)], sign of
    the row swaps).  A column without a nonzero entry at or below the
    current row is skipped.  Each step replaces every entry right of the
    pivot p in the rows below by (p * a - q * b) / p', p' the previous pivot
    (no division at the first step), through the checked `exact_quotient`,
    and the entries below p by zeros.  Both entry types are falsy exactly
    when zero."""
    pivots = []
    sign = 1
    prev = None
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        best = next((i for i in range(r, len(m)) if m[i][col]), -1)
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            sign = -sign
        row_r = m[r]
        p = row_r[col]
        zero = p * 0
        for i in range(r + 1, len(m)):
            row_i = m[i]
            q = row_i[col]
            for j in range(col + 1, ncols):
                a = row_i[j]
                b = row_r[j]
                if q and b:
                    v = p * a - q * b
                elif a:
                    v = p * a
                else:
                    continue
                row_i[j] = v if prev is None else exact_quotient(v, prev)
            row_i[col] = zero
        pivots.append((r, col))
        prev = p
        r += 1
    return pivots, sign


def _polynomial_rows(rows: list) -> tuple:
    """The entries as Polynomials over their common variables, and that tuple."""
    variables = common_variables(x for r in rows for x in r)
    return [[polynomial_over(x, variables) for x in r] for r in rows], variables


# ---------------------------------------------------------------------------
# public operations


def solve_linear(matrix, rhs) -> Optional[LinearSolution]:
    """Exact solution of A x = b, or None if inconsistent.

    Free unknowns (if any) are set to 0 in the returned vector and
    `unique=False`.  Over Q the vector is x itself (denominator 1); over Q[x]
    it is the polynomial y = D x, D the last Bareiss pivot.
    """
    rows = _coerce_rows(matrix)
    rhs = list(rhs)
    if len(rhs) != len(rows):
        raise ValueError(f"rhs length {len(rhs)} != {len(rows)} rows")
    if not rows:
        return LinearSolution((), True, 1)
    n = len(rows[0])
    aug = [r + [rhs[i]] for i, r in enumerate(rows)]
    if _all_rational(aug):
        work = _int_rows(aug)
        pivots = _int_echelon(work, n + 1)
        if any(col == n for _, col in pivots):
            return None
        assign = {n: -1}  # A x - b = 0 form; free unknowns stay 0
        x = _back_substitute(work, pivots, n + 1, assign)
        return LinearSolution(tuple(x[:n]), len(pivots) == n, 1)
    m, variables = _polynomial_rows(aug)
    pivots, _ = _bareiss(m, n + 1)
    if any(col == n for _, col in pivots):
        return None
    # free unknowns are 0; pivot row r reads p_r y_col + sum_c a_rc y_c = D b_r
    # with y = D x, and y_col, a Cramer minor, is a polynomial
    d = m[pivots[-1][0]][pivots[-1][1]] if pivots else Polynomial.constant(1, variables)
    zero = Polynomial.zero(variables)
    y = [zero] * n
    for r, col in reversed(pivots):
        row = m[r]
        total = d * row[n]
        for c in range(col + 1, n):
            if row[c] and y[c]:
                total = total - row[c] * y[c]
        y[col] = exact_quotient(total, row[col])
    return LinearSolution(tuple(y), len(pivots) == n, d)


def nullspace(matrix) -> List[tuple]:
    """Basis of the right kernel; each vector has integer entries with content 1
    and first nonzero entry positive.  Rational entries only.

    The basis is found modulo a prime and accepted only once every vector
    annihilates every integer row exactly (see the module docstring); else
    `_int_echelon` computes it exactly."""
    rows = _coerce_rows(matrix)
    if not rows:
        return []
    n = len(rows[0])
    if not _all_rational(rows):
        raise ValueError("nullspace supports rational entries only")
    work = _int_rows(rows)
    basis = _modular_kernel(work, n, _PRIME)
    if basis is not None:
        return [_normalize_vector(v) for v in basis]
    pivots = _int_echelon(work, n)
    pivot_cols = {col for _, col in pivots}
    return [
        _normalize_vector(_back_substitute(work, pivots, n, {free: 1}))
        for free in range(n)
        if free not in pivot_cols
    ]


def matrix_rank(matrix) -> int:
    rows = _coerce_rows(matrix)
    if not rows:
        return 0
    if _all_rational(rows):
        work = _int_rows(rows)
        return len(_int_echelon(work, len(rows[0])))
    m, _ = _polynomial_rows(rows)
    return len(_bareiss(m, len(rows[0]))[0])


def determinant(matrix):
    """Exact determinant by Bareiss elimination: over Z after clearing
    denominators for rational entries, over Q[x] for polynomial entries."""
    rows = _coerce_rows(matrix)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if _all_rational(rows):
        forms = [over_common_denominator(r) for r in rows]
        return Fraction(_bareiss_det([ints for ints, _ in forms]), prod(den for _, den in forms))
    m, variables = _polynomial_rows(rows)
    return _bareiss_det(m) or Polynomial.zero(variables)


def _bareiss_det(m: list):
    """Determinant of a square int or Polynomial matrix: the signed last
    pivot of its Bareiss echelon, 0 when a column has no pivot."""
    pivots, sign = _bareiss(m, len(m))
    if len(pivots) < len(m):
        return 0
    det = m[-1][-1]
    return det if sign > 0 else -det
