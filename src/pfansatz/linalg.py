"""Exact linear algebra over Q and over Q[x].

A matrix is a sequence of rows, lists or tuples, which every operation
copies before it eliminates.

Rational systems are solved fraction-free: rows are scaled to integers, the
elimination uses cross-multiplication updates with per-row content removal,
and pivots are chosen by minimal bit size to slow coefficient growth.  Back
substitution keeps int numerators over one common denominator.

Polynomial systems and determinants go through one fraction-free
Bareiss row echelon (`_bareiss`, over Z or Q[x]; Bareiss 1968): after k
pivot steps every trailing entry is a (k+1)-minor of the input, so the
division by the previous pivot is exact, and it is checked.  A polynomial
solve back-substitutes y = D x, D the last pivot, in Q[x] and returns the
numerators y over the one denominator D, undivided.

Rational solves and `nullspace`'s exact fallback keep their own kernel,
`_int_echelon`, beside `_bareiss`: its per-row content removal keeps entries
smaller than Bareiss's exact minors.  With rational solves sent through
`_bareiss`, reports stayed byte-identical and `certify` was slower
(2-vCPU host, Python 3.11.7, two runs each): narayana:x=3/7 --n-max 30
2.8-3.1 s to 22-23 s, schroeder --n-max 30 1.0-1.3 s to 1.4-1.5 s.

`nullspace` first works modulo the one prime p = 2^63 - 25 (the modular
method of Kauers, *The Guessing Handbook*, RISC 09-07, 2009): it echelons the
integer rows mod p, back-solves one vector per free column f (1 at f, zero
on the other free columns), and rational-reconstructs every entry.  On the
115x90 c-guess matrix of `certify motzkin --n-max 30`, `_int_echelon`'s
entries grow to 436 bits while the kernel entries have at most 10, so the
work mod p avoids that growth.  Each pending row is one nonnegative packed
int, a slot of w bits per column, w the bit length of (rows + 1) * p^2
rounded up to whole bytes: a slot starts below p and each of at most
rows - 1 updates adds c * b with c, b < p, so it stays below (rows + 1) * p^2
and never carries into the next.  A column is read as (row & mask) % p, the
update is (row >> w) + c * tail for the packed pivot tail, and only pivot
rows are unpacked.  The basis is returned only after every vector
annihilates every integer row exactly, one packed sum per row: the vectors
are packed column by column in balanced s-bit slots, vector k in slot k,
with 2^(s-1) > max_row sum|a| * max|v| >= |each dot product|, so the sum
is zero exactly when every dot product is (the lowest nonzero one would
leave a nonzero remainder mod 2^s).  That check proves the basis equal to
the exact one:
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
`_int_echelon` path (the kernel of rational `solve_linear`)
computes the basis.  One prime is enough: entries too large for p are too
large for any prime of its size, and a prime that divides a pivot of the
exact echelon (unlikely at 63 bits) costs only the exact path.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, prod
from operator import mul
from typing import List, Optional, Sequence, Union

from .poly import (
    Polynomial,
    common_variables,
    over_common_denominator,
    polynomial_over,
)


class LinearSolution:
    """x = vector / denominator: the denominator is 1 for a rational system
    and the last Bareiss pivot for a system over Q[x]."""

    __slots__ = ("vector", "unique", "denominator")

    def __init__(self, vector: tuple, unique: bool, denominator: Union[int, Polynomial]):
        self.vector = vector
        self.unique = unique
        self.denominator = denominator

    def __eq__(self, other):
        if not isinstance(other, LinearSolution):
            return NotImplemented
        return ((self.vector, self.unique, self.denominator)
                == (other.vector, other.unique, other.denominator))

    __hash__ = None


def _coerce_rows(matrix) -> list:
    return [list(r) for r in matrix]


def _all_rational(rows) -> bool:
    return all(issubclass(t, (int, Fraction)) for t in set(map(type, chain.from_iterable(rows))))


# ---------------------------------------------------------------------------
# integer fraction-free kernel


def _int_rows(rows: list) -> list:
    """Scale each row to integers and strip its gcd.  Equations are
    homogeneous in this scaling, so solutions are unchanged."""
    return [_strip_content(over_common_denominator(r)[0]) for r in rows]


def _strip_content(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


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
    the exact check against every row (see the module docstring)."""
    # echelon mod p on packed rows: a pending row is one int whose nb-byte
    # slots hold its columns from `col` on, lowest first, reduced mod p only
    # where read; a pivot row is unpacked, scaled to pivot 1 and keeps its
    # columns from its pivot on
    nb = ((len(rows) + 1) * p * p).bit_length() + 7 >> 3
    w = 8 * nb
    mask = (1 << w) - 1
    pending = [_pack([a % p for a in r], nb) for r in rows]
    pivots = []  # (pivot column, trailing row)
    for col in range(ncols):
        k = next((i for i, r in enumerate(pending) if (r & mask) % p), -1)
        if k < 0:
            pending = [r >> w for r in pending]
            continue
        head = pending.pop(k)
        inv = pow((head & mask) % p, -1, p)
        head = head.to_bytes(nb * (ncols - col), "little")
        head = [int.from_bytes(head[j:j + nb], "little") * inv % p
                for j in range(0, len(head), nb)]
        pivots.append((col, head))
        tail = _pack(head[1:], nb)
        pending = [(r >> w) + (p - c) * tail if (c := (r & mask) % p) else r >> w
                   for r in pending]
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        x = [0] * (free + 1)  # the values mod p on columns up to f
        x[free] = 1
        for col, row in reversed(pivots):
            if col < free:
                x[col] = -sum(map(mul, row, x[col:])) % p
        vec = [0] * ncols
        for c, v in enumerate(x):
            if v:
                vec[c] = _rational_reconstruction(v, p)
                if vec[c] is None:
                    return None
        basis.append(over_common_denominator(vec)[0])
    return basis if _annihilates(rows, basis) else None


def _annihilates(rows: list, basis: List[list]) -> bool:
    """True iff every int vector of `basis` annihilates every int row, by
    one sum per row against the vectors' packed columns."""
    if not basis:
        return True
    packed = _packed_columns(basis, max(sum(map(abs, r)) for r in rows))
    return not any(sum(map(mul, r, packed)) for r in rows)


def _packed_columns(vectors: Sequence[Sequence[int]], weight: int) -> List[int]:
    """The int vectors packed column by column, vector k in the k-th of
    balanced s-bit slots with 2^(s-1) > weight * max|v|.  For a row a with
    sum|a| <= weight, sum(a[c] * column c) holds each vector's dot product
    with a in its slot, none of which can fill it, so the sum is zero
    exactly when every dot product is."""
    s = (weight * max(abs(v) for vec in vectors for v in vec)).bit_length() + 1
    return [sum(c << (s * k) for k, c in enumerate(column)) for column in zip(*vectors)]


def _pack(entries: list, nb: int) -> int:
    """The nonnegative entries, each below 2^(8 nb), as the nb-byte slots of
    one int, the first entry lowest."""
    return int.from_bytes(b"".join([a.to_bytes(nb, "little") for a in entries]), "little")


# ---------------------------------------------------------------------------
# Bareiss kernel (int or polynomial entries)


def _bareiss(m: list, ncols: int) -> tuple:
    """In-place fraction-free row echelon of an int or Polynomial matrix over
    its first `ncols` columns; returns ([(row_index, pivot_col)], sign of
    the row swaps).  A column without a nonzero entry at or below the
    current row is skipped.  Each step replaces every entry right of the
    pivot p in the rows below by (p * a - q * b) / p', p' the previous pivot
    (no division at the first step), and the entries below p by zeros.  The
    matrix holds one of the two entry types; both are falsy exactly when
    zero and both divide by `divmod`, so the division is checked the same
    way: a remainder raises ArithmeticError."""
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
                if prev is not None:
                    v, rem = divmod(v, prev)
                    if rem:
                        raise ArithmeticError("inexact division by the previous pivot")
                row_i[j] = v
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
        y[col], rem = divmod(total, row[col])
        if rem:
            raise ArithmeticError("inexact division by a pivot")
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


def determinant(matrix):
    """Exact determinant by Bareiss elimination, a Fraction for rational
    entries and a Polynomial for polynomial ones: over Z as it is for int
    entries, over Z after clearing denominators for rational entries, over
    Q[x] for polynomial entries."""
    rows = _coerce_rows(matrix)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if set(map(type, chain.from_iterable(rows))) == {int}:
        return Fraction(_bareiss_det(rows))
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
