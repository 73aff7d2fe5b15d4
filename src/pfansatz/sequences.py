"""Combinatorial sequences, terminating hypergeometric sums, and the skew
matrix families built from them.

Sequence generators return exact values (Fraction, or Polynomial for the
variable-weighted case) and treat negative indices as 0, which makes the
moments below total functions.  Memo caches hold immutable values only,
so concurrent readers are safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Union

from .poly import Polynomial, format_rational

Entry = Union[Fraction, Polynomial]


def hyp2f1_terminating(a: Fraction, b: Fraction, c: Fraction, z: Fraction) -> Fraction:
    """Gauss sum with a nonpositive-integer upper parameter.

    The summation runs to M = min over nonpositive-integer upper parameters
    of -that parameter.  Raises if neither upper parameter terminates the
    series, or if c hits a nonpositive integer inside the summation range
    (c = -M itself is harmless: the factor (c)_m never reaches it).
    """
    a, b, c, z = Fraction(a), Fraction(b), Fraction(c), Fraction(z)
    stops = [-p for p in (a, b) if p.denominator == 1 and p <= 0]
    if not stops:
        raise ValueError(f"series does not terminate: parameters {a}, {b}")
    m_top = int(min(stops))
    if c.denominator == 1 and 0 >= c > -m_top:
        raise ValueError(f"lower parameter {c} vanishes inside the summation range")
    total = Fraction(0)
    term = Fraction(1)  # (a)_m (b)_m / ((c)_m m!) z^m, built incrementally
    for m in range(m_top + 1):
        total += term
        term *= (a + m) * (b + m) * z
        term /= (c + m) * (m + 1)
    return total


@functools.lru_cache(maxsize=None)
def motzkin(n: int) -> Fraction:
    """sum_k C(n,2k) C(2k,k) / (k+1); 0 for n < 0."""
    if n < 0:
        return Fraction(0)
    return sum(
        (Fraction(comb(n, 2 * k) * comb(2 * k, k), k + 1) for k in range(n // 2 + 1)),
        Fraction(0),
    )


@functools.lru_cache(maxsize=None)
def delannoy(n: int) -> Fraction:
    """Central values sum_k C(n,k) C(n+k,k); 0 for n < 0."""
    if n < 0:
        return Fraction(0)
    return sum((Fraction(comb(n, k) * comb(n + k, k)) for k in range(n + 1)), Fraction(0))


_X = Polynomial.variable("x")


@functools.lru_cache(maxsize=None)
def narayana(n: int) -> Polynomial:
    """Weight-enumerator polynomial sum_k C(n,k) C(n,k-1) x^k / n, with the
    n = 0 value 1; zero polynomial for n < 0."""
    if n < 0:
        return Polynomial.zero(("x",))
    if n == 0:
        return Polynomial.constant(1, ("x",))
    terms = {}
    for k in range(1, n + 1):
        c = Fraction(comb(n, k) * comb(n, k - 1), n)
        if c:
            terms[(k,)] = c
    return Polynomial(("x",), terms)


@functools.lru_cache(maxsize=None)
def narayana_value(n: int, x: Fraction) -> Fraction:
    """Same sum evaluated directly at a rational x."""
    if n < 0:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    x = Fraction(x)
    total = Fraction(0)
    pw = Fraction(1)
    for k in range(1, n + 1):
        pw *= x
        total += Fraction(comb(n, k) * comb(n, k - 1), n) * pw
    return total


@functools.lru_cache(maxsize=None)
def schroeder(n: int) -> Fraction:
    """sum_k C(n+k,2k) C(2k,k) / (k+1); 0 for n < 0."""
    if n < 0:
        return Fraction(0)
    return sum(
        (Fraction(comb(n + k, 2 * k) * comb(2 * k, k), k + 1) for k in range(n + 1)),
        Fraction(0),
    )


def trinomial_coefficient(m: int, r: int) -> int:
    """[x^r] (1 + x + x^2)^m."""
    if m < 0 or r < 0 or r > 2 * m:
        return 0
    # sum over how many x^2 factors contribute
    return sum(comb(m, j) * comb(m - j, r - 2 * j) for j in range(min(m, r // 2) + 1))


@functools.lru_cache(maxsize=None)
def motzkin_triangle(i: int, j: int) -> Fraction:
    """Entry (i, j) of the Motzkin path triangle, 1-based; 0 outside the band
    j <= 2i - 1.

    Odd columns j = 2k-1 count paths from height 0 to height k-1 in i-1 steps;
    even columns carry the companion weighted count k * [x^(i+k-1)](1+x+x^2)^(i-1).
    Both are evaluated through terminating Gauss sums with a binomial prefactor;
    a zero prefactor short-circuits (the sum parameters may not terminate there).
    """
    if i < 1 or j < 1:
        return Fraction(0)
    if j % 2 == 1:
        k = (j + 1) // 2
        pre = comb(i - 1, k - 1) if k - 1 <= i - 1 else 0
        if not pre:
            return Fraction(0)
        return pre * hyp2f1_terminating(
            Fraction(k - i, 2), Fraction(k - i + 1, 2), Fraction(k + 1), Fraction(4)
        )
    k = j // 2
    pre = (i - 1) * comb(i - 2, k - 1) if 0 <= k - 1 <= i - 2 else 0
    if not pre:
        return Fraction(0)
    return pre * hyp2f1_terminating(
        Fraction(k - i + 1, 2), Fraction(k - i + 2, 2), Fraction(k + 1), Fraction(4)
    )


def motzkin_column(k: int, i: int) -> Fraction:
    """Odd-column slice of the triangle: paths ending at height k-1 after i-1
    steps.  k = 1 recovers motzkin(i - 1)."""
    return motzkin_triangle(i, 2 * k - 1)


# ---------------------------------------------------------------------------
# skew matrix families


@dataclass(frozen=True)
class MatrixFamily:
    """The skew-symmetric matrices a(i, j) = (j - i) * moment(i + j) of every
    even dimension, 1-based, named by a descriptor.  The moments are
    Fractions, or Polynomials in x for a symbolic family."""

    name: str
    descriptor: str
    moment: Callable[[int], Entry]
    x: Optional[Fraction] = None

    @property
    def symbolic(self) -> bool:
        return isinstance(self.moment(0), Polynomial)

    def __repr__(self):
        return f"MatrixFamily({self.descriptor!r})"


def family_from_descriptor(descriptor: str) -> MatrixFamily:
    """Build a family from a descriptor string.

    Supported: "motzkin", "delannoy", "schroeder",
    "narayana:x=<rational or sym>", "genmotzkin:k=<int>",
    "genmotzkin-sum:k=<int>".
    """
    name, _, arg = descriptor.partition(":")
    name = name.strip()
    arg = arg.strip()
    if name == "motzkin":
        if arg:
            raise ValueError(f"{name} takes no parameter, got {arg!r}")
        return MatrixFamily("motzkin", descriptor, lambda s: motzkin(s - 3))
    if name == "delannoy":
        if arg:
            raise ValueError(f"{name} takes no parameter, got {arg!r}")
        return MatrixFamily("delannoy", descriptor, lambda s: delannoy(s - 3))
    if name == "schroeder":
        if arg:
            raise ValueError(f"{name} takes no parameter, got {arg!r}")
        return MatrixFamily("schroeder", descriptor, lambda s: schroeder(s - 2))
    if name == "narayana":
        key, _, value = arg.partition("=")
        if key.strip() != "x" or not value:
            raise ValueError(f"narayana needs x=<rational|sym>, got {arg!r}")
        value = value.strip()
        if value == "sym":
            return MatrixFamily("narayana", "narayana:x=sym", lambda s: narayana(s - 2))
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad rational for x: {value!r}") from e
        return MatrixFamily("narayana", f"narayana:x={format_rational(x)}",
                            lambda s: narayana_value(s - 2, x), x=x)
    if name in ("genmotzkin", "genmotzkin-sum"):
        key, _, value = arg.partition("=")
        if key.strip() != "k" or not value:
            raise ValueError(f"{name} needs k=<positive int>, got {arg!r}")
        try:
            k = int(value.strip())
        except ValueError as e:
            raise ValueError(f"bad integer for k: {value!r}") from e
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if name == "genmotzkin":
            moment = lambda s: motzkin_column(k, s - 2)
        else:
            moment = lambda s: motzkin_column(k, s - 2) + motzkin_column(k, s - 1)
        return MatrixFamily(name, f"{name}:k={k}", moment)
    raise ValueError(f"unknown family descriptor {descriptor!r}")

