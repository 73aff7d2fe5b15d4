"""Combinatorial sequences, terminating hypergeometric sums, and the skew
matrix families built from them.

Sequence generators return exact values (Fraction, or Polynomial for the
variable-weighted case) and treat negative indices as 0, which makes the
moments below total functions.  Memo caches hold immutable values, or
`PRecursive` evaluators that rebind theirs as one tuple, so concurrent
readers are safe.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Union

from .poly import Polynomial, format_rational, parse_rational

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


class PRecursive:
    """The sequence of a recurrence: initial values a(0), a(1), ..., and a step
    giving a(n) from n and the list a(0..n-1).  Values grow by a loop, never
    by recursion, into one tuple; a(n) for n < 0 is the zero of the domain."""

    def __init__(self, initial: tuple, step: Callable[[int, list], Entry]):
        self._values = tuple(initial)
        self._step = step

    def __call__(self, n: int) -> Entry:
        values = self._values
        if n < 0:
            return Fraction(0) * values[0]
        if n >= len(values):
            grown = list(values)
            while len(grown) <= n:
                grown.append(self._step(len(grown), grown))
            self._values = values = tuple(grown)
        return values[n]


_MOTZKIN = PRecursive((Fraction(1), Fraction(1)),
                      lambda n, M: ((2 * n + 1) * M[n - 1] + 3 * (n - 1) * M[n - 2]) / (n + 2))
_DELANNOY = PRecursive((Fraction(1), Fraction(3)),
                       lambda n, D: (3 * (2 * n - 1) * D[n - 1] - (n - 1) * D[n - 2]) / n)
_SCHROEDER = PRecursive((Fraction(1), Fraction(2)),
                        lambda n, S: (3 * (2 * n - 1) * S[n - 1] - (n - 2) * S[n - 2]) / (n + 1))


def motzkin(n: int) -> Fraction:
    """(n+2) M(n) = (2n+1) M(n-1) + 3(n-1) M(n-2), M(0) = M(1) = 1; 0 for n < 0."""
    return _MOTZKIN(n)


def delannoy(n: int) -> Fraction:
    """Central values: n D(n) = 3(2n-1) D(n-1) - (n-1) D(n-2), D(0) = 1,
    D(1) = 3; 0 for n < 0."""
    return _DELANNOY(n)


def schroeder(n: int) -> Fraction:
    """(n+1) S(n) = 3(2n-1) S(n-1) - (n-2) S(n-2), S(0) = 1, S(1) = 2; 0 for n < 0."""
    return _SCHROEDER(n)


def _narayana_at(x: Entry) -> PRecursive:
    """The weight-enumerator sequence N at x, a rational or the variable x."""
    rise, fall = 1 + x, (1 - x) ** 2
    return PRecursive(
        (x ** 0, x),  # x ** 0 is the one of x's domain
        lambda n, N: ((2 * n - 1) * rise * N[n - 1] - (n - 2) * fall * N[n - 2]) / (n + 1),
    )


_NARAYANA = _narayana_at(Polynomial.variable("x"))
_narayana_at_rational = functools.lru_cache(maxsize=None)(_narayana_at)


def narayana(n: int) -> Polynomial:
    """Weight-enumerator polynomial sum_k C(n,k) C(n,k-1) x^k / n, computed by
    (n+1) N(n) = (2n-1)(1+x) N(n-1) - (n-2)(1-x)^2 N(n-2), N(0) = 1, N(1) = x;
    zero polynomial for n < 0."""
    return _NARAYANA(n)


def narayana_value(n: int, x: Fraction) -> Fraction:
    """The same recurrence at a rational x."""
    return _narayana_at_rational(Fraction(x))(n)


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

    Odd columns j = 2k-1 count paths from height 0 to height k-1 in i-1 steps,
    by reflection T(i-1, i+k-2) - T(i-1, i+k), with T the trinomial
    coefficient; even columns j = 2k carry the companion weighted count
    k * T(i-1, i+k-1).
    """
    if i < 1 or j < 1:
        return Fraction(0)
    k = (j + 1) // 2
    if j % 2:
        return Fraction(trinomial_coefficient(i - 1, i + k - 2)
                        - trinomial_coefficient(i - 1, i + k))
    return Fraction(k * trinomial_coefficient(i - 1, i + k - 1))


def motzkin_column(k: int, i: int) -> Fraction:
    """Odd-column slice of the triangle: paths ending at height k-1 after i-1
    steps.  k = 1 recovers motzkin(i - 1)."""
    return motzkin_triangle(i, 2 * k - 1)


# ---------------------------------------------------------------------------
# skew matrix families


class MatrixFamily:
    """The skew-symmetric matrices a(i, j) = (j - i) * moment(i + j) of every
    even dimension, 1-based, named by a descriptor.  The moments are
    Fractions, or Polynomials in x for a symbolic family."""

    __slots__ = ("name", "descriptor", "moment", "x")

    def __init__(self, name: str, descriptor: str, moment: Callable[[int], Entry],
                 x: Optional[Fraction] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "moment", moment)
        object.__setattr__(self, "x", x)

    def __setattr__(self, *a):
        raise AttributeError("MatrixFamily is immutable")

    @property
    def symbolic(self) -> bool:
        return isinstance(self.moment(0), Polynomial)

    def __repr__(self):
        return f"MatrixFamily({self.descriptor!r})"


# the families without a parameter: name -> (sequence, offset), mu(s) = sequence(s - offset)
PLAIN_SEQUENCES = {"motzkin": (motzkin, 3), "delannoy": (delannoy, 3), "schroeder": (schroeder, 2)}

# The families with a built-in closed form, the names `pipeline.closed_form_for` knows.
CLOSED_FORM_NAMES = ("delannoy", "motzkin", "narayana", "schroeder")


def family_from_descriptor(descriptor: str) -> MatrixFamily:
    """Build a family from a descriptor string.

    Supported: "motzkin", "delannoy", "schroeder",
    "narayana:x=<rational or sym>", "genmotzkin:k=<int>",
    "genmotzkin-sum:k=<int>".
    """
    name, _, arg = descriptor.partition(":")
    name = name.strip()
    arg = arg.strip()
    if name in PLAIN_SEQUENCES:
        if arg:
            raise ValueError(f"{name} takes no parameter, got {arg!r}")
        sequence, offset = PLAIN_SEQUENCES[name]
        return MatrixFamily(name, descriptor, lambda s: sequence(s - offset))
    if name == "narayana":
        key, _, value = arg.partition("=")
        if key.strip() != "x" or not value:
            raise ValueError(f"narayana needs x=<rational|sym>, got {arg!r}")
        value = value.strip()
        if value == "sym":
            return MatrixFamily("narayana", "narayana:x=sym", lambda s: narayana(s - 2))
        x = parse_rational(value)
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

