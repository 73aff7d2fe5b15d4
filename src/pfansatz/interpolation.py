"""Cofactor rows of a family whose moments are polynomials in one variable
x, interpolated from its rational rows at x = 1, 2, ...

The moments are evaluated once at each point and shared by every row.
Row n at x = v is the solution of the rational system that
`pfaffian.cofactor_vector` solves over Q[x], by `solve_linear`; a v where
that system has no unique solution is skipped.  Each entry is interpolated
in Newton form, one point at a time, and the row stops at the first point
where every interpolant already agrees with the solution (early
termination; von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 5).  A normalized entry that is a polynomial is a quotient y/D of two
maximal minors of the system, so its degree is at most the sum of the
largest degree in each equation; that sum plus 2 caps the points tried,
skipped ones included.  An entry that is no polynomial never stops, so its
row reaches the cap.  Nothing here proves a row: `pipeline.c_table` keeps
it only by its contraction, `check_identity2`, with which this module
shares no code.

The module is loaded by `c_table` only for such a family, so no other job
compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, Optional

from .linalg import solve_linear
from .poly import Entry, Polynomial, common_variables, over_common_denominator, polynomial_over


class PointRows:
    """The cofactor rows of one family, from its moments up to the largest
    index a row reads; the moments' values at each point are kept for
    every row."""

    __slots__ = ("variables", "degrees", "forms", "values")

    def __init__(self, moments: List[Entry]):
        self.variables = common_variables(moments)
        moments = [polynomial_over(m, self.variables) for m in moments]
        self.degrees = [max(m.total_degree(), 0) for m in moments]
        # the equations other than the normalization are homogeneous, so the
        # moments may be scaled by one denominator, to (exponent, int) forms
        ints, _ = over_common_denominator([c for m in moments for c in m.terms.values()])
        coefficients = iter(ints)
        self.forms = [[(e, next(coefficients)) for e, in m.terms] for m in moments]
        self.values: List[List[int]] = []  # values[v - 1]: the scaled moments at x = v

    def at(self, v: int) -> List[int]:
        """The scaled moments at x = v."""
        while len(self.values) < v:
            u = len(self.values) + 1
            powers = [1]
            for _ in range(max(self.degrees, default=0)):
                powers.append(powers[-1] * u)
            self.values.append([sum(c * powers[e] for e, c in form) for form in self.forms])
        return self.values[v - 1]

    def cap(self, n: int) -> int:
        """The most points row n may take."""
        size = 2 * n - 1
        return 2 + sum(max((self.degrees[i + j] for i in range(1, size + 1) if i != j), default=0)
                       for j in range(1, size + 1))

    def row(self, n: int) -> Optional[List[Polynomial]]:
        """Row n's entries c(n, 1), .., c(n, 2n-1) as Polynomials, or None
        when the cap is reached first.

        The divided differences are kept as int vectors, one per point, over
        one denominator `scale` that every entry and point shares."""
        size = 2 * n - 1
        normalization = [0] * (size - 1) + [1]  # c(n, 2n-1) = 1
        rhs = [0] * size + [1]
        points: List[int] = []
        newton: List[List[int]] = []
        scale = 1
        for v in range(1, self.cap(n) + 1):
            m = self.at(v)
            system = [[(j - i) * m[i + j] for i in range(1, size + 1)] for j in range(1, size + 1)]
            system.append(normalization)
            solution = solve_linear(system, rhs)
            if solution is None or not solution.unique:
                continue
            values, den = over_common_denominator(solution.vector)
            steps = [v - u for u in reversed(points)]
            interpolated = [0] * size  # the interpolants at v times scale, by Horner
            for step, a in zip(steps, reversed(newton)):
                interpolated = [p * step + c for p, c in zip(interpolated, a)]
            misses = [y * scale - p * den for y, p in zip(values, interpolated)]
            if points and not any(misses):
                return [self.polynomial(points, column, scale) for column in zip(*newton)]
            # the next divided differences: misses / (den * scale * prod(steps))
            d = den * scale * prod(steps)
            g = gcd(d, *misses)
            d //= g
            grown = lcm(scale, d)
            if grown != scale:
                newton = [[c * (grown // scale) for c in a] for a in newton]
            newton.append([miss // g * (grown // d) for miss in misses])
            scale = grown
            points.append(v)
        return None

    def polynomial(self, points: List[int], newton: tuple, scale: int) -> Polynomial:
        """The Newton form through `points` with divided differences
        `newton` over `scale`, in the monomial basis."""
        coefficients: List[int] = []  # ascending in x
        for u, c in zip(reversed(points), reversed(newton)):
            # times (x - u), plus c
            coefficients = [a - u * b for a, b in zip([0, *coefficients], [*coefficients, 0])]
            coefficients[0] += c
        return Polynomial(self.variables,
                          {(e,): Fraction(c, scale) for e, c in enumerate(coefficients) if c})
