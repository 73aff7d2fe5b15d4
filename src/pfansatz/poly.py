"""Exact multivariate polynomials over Q.

A polynomial is an ordered tuple of variable names plus a map from exponent
vectors (one non-negative integer per variable) to nonzero coefficients.  A
coefficient is a plain int when it is integral and a Fraction with
denominator > 1 otherwise, so each value has one form and a product of
integer polynomials builds no Fraction.  No division meets two ints:
`_quotient` divides them by divmod, never to a float.  `constant_value`,
`univariate_coefficients` and `eval` still return Fractions.  Everything is
canonical on construction (zero coefficients dropped) and treated as
immutable: all operations build new objects, so values can be shared freely
between threads.  `Polynomial(...)` validates its input; arithmetic results,
canonical by construction, go through the unchecked `_trusted` instead.

Every exact entry (int, Fraction, Polynomial) is falsy exactly when it is
zero, and `Fraction(0) * x` is the zero of x's domain
(a Polynomial keeps its variables), so `Fraction(0) * x + 1` is its one.
For two ints or two Polynomials, `divmod(a, b)` returns (q, r), and r is
zero exactly when b divides a: the one exact division of the fraction-free
kernels.  `divmod` of a Polynomial by a scalar is a TypeError.

The text format is what `parse_poly` reads and `str()` writes: integer or
a/b coefficients, `*` for products, `^` or `**` for powers, terms printed in
graded-lexicographic order (largest first) with respect to the declared
variable order.  Round-tripping text -> value -> text is the identity on
canonical text.  A quotient of polynomials is kept as a (numerator,
denominator) pair and is printed, in lowest terms, by `quotient_text`.
The reader of that text, built on `ast`, is in `polytext`, which
`parse_poly` loads on its first call; the caps on polynomial text and the
`ParseBudget` are here, and so is `parse_entry`, which reads a literal
entry without it.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Entry = Union[Fraction, "Polynomial"]


class PolynomialError(ValueError):
    pass


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise PolynomialError(f"not an exact scalar: {x!r}")


# Cap on the decimal exponent of rational text such as "1e5000": Fraction
# builds 10^|exponent| before anything can check the value, and
# Fraction("1e1000000") alone takes 0.25 s, growing faster than linearly.
# It also caps the digits of each run of digits in the text.
RATIONAL_EXPONENT_LIMIT = 10_000
# Fraction's text forms, [sign] p/q and [sign] decimal [exponent]
_RATIONAL = re.compile(
    r"""\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<den>\d+(?:_\d+)*)
     |(?:\.(?P<dec>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*\Z""",
    re.VERBOSE)


def parse_rational(text: str) -> Fraction:
    """The value of rational text in Fraction's forms; a zero denominator, a
    decimal exponent above RATIONAL_EXPONENT_LIMIT in absolute value, or a
    run of more than RATIONAL_EXPONENT_LIMIT digits, raised as
    PolynomialError.  Both caps are judged from the text before anything is
    converted.  The digits are read by Decimal, which takes text of any
    length, where int text conversion refuses more than 4300 digits."""
    match = _RATIONAL.match(text)
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    limit = RATIONAL_EXPONENT_LIMIT
    exponent = (match["exp"] or "").lstrip("+-").replace("_", "").lstrip("0")
    # the length first, so that a huge exponent is never converted
    if len(exponent) > len(str(limit)) or int(exponent or 0) > limit:
        raise PolynomialError(f"decimal exponent above {limit} in {text!r}")
    for run in (match["num"], match["den"], match["dec"]):
        if run and len(run) - run.count("_") > limit:
            raise PolynomialError(
                f"a run of {len(run) - run.count('_')} digits is above the cap of {limit}")
    if match["den"] is None:
        return Fraction(Decimal(text))
    try:
        return Fraction(int(Decimal(match["sign"] + match["num"])), int(Decimal(match["den"])))
    except ZeroDivisionError:
        raise PolynomialError(f"zero denominator in {text!r}") from None


def json_int(value) -> int:
    """A JSON integer; a float (even 2.0), a boolean or any other value is a
    TypeError, not truncated or read as 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def format_rational(q: Fraction) -> str:
    # str() of an int above 4300 digits raises, by the interpreter's guard on
    # int-text conversion; Decimal prints the same digits at any size
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{str(Decimal(q.denominator))}"


def _gl_key(exp: tuple) -> tuple:
    # graded lex: compare total degree, then the exponent vector itself
    return (sum(exp), exp)


def int_value(form: tuple, values: Sequence[int]) -> int:
    """Value of an integer form (see `Polynomial.int_form`) at a point given
    as a sequence of ints in the polynomial's variable order."""
    total = 0
    for coeff, monomial in form:
        for i, e in monomial:
            coeff *= values[i] ** e
        total += coeff
    return total


def over_common_denominator(values) -> tuple:
    """(ints, den) for a collection of int or Fraction values: den is the lcm
    of their denominators (1 for no values) and ints[k] == values[k] * den.
    Every exact step that works in integers writes its rationals this way."""
    den = lcm(*(x.denominator for x in values))
    if den == 1:  # no multiply per value; `numerator` makes a Fraction(k, 1) an int
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _canonical(c: Scalar) -> Scalar:
    """A nonzero int or Fraction as a coefficient is stored: an int when it
    is integral, else the Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b for stored coefficients, b nonzero, as a stored coefficient:
    by divmod when both are ints, as Fractions otherwise."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canonical(a / b)


def _accumulate(terms: dict, exp: tuple, c: Scalar) -> None:
    """terms[exp] += c for a nonzero c, deleting the entry when the sum is
    zero and storing it canonical otherwise."""
    old = terms.get(exp)
    if old is not None:
        c += old
        if not c:
            del terms[exp]
            return
    terms[exp] = _canonical(c)


class Polynomial:
    # _int_form is built on first use by int_form()
    __slots__ = ("variables", "terms", "_int_form")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PolynomialError(f"duplicate variables: {variables}")
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(variables):
                raise PolynomialError(f"exponent arity {len(exp)} != {len(variables)} variables")
            if any(e < 0 for e in exp):
                raise PolynomialError(f"negative exponent in {exp}")
            c = _as_fraction(coeff)
            if c:
                _accumulate(clean, exp, c)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "Polynomial":
        """A Polynomial built without validation: `variables` is a tuple of
        distinct names and `terms` maps exponent tuples of that length to
        canonical nonzero coefficients, as every arithmetic result here does."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, variables: Sequence[str] = ()) -> "Polynomial":
        v = _as_fraction(value)
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: v} if v else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Polynomial":
        return cls(variables, {})

    # -- basic queries -------------------------------------------------

    def __bool__(self) -> bool:
        # falsy exactly when zero, like int and Fraction
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolynomialError(f"not a constant: {self}")
        return Fraction(next(iter(self.terms.values()), 0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        i = self.variables.index(var)
        return max((e[i] for e in self.terms), default=-1)

    def effective_variables(self) -> tuple:
        used = [False] * len(self.variables)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.variables, used) if u)

    def leading_term(self) -> tuple:
        """(exponent, coefficient) of the graded-lex largest term."""
        if not self.terms:
            raise PolynomialError("zero polynomial has no leading term")
        exp = max(self.terms, key=_gl_key)
        return exp, self.terms[exp]

    def content(self) -> Fraction:
        """gcd of the coefficients as a positive rational (0 for the zero poly)."""
        ints, den = over_common_denominator(self.terms.values())
        return Fraction(gcd(*ints), den)

    # -- variable plumbing ---------------------------------------------

    def with_variables(self, variables: Sequence[str]) -> "Polynomial":
        """Re-express over the given variable tuple (a superset of the
        effective variables)."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        pos = {v: i for i, v in enumerate(variables)}
        new_terms = {}
        for exp, coeff in self.terms.items():
            new_exp = [0] * len(variables)
            for v, e in zip(self.variables, exp):
                if e:
                    if v not in pos:
                        raise PolynomialError(f"variable {v} not in target {variables}")
                    new_exp[pos[v]] = e
            new_terms[tuple(new_exp)] = coeff
        return Polynomial._trusted(variables, new_terms)

    @staticmethod
    def _union_vars(a: "Polynomial", b: "Polynomial") -> tuple:
        return a.variables + tuple(v for v in b.variables if v not in a.variables)

    def _aligned(self, other) -> tuple:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        if not isinstance(other, Polynomial):
            return None, None
        if self.variables == other.variables:
            return self, other
        union = Polynomial._union_vars(self, other)
        return self.with_variables(union), other.with_variables(union)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        a, b = self._aligned(other)
        if a is None:
            return NotImplemented
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            _accumulate(terms, exp, c)
        return Polynomial._trusted(a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._aligned(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial._trusted(self.variables, {})
            return Polynomial._trusted(
                self.variables, {e: _canonical(k * other) for e, k in self.terms.items()})
        a, b = self._aligned(other)
        if a is None:
            return NotImplemented
        if len(a.terms) == 1 or len(b.terms) == 1:
            # a monomial with an int coefficient times an integer polynomial:
            # each exponent is shifted once and each coefficient scaled, and
            # the products, distinct and nonzero, need no accumulation
            mono, poly = (a, b) if len(a.terms) == 1 else (b, a)
            (shift, c), = mono.terms.items()
            if type(c) is int and all(type(k) is int for k in poly.terms.values()):
                return Polynomial._trusted(a.variables, {
                    tuple(map(add, e, shift)): k * c for e, k in poly.terms.items()})
        # the coefficients multiply and sum as ints over the product of the
        # two common denominators; a Fraction is built per result term only
        # when that product is not 1
        left, den_a = over_common_denominator(a.terms.values())
        right, den_b = over_common_denominator(b.terms.values())
        sums = {}
        for e1, n1 in zip(a.terms, left):
            for e2, n2 in zip(b.terms, right):
                exp = tuple(map(add, e1, e2))
                sums[exp] = sums.get(exp, 0) + n1 * n2
        den = den_a * den_b
        if den == 1:
            return Polynomial._trusted(a.variables, {e: v for e, v in sums.items() if v})
        return Polynomial._trusted(
            a.variables, {e: _canonical(Fraction(v, den)) for e, v in sums.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero")
            c = _canonical(_as_fraction(other))
            return Polynomial._trusted(
                self.variables, {e: _quotient(k, c) for e, k in self.terms.items()})
        if isinstance(other, Polynomial) and other.is_constant():
            return self / other.constant_value()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolynomialError(f"polynomial power must be a non-negative integer, got {n!r}")
        result = Polynomial.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __divmod__(self, other):
        return poly_divmod(self, other) if isinstance(other, Polynomial) else NotImplemented

    __hash__ = None  # mutable-dict backed; use text form as a key if needed

    # -- evaluation / substitution ----------------------------------------

    def int_form(self):
        """The terms as ((int coefficient, ((variable index, exponent), ...)), ...),
        listing only positive exponents, or None when a coefficient is not an
        integer.  Built once and cached."""
        try:
            return self._int_form
        except AttributeError:
            pass
        if all(type(c) is int for c in self.terms.values()):
            form = tuple(
                (c, tuple((i, e) for i, e in enumerate(exp) if e))
                for exp, c in self.terms.items()
            )
        else:
            form = None
        object.__setattr__(self, "_int_form", form)
        return form

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a full rational point (every effective variable bound).

        Integer coefficients at a point of plain ints are evaluated in Python
        ints by `int_value`, the package's one evaluator of an integer form
        at a whole point (region constraints are tested through it); every
        other input takes the Fraction loop."""
        form = self.int_form()
        if form is not None:
            ints = [point.get(v) for v in self.variables]
            if all(type(x) is int for x in ints):
                return Fraction(int_value(form, ints))
        vals = []
        for v in self.variables:
            if v in point:
                vals.append(_as_fraction(point[v]))
            else:
                vals.append(None)
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for val, e in zip(vals, exp):
                if e:
                    if val is None:
                        missing = [v for v, x in zip(self.variables, vals) if x is None]
                        raise PolynomialError(f"unbound variables {missing} in evaluation")
                    term *= val ** e
            total += term
        return total

    def substitute(self, mapping: Mapping[str, Entry]) -> "Polynomial":
        """Substitute polynomials/scalars for variables; unmentioned variables
        stay themselves.  Each replacement's powers are built once, each
        by one product from the one below, and each coefficient is
        multiplied in as a scalar."""
        powers = []  # powers[k][e - 1] is the replacement of variable k to the e
        for v in self.variables:
            repl = mapping.get(v, Polynomial.variable(v))
            if isinstance(repl, (int, Fraction)):
                repl = Polynomial.constant(repl)
            powers.append([repl])
        total = Polynomial.zero()
        for exp, coeff in self.terms.items():
            term = None
            for pows, e in zip(powers, exp):
                if e:
                    while len(pows) < e:
                        pows.append(pows[-1] * pows[0])
                    term = pows[e - 1] if term is None else term * pows[e - 1]
            total = total + (Polynomial.constant(coeff) if term is None else term * coeff)
        return total

    def shifted(self, offsets: Mapping[str, int]) -> "Polynomial":
        """p(..., v + offsets[v], ...), keeping the same variable tuple."""
        mapping = {
            v: Polynomial((v,), {(1,): Fraction(1), (0,): Fraction(offsets[v])})
            for v in self.variables
            if offsets.get(v)
        }
        if not mapping:
            return self
        return self.substitute(mapping).with_variables(self.variables)

    # -- univariate helpers ------------------------------------------------

    def sole_variable(self):
        eff = self.effective_variables()
        if len(eff) > 1:
            raise PolynomialError(f"expected at most one variable, got {eff}")
        return eff[0] if eff else None

    def univariate_coefficients(self, var: str) -> list:
        """Ascending coefficient list in `var`; other variables must be absent."""
        eff = self.effective_variables()
        if any(v != var for v in eff):
            raise PolynomialError(f"{self} is not univariate in {var}")
        if var not in self.variables:
            return [self.constant_value()] if self.terms else []
        i = self.variables.index(var)
        deg = self.degree_in(var)
        coeffs = [Fraction(0)] * (deg + 1)
        for exp, c in self.terms.items():
            coeffs[exp[i]] = Fraction(c)
        return coeffs

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp in sorted(self.terms, key=_gl_key, reverse=True):
            coeff = self.terms[exp]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exp)
                if e
            )
            if not mono:
                body = format_rational(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{format_rational(abs(coeff))}*{mono}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


# ---------------------------------------------------------------------------
# parsing


# Caps on a power in polynomial text: the exponent, the total degree of the
# result, and a bound on the bits of its largest coefficient.
POWER_EXPONENT_LIMIT = 1000
POWER_DEGREE_LIMIT = 1000
POWER_BITS_LIMIT = 10 ** 6
# Cap on the term-count bound of a product or power in polynomial text: a
# t1-term times a t2-term polynomial has at most t1 * t2 terms, and a t-term
# base to the power e at most comb(t + e - 1, e), the number of multisets of
# e of its terms.  The slowest power this cap admits, a trinomial to the
# 61st, parses in about 0.4 s; binomials are held by the degree cap, and
# (x+1)^999 takes about 0.6 s (2-vCPU host, Python 3.11.7).
TERM_LIMIT = 2000


# Cap on the parse work charged to one `ParseBudget`, such as every entry of
# one matrix file.  Each operation is charged, before it is computed, 64 plus
# per pair of terms it combines 16 + its variables + (b1 + 64)(b2 + 64) / 10^5
# for b1- and b2-bit coefficients; a power as the squaring of its half power.
# One (x+1)^999 costs 1.0 * 10^7, so a second one in a file exits 2; files at
# the cap parse in 0.4-10 s (README; 2-vCPU host, Python 3.11.7).
PARSE_WORK_LIMIT = 15 * 10 ** 6


class ParseBudget:
    """Parse work charged so far; PolynomialError once past PARSE_WORK_LIMIT."""

    def __init__(self):
        self.spent = 0

    def charge(self, pairs: int, variables: int, bits_a: int, bits_b: int) -> None:
        self.spent += 64 + pairs * (variables + 16 + (bits_a + 64) * (bits_b + 64) // 10 ** 5)
        if self.spent > PARSE_WORK_LIMIT:
            raise PolynomialError(
                f"the polynomial text is above the cap on parse work: {PARSE_WORK_LIMIT}"
            )


def parse_poly(text: str, variables: Sequence[str] = None, budget: ParseBudget = None) -> Polynomial:
    """Parse polynomial text like "(i-1)*(2*n-3)" or "x^2 - 1/2".

    If `variables` is given the result is expressed over exactly that tuple
    (which must cover all names in the text); otherwise the variables are the
    names in the text, sorted alphabetically.  The parse work is charged to
    `budget`, by default a fresh one (see `PARSE_WORK_LIMIT`).  An int
    literal above the interpreter's limit on int text (4300 digits by
    default) is read by `parse_rational`, under its digit cap.
    """
    # the reader and `ast` are loaded by the first parse: a job that reads no
    # polynomial text never compiles them
    from .polytext import parse_text

    p = parse_text(text, ParseBudget() if budget is None else budget)
    if variables is not None:
        return p.with_variables(tuple(variables))
    return p.with_variables(tuple(sorted(p.effective_variables())))


# an int or int/int literal as `parse_poly` would read it: ASCII digits, no
# leading zero or underscore, a sign only in front, a nonzero denominator
_LITERAL = re.compile(r"([-+]?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?\Z")


def parse_entry(text: str, budget: ParseBudget = None):
    """Parse a matrix-entry string into a Fraction (no variables) or Polynomial.

    A literal (see `_LITERAL`) is read without `ast`: an integer within the
    interpreter's limit on int text (4300 digits by default) by `int`, any
    other by `parse_rational`.  It is charged to `budget` what `parse_poly`
    charges for it: its sign as a negation, its denominator as a division."""
    literal = _LITERAL.match(text.strip())
    if literal is None:
        p = parse_poly(text, budget=budget)
        return p.constant_value() if p.is_constant() else p
    budget = ParseBudget() if budget is None else budget
    sign, digits, den = literal.groups()
    if den is None and len(digits) <= sys.get_int_max_str_digits():  # 0: no limit
        value = Fraction(int(literal[0]))
    else:
        value = parse_rational(literal[0])
    num = abs(value.numerator)
    if den is not None:  # the unreduced numerator and denominator
        den = int(Decimal(den))
        num *= den // value.denominator
    if sign:
        budget.charge(1 if num else 0, 0, num.bit_length(), 0)
    if den is not None:
        budget.charge((1 if num else 0) + 1, 0, num.bit_length(), den.bit_length())
    return value


def entry_text(x) -> str:
    if isinstance(x, (int, Fraction)):
        return format_rational(_as_fraction(x))
    return str(x)


# ---------------------------------------------------------------------------
# division, gcd, and quotients in lowest terms


def poly_divmod(num: Polynomial, den: Polynomial) -> tuple:
    """(q, r) with num == q * den + r, over the union of the variables, by
    long division in graded-lex order (any number of variables).  It stops
    at the first remainder term that den's leading term does not divide, so
    r is zero exactly when den divides num, and over one variable deg r <
    deg den.  The remainder is one dict, updated in place; its leading term
    comes off a heap of the negated graded-lex keys of its exponents, where
    an exponent whose coefficient cancelled since it was pushed is skipped.
    A constant den c needs no heap: q is num / c and r is zero."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    union = Polynomial._union_vars(num, den)
    num = num.with_variables(union)
    if den.is_constant():
        return num / den, Polynomial._trusted(union, {})
    # imported here: only a polynomial division needs it, and loading it
    # costs every command about 1 ms at start-up
    from heapq import heapify, heappop, heappush

    den = den.with_variables(union)
    d_exp, d_coeff = den.leading_term()
    d_rest = [(exp, c) for exp, c in den.terms.items() if exp != d_exp]
    quotient = {}
    rem = dict(num.terms)
    heap = [_heap_entry(exp) for exp in rem]
    heapify(heap)
    while rem:
        r_exp = heappop(heap)[1]
        if r_exp not in rem:
            continue
        t_exp = tuple(r - d for r, d in zip(r_exp, d_exp))
        if any(e < 0 for e in t_exp):
            break
        t_coeff = _quotient(rem.pop(r_exp), d_coeff)
        quotient[t_exp] = t_coeff
        for exp, c in d_rest:
            exp = tuple(map(add, t_exp, exp))
            if exp not in rem:
                heappush(heap, _heap_entry(exp))
            _accumulate(rem, exp, -t_coeff * c)
    return Polynomial._trusted(union, quotient), Polynomial._trusted(union, rem)


def _heap_entry(exp: tuple) -> tuple:
    """(negated graded-lex key, exp): the least entry holds the greatest exp."""
    return (-sum(exp), tuple(map(neg, exp))), exp


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials in at most one variable, by the
    Euclidean algorithm; PolynomialError when they have two or more."""
    eff = set(a.effective_variables()) | set(b.effective_variables())
    if len(eff) > 1:
        raise PolynomialError(f"gcd of polynomials in more than one variable: {sorted(eff)}")
    while b:
        a, b = b, divmod(a, b)[1]
    if not a:
        return a
    _, lead = a.leading_term()
    return a / lead


def quotient_text(num, den) -> str:
    """The text of num / den in lowest terms, for exact scalars or
    Polynomials.  A univariate quotient is reduced by `poly_gcd`; a
    multivariate one only when den divides num.  The denominator is then
    made primitive with a positive leading coefficient, and it is printed,
    as `(num)/(den)`, only when it is not 1."""
    if not isinstance(num, Polynomial) and not isinstance(den, Polynomial):
        return format_rational(Fraction(num) / den)
    if not den:
        raise ZeroDivisionError("quotient with zero denominator")
    if not num:
        return "0"
    num, den = (x if isinstance(x, Polynomial) else Polynomial.constant(x) for x in (num, den))
    union = Polynomial._union_vars(num, den)
    num = num.with_variables(union)
    den = den.with_variables(union)
    eff = set(num.effective_variables()) | set(den.effective_variables())
    if len(eff) == 1 and not den.is_constant():
        g = poly_gcd(num, den)
        num, den = divmod(num, g)[0], divmod(den, g)[0]
    else:
        q, r = divmod(num, den)
        if not r:
            num, den = q, Polynomial.constant(1, union)
    scale = den.content()
    if den.leading_term()[1] < 0:
        scale = -scale
    num = num / scale
    den = den / scale
    if den == 1:
        return str(num)
    return f"({num})/({den})"


# ---------------------------------------------------------------------------
# small domain helpers shared by the matrix code


def common_variables(entries) -> tuple:
    """Sorted union of the variables of the Polynomial entries, the order
    `parse_poly` gives a text's variables."""
    return tuple(sorted({v for x in entries if isinstance(x, Polynomial) for v in x.variables}))


def polynomial_over(x, variables: tuple) -> Polynomial:
    """A Polynomial or exact scalar as a Polynomial over `variables`."""
    if isinstance(x, Polynomial):
        return x.with_variables(variables)
    return Polynomial.constant(x, variables)
