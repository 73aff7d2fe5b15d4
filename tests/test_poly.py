"""Exact polynomial arithmetic and the text of polynomial quotients."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfansatz.poly import (
    PARSE_WORK_LIMIT,
    ParseBudget,
    Polynomial,
    PolynomialError,
    entry_text,
    exact_quotient,
    format_rational,
    int_value,
    over_common_denominator,
    parse_entry,
    parse_poly,
    parse_rational,
    poly_divmod,
    poly_exact_divide,
    poly_gcd,
    quotient_text,
)


def P(text, variables=None):
    return parse_poly(text, variables)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_zero_terms_are_dropped():
    p = Polynomial(("n",), {(1,): Fraction(0), (0,): Fraction(3)})
    assert p.terms == {(0,): Fraction(3)}
    assert p.is_constant() and p.constant_value() == 3


def test_constant_and_variable_builders():
    assert Polynomial.constant(7).eval({}) == 7
    x = Polynomial.variable("x")
    assert x.eval({"x": Fraction(5, 2)}) == Fraction(5, 2)
    assert not Polynomial.zero(("n",))


def test_equality_ignores_variable_padding():
    a = parse_poly("n + 1", ("n",))
    b = parse_poly("n + 1", ("n", "i"))
    assert a == b
    assert a + parse_poly("i", ("i",)) == parse_poly("n + i + 1", ("n", "i"))


def test_immutability():
    p = parse_poly("n^2", ("n",))
    with pytest.raises(AttributeError):
        p.terms = {}


# ---------------------------------------------------------------------------
# arithmetic against integer evaluation (oracle: eval commutes with ops)


def test_ring_ops_commute_with_evaluation():
    rng = random.Random(20120701)
    for _ in range(40):
        a = Polynomial(
            ("n", "i"),
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
                for _ in range(4)
            },
        )
        b = Polynomial(
            ("n", "i"),
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
                for _ in range(4)
            },
        )
        pt = {"n": Fraction(rng.randint(-6, 6)), "i": Fraction(rng.randint(-6, 6))}
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a - b).eval(pt) == a.eval(pt) - b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a ** 3).eval(pt) == a.eval(pt) ** 3


def test_scalar_mixing():
    p = P("2*n + 1", ("n",))
    assert (p * 3).eval({"n": 2}) == 15
    assert (3 * p - p).eval({"n": 2}) == 10
    assert (p / 2).eval({"n": 2}) == Fraction(5, 2)


def test_degrees():
    p = P("4*n^3*i - n*i + 7", ("n", "i"))
    assert p.total_degree() == 4
    assert p.degree_in("n") == 3
    assert p.degree_in("i") == 1
    assert p.effective_variables() == ("n", "i")
    assert P("7", ("n",)).total_degree() == 0


def test_shifted_and_substitute():
    p = P("n^2", ("n",))
    assert p.shifted({"n": -1}) == P("n^2 - 2*n + 1", ("n",))
    q = P("n*i", ("n", "i")).substitute({"i": P("n + 1", ("n",))})
    assert q == P("n^2 + n", ("n",))


def former_substitute(p, mapping):
    """Polynomial.substitute's former loop: each term a product of
    `Polynomial.constant(coeff)` and a fresh power of each replacement."""
    base = {}
    for v in p.variables:
        repl = mapping.get(v, Polynomial.variable(v))
        if isinstance(repl, (int, Fraction)):
            repl = Polynomial.constant(repl)
        base[v] = repl
    total = Polynomial.zero()
    for exp, coeff in p.terms.items():
        term = Polynomial.constant(coeff)
        for v, e in zip(p.variables, exp):
            if e:
                term = term * base[v] ** e
        total = total + term
    return total


SUBSTITUTE_NAMES = ("n", "i", "j", "x")
substitute_coefficients = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def substituted_polynomials(draw, variables, max_terms=5):
    exponents = st.tuples(*(st.integers(0, 4) for _ in variables))
    terms = draw(st.dictionaries(exponents, substitute_coefficients, max_size=max_terms))
    return Polynomial(variables, terms)


@st.composite
def substitutions(draw):
    variables = tuple(draw(st.permutations(SUBSTITUTE_NAMES))[:draw(st.integers(1, 3))])
    mapping = {}
    for v in draw(st.lists(st.sampled_from(SUBSTITUTE_NAMES), unique=True, max_size=3)):
        if draw(st.booleans()):
            mapping[v] = draw(substitute_coefficients)
        else:
            names = tuple(draw(st.permutations(SUBSTITUTE_NAMES))[:draw(st.integers(0, 2))])
            mapping[v] = draw(substituted_polynomials(names, max_terms=3))
    return draw(substituted_polynomials(variables)), mapping


@settings(derandomize=True, max_examples=50, deadline=None)
@given(substitutions())
def test_substitute_matches_former_loop(case):
    p, mapping = case
    got = p.substitute(mapping)
    expected = former_substitute(p, mapping)
    assert got == expected
    assert got.variables == expected.variables
    assert str(got) == str(expected)


def test_univariate_coefficients():
    p = P("3*n^2 - n + 5", ("n",))
    assert p.univariate_coefficients("n") == [Fraction(5), Fraction(-1), Fraction(3)]


# ---------------------------------------------------------------------------
# parsing and printing round-trips


def test_parse_poly_round_trip():
    for text in ("n", "n^2 - 2*n + 1", "4*n*i - 3*i^2 + 1/2", "-n^3 + n"):
        p = parse_poly(text, ("n", "i"))
        assert parse_poly(str(p), ("n", "i")) == p


def test_parse_accepts_python_power():
    assert parse_poly("n**2 + 1", ("n",)) == parse_poly("n^2 + 1", ("n",))


def test_parse_rejects_garbage():
    with pytest.raises(PolynomialError):
        parse_poly("n +", ("n",))
    with pytest.raises(PolynomialError):
        parse_poly("import os", ("os«",))
    with pytest.raises(PolynomialError):
        parse_poly("1/(n+1)", ("n",))  # not a polynomial


def test_parse_power_caps():
    # exponent, result degree and coefficient bits each stop at their cap
    assert parse_poly("x^1000") == Polynomial(("x",), {(1000,): Fraction(1)})
    assert parse_poly("(x^2 + 1)^500").total_degree() == 1000
    assert parse_entry("(2^999)^999") == 2 ** (999 * 999)
    for text in ("x^1001", "1^1001", "(x^2 + 1)^501", "(x*y)^501", "(2^1000)^1000"):
        with pytest.raises(PolynomialError, match="above the caps"):
            parse_poly(text)


def test_parse_rational_exponent_cap():
    # |exponent| <= 10^4 parses, however it is written; one more is refused
    # from the text alone, before Fraction builds the power of ten
    assert parse_rational("1e10000") == 10 ** 10000
    assert parse_rational(" -2.5E-1_0000 ") == Fraction(-25, 10 ** 10001)
    assert parse_rational("1e" + "0" * 50 + "7") == 10 ** 7
    for text in ("1e10001", "1E-10001", "3.5e+99999999999", "1e" + "9" * 10 ** 5):
        with pytest.raises(PolynomialError, match="decimal exponent above 10000"):
            parse_rational(text)
    assert parse_rational("10001") == 10001  # no exponent


def test_parse_rational_reads_long_digit_runs():
    # up to 10^4 digits in each run, beyond the interpreter's 4300-digit
    # limit on int text, as integer, p/q or mantissa text
    big = "1" + "0" * 4999
    assert parse_rational(big) == parse_rational("1e4999") == 10 ** 4999
    assert parse_rational(f"-{big}/{big}3") == -parse_rational("1e4999") / (10 ** 5000 + 3)
    assert parse_rational(f"{big}.{'0' * 4999}5") == parse_rational("1e4999") + Fraction(5, 10 ** 5000)
    assert parse_rational("9" * 10000) == 10 ** 10000 - 1
    # Fraction's grammar, and its message
    for text in ("1_000", " -3/4 ", ".5", "1.", "+2.5E-3", "1_0.0_1e1_0"):
        assert parse_rational(text) == Fraction(text)
    for text in ("1__0", "_1", "3 /4", "-3/-4", "1.5/2", "inf", "nan", "", "1e"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            parse_rational(text)
    for text in ("1" * 10001, "1/" + "1" * 10001, "0." + "1" * 10001, "1_" * 10001 + "1"):
        with pytest.raises(PolynomialError, match="a run of 1000[12] digits is above the cap of 10000"):
            parse_rational(text)


def test_parse_term_cap():
    # a product's bound is t1 * t2, a power's comb(t + e - 1, e); 2000 passes
    forty = "(" + " + ".join(f"a{k}" for k in range(40)) + ")"
    fifty = "(" + " + ".join(f"b{k}" for k in range(50)) + ")"
    assert len(parse_poly(f"{forty} * {fifty}").terms) == 2000
    assert len(parse_poly("(0)^0").terms) == 1
    with pytest.raises(PolynomialError, match="above the cap"):
        parse_poly(f"{forty} * {fifty} * (c + 1)")
    assert len(parse_poly("(a + b + c + d)^20").terms) == 1771  # comb(23, 20)
    with pytest.raises(PolynomialError, match="of up to 2024 terms"):
        parse_poly("(a + b + c + d)^21")


def test_parse_budget_is_shared_across_texts():
    budget = ParseBudget()
    parse_poly("(x+1)^999", budget=budget)
    spent = budget.spent
    assert 0 < spent <= PARSE_WORK_LIMIT < 2 * spent
    # the second power is refused before it is computed
    with pytest.raises(PolynomialError, match="above the cap on parse work"):
        parse_entry("(y+1)^999", budget)
    # small entries are charged little, and text without a budget nothing
    small = ParseBudget()
    parse_entry("-12345/677", small)
    assert small.spent < 200
    assert parse_poly("(x+1)^999") == parse_poly("(x+1)^999", budget=ParseBudget())


def test_parse_entry_dispatch():
    assert parse_entry("22/7") == Fraction(22, 7)
    assert parse_entry("-15") == Fraction(-15)
    p = parse_entry("x^4 - 2")
    assert isinstance(p, Polynomial) and p.eval({"x": 2}) == 14


def test_entry_text_and_format_rational():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8)) == "8"
    assert entry_text(Fraction(5, 3)) == "5/3"
    assert parse_poly(entry_text(P("x^2 - x", ("x",))), ("x",)) == P("x^2 - x", ("x",))


# ---------------------------------------------------------------------------
# division, gcd


def test_poly_divmod_reconstructs():
    a = P("n^4 - 1", ("n",))
    b = P("n^2 + 1", ("n",))
    q, r = poly_divmod(a, b, "n")
    assert q * b + r == a
    assert not r


def test_poly_divmod_remainder():
    a = P("n^3 + 2", ("n",))
    b = P("n^2", ("n",))
    q, r = poly_divmod(a, b, "n")
    assert q * b + r == a
    assert r == P("2", ("n",))


def test_poly_exact_divide_multivariate():
    num = P("(n + i)*(n - i)", ("n", "i")) * P("2*n + 3", ("n",))
    den = P("n + i", ("n", "i"))
    q = poly_exact_divide(num, den)
    assert q is not None and q * den == num
    assert poly_exact_divide(P("n + 1", ("n",)), P("n", ("n",))) is None


def test_poly_gcd_univariate():
    g = poly_gcd(P("n^2 - 1", ("n",)), P("n^2 - 2*n + 1", ("n",)), "n")
    # gcd is defined up to a scalar; normalize by comparing exact division
    assert poly_exact_divide(P("n - 1", ("n",)), g) is not None
    assert poly_exact_divide(g, P("n - 1", ("n",))) is not None


# ---------------------------------------------------------------------------
# quotients in lowest terms


# (numerator, denominator, text): the texts `str(RationalFunction(num, den))`
# printed before the class was replaced by `quotient_text`
QUOTIENT_TEXTS = [
    ("x^2 - 1", "x - 1", "x + 1"),
    ("x^2 - 1", "x^2 + 2*x + 1", "(x - 1)/(x + 1)"),
    ("x", "x^2 - 1", "(x)/(x^2 - 1)"),
    ("x + 2", "-2*x^2 + 3", "(-x - 2)/(2*x^2 - 3)"),
    ("x", "1/2*x + 3/4", "(4*x)/(2*x + 3)"),
    ("2*x^2 + 4", "6", "1/3*x^2 + 2/3"),
    ("x", "-3", "-1/3*x"),
    ("0", "x + 1", "0"),
    ("x^3 - x", "x^2 + x", "x - 1"),
    ("3", "x^2 + x", "(3)/(x^2 + x)"),
    ("-x^2 + 1", "-x - 1", "x - 1"),
    ("x^2 - y^2", "x - y", "x + y"),
    ("x*y", "x + y", "(x*y)/(x + y)"),
    ("x", "-x*y - 1", "(-x)/(x*y + 1)"),
    ("x", "y + 1", "(x)/(y + 1)"),
    ("6*x*y + 4*y", "-4*x - 2", "(-3*x*y - 2*y)/(2*x + 1)"),
    ("3/2", "1", "3/2"),
    ("x^4 - 1", "2*x^2 - 2", "1/2*x^2 + 1/2"),
]


@pytest.mark.parametrize("num, den, text", QUOTIENT_TEXTS)
def test_quotient_text_prints_the_reduced_quotient(num, den, text):
    assert quotient_text(P(num), P(den)) == text


def test_quotient_text_of_scalars_and_mixed_operands():
    assert quotient_text(Fraction(3, 4), 1) == "3/4"
    assert quotient_text(Fraction(-6), Fraction(4)) == "-3/2"
    assert quotient_text(Fraction(2), P("x + 1")) == "(2)/(x + 1)"
    assert quotient_text(P("2*x + 2"), Fraction(-2)) == "-x - 1"
    with pytest.raises(ZeroDivisionError):
        quotient_text(P("x"), Polynomial.zero(("x",)))
    with pytest.raises(ZeroDivisionError):
        quotient_text(Fraction(1), 0)


def test_exact_quotient_refuses_a_remainder():
    assert exact_quotient(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        exact_quotient(7, 2)
    x = parse_poly("x", ("x",))
    assert exact_quotient(x * x - 1, x - 1) == x + 1
    assert exact_quotient(2 * x, Polynomial.constant(4, ("x",))) == x / 2
    with pytest.raises(ArithmeticError):
        exact_quotient(x * x + 1, x - 1)


# ---------------------------------------------------------------------------
# the integer evaluator against the Fraction loop


def reference_eval(poly, point):
    """The Fraction loop Polynomial.eval runs for non-integer input."""
    vals = [Fraction(point[v]) if v in point else None for v in poly.variables]
    total = Fraction(0)
    for exp, coeff in poly.terms.items():
        term = coeff
        for val, e in zip(vals, exp):
            if e:
                if val is None:
                    raise PolynomialError("unbound")
                term *= val ** e
        total += term
    return total


VARIABLES = ("n", "i", "x")
INTS = st.integers(-40, 40)
FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))


@st.composite
def polynomials(draw, coefficients):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps, coefficients, max_size=6))
    return Polynomial(VARIABLES[:nvars], terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(polynomials(INTS), polynomials(FRACTIONS)), st.data())
def test_eval_matches_fraction_loop(poly, data):
    point = {v: data.draw(st.one_of(INTS, FRACTIONS)) for v in poly.variables}
    point["unused"] = data.draw(st.one_of(INTS, FRACTIONS))  # extra keys are ignored
    got = poly.eval(point)
    assert type(got) is Fraction
    assert got == reference_eval(poly, point)
    form = poly.int_form()
    if all(c.denominator == 1 for c in poly.terms.values()):
        assert form is not None and poly.int_form() is form  # cached
        if all(type(point[v]) is int for v in poly.variables):
            assert int_value(form, [point[v] for v in poly.variables]) == got
    else:
        assert form is None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polynomials(INTS), st.data())
def test_eval_unbound_variable_still_raises(poly, data):
    used = poly.effective_variables()
    if not used:
        assert poly.eval({}) == poly.constant_value()
        return
    missing = data.draw(st.sampled_from(used))
    point = {v: data.draw(INTS) for v in poly.variables if v != missing}
    with pytest.raises(PolynomialError, match="unbound"):
        poly.eval(point)


def reference_content(poly):
    """Polynomial.content's former loop: gcd of numerators over lcm of
    denominators."""
    if not poly.terms:
        return Fraction(0)
    num, den = 0, 1
    for c in poly.terms.values():
        num = math.gcd(num, abs(c.numerator))
        den = math.lcm(den, c.denominator)
    return Fraction(num, den)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.one_of(INTS, FRACTIONS, st.builds(Fraction, st.integers(), st.integers(1, 10**4)))))
def test_over_common_denominator_matches_fraction_reference(values):
    ints, den = over_common_denominator(values)
    assert all(type(k) is int for k in ints) and type(den) is int and den >= 1
    assert [Fraction(k, den) for k in ints] == [Fraction(v) for v in values]
    # den is the least common denominator: dividing it by any of its prime
    # factors leaves some value non-integral
    p = 2
    rest = den
    while rest > 1:
        if rest % p == 0:
            assert any((Fraction(v) * (den // p)).denominator != 1 for v in values)
            while rest % p == 0:
                rest //= p
        p += 1
    if not values:
        assert (ints, den) == ([], 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(polynomials(INTS), polynomials(FRACTIONS)))
def test_content_matches_former_loop(poly):
    got = poly.content()
    assert type(got) is Fraction and got == reference_content(poly)
    assert got >= 0 and (got == 0) == (not poly)


def test_eval_int_path_edge_cases():
    p = P("n^2*i - 3*i + 7", ("n", "i"))
    assert p.eval({"n": 2, "i": 5}) == 12
    # a variable the polynomial does not use may be left unbound
    q = Polynomial(("n", "i"), {(2, 0): Fraction(1)})
    assert q.eval({"n": -3}) == 9
    # bools and Fractions take the Fraction loop, with the same values
    assert p.eval({"n": True, "i": Fraction(5)}) == -3
    assert p.eval({"n": Fraction(1, 2), "i": 4}) == Fraction(1, 4) * 4 - 12 + 7
    assert P("n/2 + 1", ("n",)).int_form() is None
    assert Polynomial.zero(("n",)).int_form() == ()
    assert Polynomial.zero(("n",)).eval({"n": 3}) == 0


# ---------------------------------------------------------------------------
# trusted arithmetic results and the in-place exact division


COEFFICIENTS = st.one_of(INTS, FRACTIONS)


def assert_canonical(p):
    """p holds exactly what the validating constructor builds from its data."""
    assert type(p) is Polynomial
    assert Polynomial(p.variables, p.terms).terms == p.terms
    assert len(set(p.variables)) == len(p.variables)
    for exp, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(exp) == len(p.variables) and all(type(e) is int and e >= 0 for e in exp)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polynomials(COEFFICIENTS), polynomials(COEFFICIENTS), COEFFICIENTS, st.data())
def test_arithmetic_results_keep_the_constructor_invariants(p, q, s, data):
    point = {v: data.draw(INTS) for v in VARIABLES + ("z",)}
    pv, qv = p.eval(point), q.eval(point)
    results = [
        (p + q, pv + qv),
        (p - q, pv - qv),
        (p - p, 0),
        (-p, -pv),
        (p * q, pv * qv),
        (p * s, pv * s),
        (s * p, pv * s),
        (p * 0, 0),
        (p + s, pv + s),
        (p.with_variables(VARIABLES + ("z",)), pv),
    ]
    if s:
        results.append((p / s, pv / s))
    for result, value in results:
        assert_canonical(result)
        assert result.eval(point) == value
    assert bool(p) is bool(p.terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polynomials(COEFFICIENTS), polynomials(COEFFICIENTS))
def test_exact_divide_recovers_a_factor(a, b):
    if not b:
        with pytest.raises(ZeroDivisionError):
            poly_exact_divide(a, b)
        return
    q = poly_exact_divide(a * b, b)
    assert q is not None and q == a
    assert_canonical(q)


UNIVARIATE = st.dictionaries(st.tuples(st.integers(0, 5)), COEFFICIENTS, max_size=4).map(
    lambda terms: Polynomial(("x",), terms)
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(UNIVARIATE, UNIVARIATE, UNIVARIATE)
def test_exact_divide_is_none_exactly_when_divmod_leaves_a_remainder(c, b, r):
    if not b:
        return
    a = c * b + r  # divisible when r is, and r is often zero or a multiple of b
    q = poly_exact_divide(a, b)
    quotient, remainder = poly_divmod(a, b, "x")
    if not remainder:
        assert q == quotient
        assert_canonical(q)
    else:
        assert q is None


# ---------------------------------------------------------------------------
# the zero protocol: truthiness is the only zero test, and Fraction(0) * x
# is the zero of x's domain


ENTRIES = st.one_of(INTS, FRACTIONS, polynomials(COEFFICIENTS))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ENTRIES)
def test_truthiness_is_the_zero_test_and_zero_times_x_is_its_domain_zero(x):
    assert bool(x) == (x != 0)
    zero = Fraction(0) * x
    assert zero == 0 and not zero
    assert zero + 1 == 1 and zero + 1
    if isinstance(x, Polynomial):
        assert type(zero) is Polynomial and zero.variables == x.variables
        assert (zero + 1).variables == x.variables
    else:
        assert type(zero) is Fraction and type(zero + 1) is Fraction
