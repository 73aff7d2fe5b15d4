"""Exact polynomial arithmetic and the text of polynomial quotients."""

import math
import random
import sys
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
    format_rational,
    int_value,
    over_common_denominator,
    parse_entry,
    parse_poly,
    parse_rational,
    poly_divmod,
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


def test_parse_poly_reads_a_long_literal_as_ast_would_without_the_limit():
    # a literal above the 4300-digit limit on int text, inside polynomial
    # text: read by parse_rational, with the value and the parse charge that
    # `ast` gives it when the interpreter's limit is lifted
    big = "7" * 5000
    texts = (f"{big}*x + 1", f"-({big}_7 - x)^2/{big}", f"_digits0 + {big}*__digits",
             f"x{big} + {big}")
    lifted = []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for text in texts:
            budget = ParseBudget()
            lifted.append((parse_poly(text, budget=budget), budget.spent))
    finally:
        sys.set_int_max_str_digits(limit)
    for text, (expected, spent) in zip(texts, lifted):
        budget = ParseBudget()
        got = parse_poly(text, budget=budget)
        assert (got, got.variables, budget.spent) == (expected, expected.variables, spent)
    assert parse_poly(texts[2]).variables == ("__digits", "_digits0")
    # a literal that `ast` refuses for another reason is still refused
    for text in ("0" + big, f"{big}x", f"1.{big}", f"{big}__1"):
        with pytest.raises(PolynomialError):
            parse_poly(text)
    with pytest.raises(PolynomialError, match="a run of 10001 digits is above the cap of 10000"):
        parse_poly("1" * 10001 + "*x")


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


def ast_entry(text, budget):
    """parse_entry as it was before the literal fast path: all text through
    `parse_poly`."""
    p = parse_poly(text, budget=budget)
    return p.constant_value() if p.is_constant() else p


def parsed(read, text, spent):
    """(value or (exception type, message), budget spent) of one read of
    text on a budget that has already spent `spent`."""
    budget = ParseBudget()
    budget.spent = spent
    try:
        result = read(text, budget)
    except (ValueError, ZeroDivisionError) as e:
        result = (type(e), str(e))
    return result, type(result), budget.spent


LITERAL_CORPUS = ["007", "1_0", "3/0", " -4/6 ", "+5", "-0", "+0/5", "0/0", "00/1", "12/-3",
                  "- 4", "4 / 6", "--4", "1e3", "2.5", "x", "", " ", "-", "/3", "3/", "1/2/3",
                  "٣", "７/2", "-٤/٥", "4 ", "\t-12345/677\n",
                  "9" * 1000 + "/" + "7" * 800, "-" + "8" * 4300]
LITERAL_TEXT = st.one_of(
    st.sampled_from(LITERAL_CORPUS),
    st.text(alphabet="0123456789-+/ _x٣７", max_size=14),
    st.builds("{}{}{}".format, st.sampled_from(["", "-", "+", " "]),
              st.integers(0, 10 ** 40).map(str),
              st.sampled_from(["", "/"]).flatmap(
                  lambda slash: st.just("") if not slash else st.integers(0, 10 ** 30).map(
                      lambda d: f"/{d}"))),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(LITERAL_TEXT, st.sampled_from([0, 1000, PARSE_WORK_LIMIT - 150, PARSE_WORK_LIMIT - 70]))
def test_literal_fast_path_reads_as_the_ast_path(text, spent):
    # the same value or exception, and the same charge: nearly spent budgets
    # are refused at the same step
    assert parsed(parse_entry, text, spent) == parsed(ast_entry, text, spent)


@pytest.mark.parametrize("digits", [4300, 4301])
def test_integer_literals_at_the_int_text_limit_read_as_parse_rational(digits):
    # `int` reads up to the interpreter's default limit of 4300 digits and
    # parse_rational beyond it: both give parse_rational's value, a Fraction,
    # and charge what the ast path charges
    for text in ("7" * digits, "-" + "8" * digits, "+" + "9" * digits):
        got = parsed(parse_entry, text, 1000)
        assert got[0] == parse_rational(text) and got[1] is Fraction
        assert got == parsed(ast_entry, text, 1000)


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
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert not r


def test_poly_divmod_remainder():
    a = P("n^3 + 2", ("n",))
    b = P("n^2", ("n",))
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r == P("2", ("n",))


def test_poly_divmod_multivariate():
    num = P("(n + i)*(n - i)", ("n", "i")) * P("2*n + 3", ("n",))
    den = P("n + i", ("n", "i"))
    q, r = poly_divmod(num, den)
    assert not r and q * den == num
    # the division stops at 2*i^2, which den's leading term n does not divide
    q, r = poly_divmod(P("n^2 + i^2", ("n", "i")), P("n + i", ("n", "i")))
    assert q == P("n - i", ("n", "i")) and r == P("2*i^2", ("n", "i"))
    q, r = poly_divmod(P("n + 1", ("n",)), P("n", ("n",)))
    assert q == 1 and r == 1


def test_poly_gcd_univariate():
    g = poly_gcd(P("n^2 - 1", ("n",)), P("n^2 - 2*n + 1", ("n",)))
    assert g == P("n - 1", ("n",))
    assert poly_gcd(P("n^2 - 1", ("n", "i")), P("2*n + 2", ("n",))) == P("n + 1", ("n",))
    assert poly_gcd(P("3", ("n",)), P("x + 1", ("x",))) == 1
    assert not poly_gcd(Polynomial.zero(("n",)), Polynomial.zero(("n",)))


@pytest.mark.parametrize("a, b", [("x + 1", "y + 1"), ("x*y", "x"), ("x", "y^2 + y")])
def test_poly_gcd_refuses_two_variables_at_once(a, b):
    with pytest.raises(PolynomialError, match="more than one variable"):
        poly_gcd(P(a), P(b))


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


def test_divmod_leaves_a_remainder_exactly_when_the_division_is_inexact():
    assert divmod(-12, 4) == (-3, 0)
    x = parse_poly("x", ("x",))
    assert divmod(x * x - 1, x - 1) == (x + 1, 0)
    q, r = divmod(x * x + 1, x - 1)
    assert r and q == x + 1 and r == 2
    # a constant divisor: num / c, and a zero remainder over the union of
    # the variables
    q, r = divmod(2 * x, Polynomial.constant(4, ("n",)))
    assert q == x / 2 and q.variables == ("x", "n")
    assert not r and r.variables == ("x", "n")
    with pytest.raises(ZeroDivisionError):
        divmod(x, Polynomial.zero(("x",)))
    # a scalar divisor or dividend is not a Polynomial division
    for a, b in ((x, 3), (x, Fraction(1, 2)), (3, x)):
        with pytest.raises(TypeError):
            divmod(a, b)


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
    """p holds exactly what the validating constructor builds from its data,
    each coefficient in its one form: an int when integral, else a Fraction
    with denominator > 1, never zero."""
    assert type(p) is Polynomial
    assert Polynomial(p.variables, p.terms).terms == p.terms
    assert len(set(p.variables)) == len(p.variables)
    for exp, c in p.terms.items():
        assert c != 0 and type(c) is (int if c.denominator == 1 else Fraction)
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
            poly_divmod(a, b)
        return
    q, r = poly_divmod(a * b, b)
    assert q == a and not r
    assert_canonical(q)
    assert_canonical(r)


def former_exact_divide(num, den):
    """The former loop of exact division, None when inexact: the remainder's
    leading term found by a scan of the whole remainder at every quotient
    term."""
    union = Polynomial._union_vars(num, den)
    num, den = num.with_variables(union), den.with_variables(union)
    d_exp, d_coeff = den.leading_term()
    quotient, rem = {}, dict(num.terms)
    while rem:
        r_exp = max(rem, key=lambda exp: (sum(exp), exp))
        t_exp = tuple(r - d for r, d in zip(r_exp, d_exp))
        if any(e < 0 for e in t_exp):
            return None
        t_coeff = rem.pop(r_exp) / Fraction(d_coeff)
        quotient[t_exp] = t_coeff
        for exp, c in den.terms.items():
            if exp != d_exp:
                key = tuple(a + b for a, b in zip(t_exp, exp))
                rem[key] = rem.get(key, 0) - t_coeff * c
                if not rem[key]:
                    del rem[key]
    return Polynomial(union, quotient)


@st.composite
def division_cases(draw):
    """(num, den) over one or two variables, den nonzero: num = a * den,
    an exact division, or a * den + r, most often an inexact one."""
    nvars = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    polys = st.dictionaries(exps, COEFFICIENTS, max_size=5).map(
        lambda terms: Polynomial(VARIABLES[:nvars], terms))
    a, den = draw(polys), draw(polys.filter(bool))
    return (a * den + draw(polys) if draw(st.booleans()) else a * den), den


@settings(derandomize=True, max_examples=60, deadline=None)
@given(division_cases())
def test_exact_divide_matches_the_former_scan(case):
    num, den = case
    expected = former_exact_divide(num, den)
    q, r = poly_divmod(num, den)
    assert_canonical(q)
    assert_canonical(r)
    assert q * den + r == num
    if expected is None:
        assert r
    else:
        assert not r
        assert q.variables == expected.variables and q.terms == expected.terms


def former_divmod(a, b, var):
    """The former univariate long division over Fraction coefficient lists:
    (q, r) over (var,) with a = q*b + r and deg r < deg b."""
    ac = a.univariate_coefficients(var)
    bc = b.univariate_coefficients(var)
    q = [Fraction(0)] * max(0, len(ac) - len(bc) + 1)
    rem = list(ac)
    db = len(bc) - 1
    while len(rem) - 1 >= db and any(rem):
        dr = len(rem) - 1
        while dr >= 0 and not rem[dr]:
            dr -= 1
        if dr < db:
            break
        factor = rem[dr] / bc[-1]
        q[dr - db] = factor
        for k in range(db + 1):
            rem[dr - db + k] -= factor * bc[k]
        rem = rem[: dr + 1]
    return tuple(Polynomial((var,), {(i,): c for i, c in enumerate(coeffs)}) for coeffs in (q, rem))


UNIVARIATE = st.dictionaries(st.tuples(st.integers(0, 5)), COEFFICIENTS, max_size=4).map(
    lambda terms: Polynomial(("x",), terms)
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(UNIVARIATE, UNIVARIATE, UNIVARIATE, st.booleans())
def test_divmod_matches_the_former_univariate_loop(c, b, r, exact):
    if not b:
        return
    a = c * b if exact else c * b + r  # r is often zero or a multiple of b
    quotient, remainder = poly_divmod(a, b)
    expected_q, expected_r = former_divmod(a, b, "x")
    for result, expected in ((quotient, expected_q), (remainder, expected_r)):
        assert_canonical(result)
        assert result.variables == ("x",) and result.terms == expected.terms
    assert remainder.total_degree() < b.total_degree()
    if exact:
        assert not remainder


# ---------------------------------------------------------------------------
# int-or-Fraction coefficients against a reference over dict[exponent, Fraction]


def reference(p):
    """p's terms with every coefficient a Fraction, the form they all once had."""
    return {exp: Fraction(c) for exp, c in p.terms.items()}


def ref_add(a, b):
    out = dict(a)
    for exp, c in b.items():
        out[exp] = out.get(exp, 0) + c
    return {exp: c for exp, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


def ref_scale(a, s):
    return {exp: c * s for exp, c in a.items()} if s else {}


def ref_pow(a, k, arity):
    out = {(0,) * arity: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, replacements, arity):
    """The sum over a's terms of c * prod replacements[v]^e_v."""
    total = {}
    for exp, c in a.items():
        term = {(0,) * arity: c}
        for repl, e in zip(replacements, exp):
            term = ref_mul(term, ref_pow(repl, e, arity))
        total = ref_add(total, term)
    return total


def ref_divmod(a, b):
    """Univariate long division with Fraction coefficients: (q, r)."""
    q, r = {}, dict(a)
    (db,), lead = max(b.items())
    while r and max(r)[0] >= db:
        (dr,), c = max(r.items())
        t = {(dr - db,): c / lead}
        q = ref_add(q, t)
        r = ref_add(r, ref_scale(ref_mul(t, b), -1))
    return q, r


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_scale(a, 1 / max(a.items())[1]) if a else a


def assert_reference(result, expected, variables):
    assert_canonical(result)
    assert reference(result.with_variables(variables)) == expected


TWO = ("n", "x")
WIDE_COEFFICIENTS = st.one_of(
    INTS, FRACTIONS, st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**4)))
NONZERO = WIDE_COEFFICIENTS.filter(bool)


def small_polynomials(variables, max_terms=4, degree=3):
    exps = st.tuples(*[st.integers(0, degree)] * len(variables))
    return st.dictionaries(exps, WIDE_COEFFICIENTS, max_size=max_terms).map(
        lambda terms: Polynomial(variables, terms))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_polynomials(TWO), small_polynomials(TWO), NONZERO, st.integers(0, 3),
       small_polynomials(TWO, 3, 1), small_polynomials(TWO, 3, 1), st.integers(-3, 3),
       small_polynomials(("x",)), small_polynomials(("x",)), st.data())
def test_coefficient_forms_match_a_fraction_reference(p, q, s, k, rn, rx, offset, a, b, data):
    rp, rq = reference(p), reference(q)
    shift = {(0, 1): Fraction(1), (0, 0): Fraction(offset)} if offset else {(0, 1): Fraction(1)}
    for result, expected in [
        (p + q, ref_add(rp, rq)),
        (p - q, ref_add(rp, ref_scale(rq, -1))),
        (p * q, ref_mul(rp, rq)),
        (p * s, ref_scale(rp, s)),
        (s * p, ref_scale(rp, s)),
        (p / s, ref_scale(rp, 1 / Fraction(s))),
        (p / Polynomial.constant(s, TWO), ref_scale(rp, 1 / Fraction(s))),
        (p ** k, ref_pow(rp, k, 2)),
        (p.substitute({"n": rn, "x": rx}), ref_substitute(rp, [reference(rn), reference(rx)], 2)),
        (p.shifted({"x": offset}), ref_substitute(rp, [{(1, 0): Fraction(1)}, shift], 2)),
    ]:
        assert_reference(result, expected, TWO)
    assert_reference(p.with_variables(("z",) + TWO),
                     {(0,) + exp: c for exp, c in rp.items()}, ("z",) + TWO)
    # the public scalar returns stay Fractions
    point = {v: data.draw(st.one_of(INTS, FRACTIONS)) for v in TWO}
    value = p.eval(point)
    assert type(value) is Fraction
    assert value == sum(c * point["n"] ** e0 * point["x"] ** e1 for (e0, e1), c in rp.items())
    for constant in (Polynomial.constant(s, TWO), p - p, p * 0 + s):
        assert type(constant.constant_value()) is Fraction
    coeffs = a.univariate_coefficients("x")
    assert all(type(c) is Fraction for c in coeffs)
    assert {(e,): c for e, c in enumerate(coeffs) if c} == reference(a)
    if not b:
        return
    ra, rb = reference(a), reference(b)
    quotient, remainder = poly_divmod(a * b, b)
    assert_reference(quotient, ra, ("x",))
    assert not remainder
    quotient, remainder = poly_divmod(a, b)
    expected_q, expected_r = ref_divmod(ra, rb)
    assert_reference(quotient, expected_q, ("x",))
    assert_reference(remainder, expected_r, ("x",))
    assert_reference(poly_gcd(a, b), ref_gcd(ra, rb), ("x",))
    # the quotient's text: no float, the value a / b, in lowest terms
    text = quotient_text(a, b)
    assert "." not in text and "e" not in text
    num, den = text[1:-1].split(")/(") if text.startswith("(") else (text, "1")
    num, den = reference(P(num, ("x",))), reference(P(den, ("x",)))
    assert ref_mul(num, rb) == ref_mul(ra, den)
    assert ref_gcd(num, den) == {(0,): 1}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_polynomials(("x",)), NONZERO, st.sampled_from([(), ("x",), ("n",), ("n", "x")]))
def test_a_constant_divisor_divides_as_the_long_division(a, c, den_variables):
    # the shortcut for a constant divisor gives what the long division gives
    q, r = divmod(a, Polynomial.constant(c, den_variables))
    union = ("x",) + tuple(v for v in den_variables if v != "x")
    assert q.variables == r.variables == union
    expected_q, expected_r = ref_divmod(reference(a), {(0,): Fraction(c)})
    assert not r and not expected_r
    assert_reference(q.with_variables(("x",)), expected_q, ("x",))
    assert q == a / c


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


def pairwise_product(a, b):
    """a * b by the general loop: every pair of terms accumulated as
    Fractions over the union of the variables."""
    union = Polynomial._union_vars(a, b)
    a, b = a.with_variables(union), b.with_variables(union)
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            terms[exp] = terms.get(exp, 0) + Fraction(c1) * c2
    return Polynomial(union, terms)


@st.composite
def monomials(draw):
    """A polynomial of at most one term, in one or two variables."""
    variables = draw(st.sampled_from([("x",), ("n", "x"), ("x", "n")]))
    exp = draw(st.tuples(*[st.integers(0, 4)] * len(variables)))
    return Polynomial(variables, {exp: draw(COEFFICIENTS)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(monomials(), st.one_of(small_polynomials(TWO), polynomials(COEFFICIENTS)))
def test_monomial_products_match_the_pairwise_product(mono, p):
    # int monomials times int polynomials take the shift-and-scale path;
    # Fraction coefficients, zero operands and other term counts the general one
    for a, b in ((p, mono), (mono, p), (mono, mono)):
        got, expected = a * b, pairwise_product(a, b)
        assert_canonical(got)
        assert (got.variables, got.terms) == (expected.variables, expected.terms)
