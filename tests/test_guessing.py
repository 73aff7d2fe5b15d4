"""Recurrence-operator fitting: tables, operators, guessing, and the
leading-coefficient analysis."""

import functools
import itertools
import json
import math
import os
import random
from fractions import Fraction
from unittest import mock

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfansatz import guessing
from pfansatz.catalog import known_operators
from pfansatz.guessing import (
    CoverageError,
    DegenerateData,
    _equation_row,
    _monomials,
    _operator_from_vector,
    GuessSpec,
    RecurrenceOperator,
    Region,
    Table,
    UnderdeterminedData,
    apply_operator,
    guess_from_table,
    integer_roots,
    leading_nonvanishing,
    table_from_json_dict,
    table_to_json_dict,
)
from pfansatz.linalg import nullspace, solve_linear
from pfansatz.pipeline import c_table
from pfansatz.poly import Polynomial, PolynomialError, int_value, over_common_denominator, parse_poly
from pfansatz.sequences import family_from_descriptor, motzkin


def guess_univariate(data, spec):
    """Operators in n for the sequence `data`, n = 0, 1, ..."""
    return guess_from_table(Table.from_sequence(data), spec, ("n",))


# ---------------------------------------------------------------------------
# tables


def test_table_construction_and_lookup():
    t = Table.from_sequence([5, 6, 7])
    assert t.values == {(0,): 5, (1,): 6, (2,): 7}
    assert all(type(v) is Fraction for v in t.values.values())
    assert len(t) == 3


def test_table_arity_mismatch():
    with pytest.raises(ValueError):
        Table(2, {(1,): Fraction(1)})
    with pytest.raises(AttributeError):
        Table(1, {}).values = {}


def test_table_json_round_trip():
    t = Table(2, {(1, 2): Fraction(22, 15), (0, -1): Fraction(-3)})
    data = table_to_json_dict(t)
    back = table_from_json_dict(data)
    assert back.values == t.values and back.arity == 2
    assert json.dumps(data)  # serializable as-is


def test_table_json_rejects_duplicates_and_shapes():
    with pytest.raises(ValueError):
        table_from_json_dict(
            {"arity": 1, "values": [{"point": [0], "value": "1"},
                                    {"point": [0], "value": "2"}]}
        )
    with pytest.raises(ValueError):
        table_from_json_dict({"values": []})


# ---------------------------------------------------------------------------
# operators


def test_operator_normalization_content_and_sign():
    op = RecurrenceOperator.make(("n",), {(1,): "2/3*n", (0,): "-4/3"})
    # scaled to integer content 1 with positive leading term: n*S_n - 2
    assert dict(op.terms)[(1,)] == parse_poly("n", ("n",))
    assert dict(op.terms)[(0,)] == parse_poly("-2", ("n",))


def test_operator_normalization_idempotent_and_sign_deterministic():
    op = RecurrenceOperator.make(("n",), {(1,): "4*n - 3", (0,): "-4*n - 1"})
    again = RecurrenceOperator.make(op.variables, dict(op.terms))
    assert again == op
    flipped = RecurrenceOperator.make(
        ("n",), {s: c * Fraction(-7, 5) for s, c in op.terms}
    )
    assert flipped == op


def test_operator_duplicate_shift_merging_and_zero_rejection():
    merged = RecurrenceOperator.make(("n",), [((0,), "n"), ((0,), "-n + 1")])
    assert merged.terms == ((( 0,), Polynomial.constant(1, ("n",))),)
    with pytest.raises(ValueError):
        RecurrenceOperator.make(("n",), [((0,), "n"), ((0,), "-n")])


def test_operator_json_round_trip_and_term_order():
    op = RecurrenceOperator.make(("n", "i"), {(0, 0): "n*i", (-1, 1): "3", (0, -1): "i"})
    data = op.to_json_dict()
    assert data["vars"] == ["n", "i"]
    shifts = [tuple(t["shift"]) for t in data["terms"]]
    assert shifts == sorted(shifts)
    assert RecurrenceOperator.from_json_dict(json.loads(json.dumps(data))) == op


def test_operator_structure_queries():
    op = RecurrenceOperator.make(("n", "i"), {(0, 0): "n^2", (-2, 1): "i"})
    assert op.order_span() == (2, 1)
    assert op.coefficient_degree() == 2
    assert op.leading_coefficient() == parse_poly("n^2", ("n", "i"))


def test_translated_shifts_residuals():
    t = Table.from_sequence([Fraction(k * k) for k in range(10)])
    op = RecurrenceOperator.make(("n",), {(1,): "1", (0,): "-1"})  # forward difference
    moved = op.translated((2,))
    res_op = apply_operator(op, t)
    res_moved = apply_operator(moved, t)
    for p, v in res_moved.items():
        assert v == res_op[(p[0] + 2,)]


def test_admissible_points():
    t = Table.from_sequence([1, 2, 3, 4])
    op = RecurrenceOperator.make(("n",), {(0,): "1", (2,): "1"})
    assert guessing._admissible(t, op.shifts()) == [(0,), (1,)]


def test_apply_operator_examples():
    ones = Table.from_sequence([1] * 10)
    op = RecurrenceOperator.make(("n",), {(1,): "1", (0,): "-1"})
    assert set(apply_operator(op, ones).values()) == {0}

    powers = Table.from_sequence([Fraction(2) ** k for k in range(12)])
    op2 = RecurrenceOperator.make(("n",), {(1,): "1", (0,): "-2"})
    assert set(apply_operator(op2, powers).values()) == {0}


def test_apply_operator_coverage_error():
    t = Table.from_sequence([1, 2, 3])
    op = RecurrenceOperator.make(("n",), {(3,): "1", (0,): "-1"})
    with pytest.raises(CoverageError, match="no point has full data coverage"):
        apply_operator(op, t)


# ---------------------------------------------------------------------------
# guessing: univariate


def test_guess_motzkin_second_order():
    data = [motzkin(n) for n in range(41)]
    spec = GuessSpec(degree=1, orders=(2,))
    result = guess_univariate(data, spec)
    assert len(result.operators) == 1
    op = result.operators[0]
    # the unique operator annihilates well past the guessing range
    extended = Table.from_sequence([motzkin(n) for n in range(61)])
    assert all(v == 0 for v in apply_operator(op, extended).values())
    # windows disjoint, validation at least 25% of data
    assert not (set(result.data_window) & set(result.validation_window))
    assert len(result.validation_window) * 4 >= len(result.data_window)


def test_guess_constant_sequence():
    result = guess_univariate([1] * 30, GuessSpec(degree=0, orders=(1,)))
    target = RecurrenceOperator.make(("n",), {(1,): "1", (0,): "-1"})
    assert target in tuple(result.operators)


def test_guess_factorial():
    data = [Fraction(math.factorial(n)) for n in range(25)]
    result = guess_univariate(data, GuessSpec(degree=1, orders=(1,)))
    target = RecurrenceOperator.make(("n",), {(1,): "1", (0,): "-n - 1"})
    assert target in tuple(result.operators)


def test_guess_underdetermined_is_distinct_from_no_fit():
    with pytest.raises(UnderdeterminedData) as info:
        guess_univariate([1, 2, 4], GuessSpec(degree=2, orders=(2,)))
    assert info.value.available < info.value.needed
    # same class, enough data, but genuinely no fit -> empty result, no error
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
    result = guess_univariate(primes, GuessSpec(degree=1, orders=(1,), margin=4))
    assert len(result.operators) == 0


def test_guess_stability_longer_window():
    short = Table.from_sequence([motzkin(n) for n in range(31)])
    long_result = guess_univariate(
        [motzkin(n) for n in range(41)], GuessSpec(degree=1, orders=(2,))
    )
    for op in long_result.operators:
        assert all(v == 0 for v in apply_operator(op, short).values())


def test_guess_rejects_bad_specs():
    with pytest.raises(ValueError):
        guess_univariate([1, 2, 3], GuessSpec(degree=1))  # neither support nor orders
    with pytest.raises(ValueError):
        guess_univariate(
            [1, 2, 3], GuessSpec(degree=1, orders=(1,), support=((0,), (1,)))
        )


# ---------------------------------------------------------------------------
# guessing: bivariate


def test_guess_linear_table_kernel():
    pts = {(n, i): Fraction(n + i) for n in range(8) for i in range(8)}
    spec = GuessSpec(degree=0, support=((0, 0), (1, 0), (0, 1)), margin=5)
    result = guess_from_table(Table(2, pts), spec, ("n", "i"))
    # the kernel of this class on f = n + i is exactly the difference operator
    assert len(result.operators) == 1
    assert result.operators[0] == RecurrenceOperator.make(
        ("n", "i"), {(1, 0): "1", (0, 1): "-1"}
    )


def test_guess_all_zero_table_is_diagnostic_not_fit():
    pts = {(n, i): Fraction(0) for n in range(6) for i in range(6)}
    with pytest.raises((DegenerateData, UnderdeterminedData)):
        guess_from_table(Table(2, pts), GuessSpec(degree=1, orders=(1, 1)), ("n", "i"))


def test_guess_empty_data_degenerate():
    with pytest.raises((DegenerateData, UnderdeterminedData)):
        guess_univariate([], GuessSpec(degree=1, orders=(1,)))


def test_guess_reduction_drops_consequences():
    # products of n and shifted copies: the difference operator annihilates,
    # and so do its shift/multiply consequences; reduction should leave one
    pts = {(n, i): Fraction(2) ** (n + i) for n in range(7) for i in range(7)}
    spec = GuessSpec(degree=1, orders=(1, 1), margin=5)
    result = guess_from_table(Table(2, pts), spec, ("n", "i"))
    assert result.operators
    full = Table(2, pts)
    for op in result.operators:
        assert all(v == 0 for v in apply_operator(op, full).values())
    # the raw kernel: the nullspace of the equation rows at every admissible point
    monomials = _monomials(2, 1)
    raw = nullspace([_equation_row(full, result.support, monomials, p)
                     for p in guessing._admissible(full, result.support)])
    assert len(raw) >= len(result.operators)
    assert result.reduced_away == len(raw) - len(result.operators)


# ---------------------------------------------------------------------------
# integer roots


def test_integer_roots_examples():
    assert integer_roots(parse_poly("4*n - 7", ("n",))) == []
    assert integer_roots(parse_poly("(n - 2)*(2*n - 5)", ("n",))) == [2]
    assert integer_roots(parse_poly("n^2 - 1", ("n",))) == [-1, 1]
    assert integer_roots(parse_poly("n^2 + n", ("n",))) == [-1, 0]
    assert integer_roots(parse_poly("5", ("n",))) == []
    with pytest.raises(ValueError):
        integer_roots(Polynomial.zero(("n",)))


def test_integer_roots_rational_coefficients():
    assert integer_roots(parse_poly("1/2*n - 3/2", ("n",))) == [3]


# ---------------------------------------------------------------------------
# regions and leading coefficients


def test_region_parse_and_satisfied():
    reg = Region.parse("n >= 2 and i - 2*n >= 0")
    assert reg.satisfied({"n": 2, "i": 4})
    assert not reg.satisfied({"n": 1, "i": 4})
    assert not reg.satisfied({"n": 3, "i": 5})
    with pytest.raises(ValueError):
        Region.parse("n ?? 3")


def test_leading_univariate_exact():
    op = RecurrenceOperator.make(("n",), {(1,): "1", (0,): "-1"})
    rep = leading_nonvanishing(op, Region.parse("n >= 0"))
    assert rep.mode == "exact" and rep.clear

    op2 = RecurrenceOperator.make(("n",), {(1,): "n - 2", (0,): "-1"})
    rep2 = leading_nonvanishing(op2, Region.parse("n >= 1"))
    assert rep2.mode == "exact"
    assert rep2.vanishing == ({"n": 2},)
    assert not rep2.clear
    # outside the region the root is filtered away
    assert leading_nonvanishing(op2, Region.parse("n >= 3")).clear


def test_leading_bivariate_window_verified():
    entry = next(e for e in known_operators("motzkin") if e.name == "c-mixed-order-1")
    rep = leading_nonvanishing(
        entry.operator,
        Region.parse("n >= 2 and i - 2*n >= 0"),
        window={"n": (2, 30), "i": (2, 80)},
    )
    assert rep.mode == "window"
    assert rep.clear
    assert rep.to_json_dict()["window"] == {"i": [2, 80], "n": [2, 30]}


def test_leading_bivariate_requires_window():
    op = RecurrenceOperator.make(("n", "i"), {(1, 0): "n*i - 1", (0, 0): "1"})
    with pytest.raises(ValueError):
        leading_nonvanishing(op, Region.parse("n >= 0 and i >= 0"))


def test_leading_bivariate_finds_vanishing_points():
    op = RecurrenceOperator.make(("n", "i"), {(1, 0): "n - i", (0, 0): "1"})
    rep = leading_nonvanishing(op, Region.parse("n >= 1 and i >= 1"), window={"n": (1, 5), "i": (1, 5)})
    assert {"n": 3, "i": 3} in rep.vanishing
    assert len(rep.vanishing) == 5


# ---------------------------------------------------------------------------
# integer evaluation on the residual and guessing paths, against references

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
DATA = os.path.join(os.path.dirname(__file__), "data")


def reference_eval(poly, point):
    """Polynomial.eval's Fraction loop, kept here as the reference."""
    total = Fraction(0)
    for exp, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(poly.variables, exp):
            if e:
                term *= Fraction(point[v]) ** e
        total += term
    return total


def reference_residual(op, table, point):
    total = Fraction(0)
    binding = dict(zip(op.variables, point))
    for shift, coeff in op.terms:
        v = table.values.get(tuple(p + s for p, s in zip(point, shift)))
        if v is None:
            return None
        total += reference_eval(coeff, binding) * v
    return total


CATALOG_FAMILIES = ("delannoy", "motzkin")


@functools.cache
def _family_tables(name):
    family = family_from_descriptor(name)
    rows = c_table(family, 8)
    return {kind: rows.table(kind) for kind in ("c", "g", "r")}


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_catalog_residuals_match_fraction_reference(family):
    tables = _family_tables(family)
    entries = known_operators(family)
    assert entries
    for entry in entries:
        table = tables[entry.target]
        residuals = apply_operator(entry.operator, table)
        assert residuals
        for p, r in residuals.items():
            assert type(r) is Fraction
            assert r == reference_residual(entry.operator, table, p)
        # outside the admissible set a missing value still gives None
        far = tuple(1000 for _ in entry.operator.variables)
        assert entry.operator.residual_at(table, far) is None


@st.composite
def rational_tables(draw):
    """A catalog operator and a table of random rationals on its variables'
    grid, so residuals are nonzero and need a common denominator."""
    family = draw(st.sampled_from(CATALOG_FAMILIES))
    entry = draw(st.sampled_from(known_operators(family)))
    template = _family_tables(family)[entry.target]
    values = {
        p: Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 12)))
        for p in sorted(template.values)
    }
    return entry.operator, Table(template.arity, values)


@PROPERTY
@given(rational_tables())
def test_residuals_on_rational_tables_match_reference(case):
    op, table = case
    residuals = apply_operator(op, table)
    for p, r in residuals.items():
        assert r == reference_residual(op, table, p)


def former_residual(op, table, point):
    """RecurrenceOperator.residual_at's former loop: a running common
    denominator, widened as each shifted value is read."""
    total = 0
    den = 1
    for shift, coeff in op.terms:
        v = table.values.get(tuple(p + s for p, s in zip(point, shift)))
        if v is None:
            return None
        d = v.denominator
        if den % d:
            step = d // math.gcd(den, d)
            total *= step
            den *= step
        total += int_value(coeff.int_form(), point) * v.numerator * (den // d)
    return Fraction(total, den)


@PROPERTY
@given(rational_tables(), st.data())
def test_residual_at_matches_former_loop(case, data):
    op, table = case
    points = guessing._admissible(table, op.shifts())
    # a point next to the grid has a missing shifted value
    edge = tuple(c - 1 for c in min(table.values))
    for p in data.draw(st.lists(st.sampled_from(points), max_size=8)) + [edge]:
        got = op.residual_at(table, p)
        assert got == former_residual(op, table, p)
        assert got is None or type(got) is Fraction


@settings(derandomize=True, max_examples=20, deadline=None)
@given(rational_tables(), st.data())
def test_solve_at_zeroes_the_residual(case, data):
    op, table = case
    lead = dict(op.terms)[(0,) * table.arity]
    points = guessing._admissible(table, op.shifts())
    for p in data.draw(st.lists(st.sampled_from(points), max_size=6)):
        got = op.solve_at(table.values.get, p)
        if not lead.eval(dict(zip(op.variables, p))):
            assert got is None
            continue
        assert type(got) is Fraction
        assert op.residual_at(Table(table.arity, {**table.values, p: got}), p) == 0
    # a point next to the grid has a missing shifted value
    assert op.solve_at(table.values.get, tuple(c - 1 for c in min(table.values))) is None


def former_solve_at(op, value, point):
    """RecurrenceOperator.solve_at's former body: its own copy of the
    residual sum, with the zero-shift term split out first."""
    lead = 0
    others = []
    for shift, coeff in op.terms:
        if any(shift):
            others.append((shift, coeff))
        else:
            lead = int_value(coeff.int_form(), point)
    if not lead:
        return None
    shifted = [value(tuple(p + s for p, s in zip(point, shift))) for shift, _ in others]
    if None in shifted:
        return None
    ints, den = over_common_denominator(shifted)
    total = sum(int_value(c.int_form(), point) * v for (_, c), v in zip(others, ints))
    return Fraction(-total, den * lead)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(rational_tables(), st.data())
def test_solve_at_matches_former_solve(case, data):
    op, table = case
    zero = (0,) * table.arity
    points = sorted(table.values)
    # missing shifted values: some table points are dropped
    dropped = set(data.draw(st.lists(st.sampled_from(points), max_size=4)))
    value = {p: v for p, v in table.values.items() if p not in dropped}.get
    at = data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=6))
    others = [t for t in op.terms if any(t[0])]
    first = Polynomial.variable(op.variables[0]).with_variables(op.variables)
    vanishing = [RecurrenceOperator.make(op.variables, others + [(zero, first - p[0])])
                 for p in at[:2]]
    for variant in [
        op,
        RecurrenceOperator.make(op.variables, others),  # no zero shift
        RecurrenceOperator.make(op.variables, [(zero, dict(op.terms)[zero])]),  # only it
        *vanishing,  # its coefficient vanishes at a drawn point
    ]:
        for p in at + [tuple(c - 1 for c in min(table.values))]:
            got = variant.solve_at(value, p)
            assert got == former_solve_at(variant, value, p)
            assert got is None or type(got) is Fraction
    for variant, p in zip(vanishing, at):
        assert variant.solve_at(value, p) is None


def former_int_residual(op, table, point):
    """RecurrenceOperator.residual_at's former per-point evaluation: each
    coefficient by `int_value` at the point, over the table's integer form."""
    ints, den = table.int_form()
    shifted = [ints.get(tuple(p + s for p, s in zip(point, shift))) for shift, _ in op.terms]
    if None in shifted:
        return None
    return Fraction(sum(int_value(c.int_form(), point) * v
                        for (_, c), v in zip(op.terms, shifted)), den)


@st.composite
def line_cases(draw):
    """A random integer operator in 1-3 variables with a zero shift, a table
    of rationals (zeros among them) on a box with negative coordinates, and
    the box's points in shuffled order, some twice."""
    arity = draw(st.integers(1, 3))
    variables = ("n", "i", "j")[:arity]
    side = (5, 4, 3)[arity - 1]
    box = list(itertools.product(range(-2, side - 2), repeat=arity))
    monomials = _monomials(arity, 2)
    free = [m for m in monomials if not m[-1]]  # free of the last variable

    def coefficient():
        pool = draw(st.sampled_from((monomials, free)))
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        terms = {m: draw(st.integers(-4, 4)) for m in chosen}
        if not any(terms.values()):
            return Polynomial.constant(1, variables)
        return Polynomial(variables, terms)

    shifts = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * arity), min_size=1, max_size=3,
                           unique=True))
    zero = (0,) * arity
    at = draw(st.sampled_from(box))
    # the lead vanishes on the plane through `at` normal to a drawn variable
    k = draw(st.integers(0, arity - 1))
    lead = draw(st.sampled_from((
        coefficient(),
        Polynomial.variable(variables[k]).with_variables(variables) - at[k],
    )))
    op = RecurrenceOperator.make(variables, [(zero, lead)] + [
        (s, coefficient()) for s in shifts if s != zero])
    table = Table(arity, {p: Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
                          for p in box})
    points = draw(st.permutations(box + draw(st.lists(st.sampled_from(box), max_size=6))))
    return op, table, points


@settings(derandomize=True, max_examples=40, deadline=None)
@given(line_cases())
def test_line_wise_evaluation_matches_the_per_point_one(case):
    """residual_at and solve_at, whose coefficients come from a per-line
    cache, against the former evaluation of every coefficient at the point,
    over points visited in shuffled order so the cached line changes."""
    op, table, points = case
    value = table.values.get
    lead = dict(op.terms)[(0,) * table.arity]
    for p in points:
        assert op.residual_at(table, p) == former_int_residual(op, table, p)
        got = op.solve_at(value, p)
        assert got == former_solve_at(op, value, p)
        if not int_value(lead.int_form(), p):
            assert got is None


def former_make_scale(coefficients):
    """RecurrenceOperator.make's former content loop: the lcm of the
    denominators over the gcd of the numerators."""
    den = 1
    num = 0
    for c in coefficients:
        for q in c.terms.values():
            den = math.lcm(den, q.denominator)
            num = math.gcd(num, q.numerator)
    return Fraction(den, num if num else 1)


@st.composite
def operator_terms(draw):
    """Distinct shifts with nonzero rational polynomial coefficients."""
    arity = draw(st.integers(1, 2))
    variables = ("n", "i")[:arity]
    shifts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * arity), min_size=1,
                           max_size=4, unique=True))
    coefficient = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    exps = st.tuples(*[st.integers(0, 2)] * arity)
    terms = {}
    for shift in shifts:
        poly = Polynomial(variables, draw(st.dictionaries(exps, coefficient, min_size=1, max_size=4)))
        if poly:
            terms[shift] = poly
    hypothesis.assume(terms)
    return variables, terms


@PROPERTY
@given(operator_terms())
def test_make_scales_like_former_loop(case):
    variables, terms = case
    scale = former_make_scale(terms.values())
    lead = max(terms)
    if terms[lead].leading_term()[1] * scale < 0:
        scale = -scale
    op = RecurrenceOperator.make(variables, terms)
    assert op.terms == tuple(sorted((s, c * scale) for s, c in terms.items()))
    assert all(c.int_form() is not None for _, c in op.terms)


def test_make_normalizes_to_integer_coefficients():
    op = RecurrenceOperator.make(("n",), {(1,): "n/2 + 1/3", (0,): Fraction(-5, 4)})
    assert all(coeff.int_form() is not None for _, coeff in op.terms)
    assert str(op) == "(6*n + 4)*S_n + (-15)"


def seeded_guess_cases():
    """(label, table, spec, variables) on seeded tables with rational values:
    first-order hypergeometric sequences, perturbed ones (validation rejects
    candidates) and bivariate power tables (consequences reduced away)."""
    cases = []
    for seed in range(4):
        rng = random.Random(seed)
        a = [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
        p0, p1, q0, q1 = (rng.randint(1, 5) for _ in range(4))
        for n in range(34):
            a.append(a[-1] * (p1 * n + p0) / (q1 * n + q0))
        cases.append((f"hyper-{seed}", Table.from_sequence(a),
                      GuessSpec(degree=1, orders=(1,)), ("n",)))
        bent = list(a)
        bent[30] += 1
        cases.append((f"bent-{seed}", Table.from_sequence(bent),
                      GuessSpec(degree=1, orders=(1,), extra_equations=8, margin=4), ("n",)))
        r, s = Fraction(rng.randint(1, 5), rng.randint(1, 5)), Fraction(rng.randint(2, 5), 3)
        grid = {(n, i): r ** n * s ** i * (n + i + seed) for n in range(8) for i in range(8)}
        cases.append((f"power-{seed}", Table(2, grid),
                      GuessSpec(degree=1, orders=(1, 1), margin=5), ("n", "i")))
    return cases


def test_seeded_guess_results_unchanged():
    """Results recorded from the Fraction-row implementation."""
    with open(os.path.join(DATA, "guess_seeded.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    cases = seeded_guess_cases()
    assert [label for label, *_ in cases] == list(expected)
    for label, table, spec, variables in cases:
        got = guess_from_table(table, spec, variables).to_json_dict()
        assert got == expected[label], label


def test_seeded_cases_cover_rejection_and_reduction():
    with open(os.path.join(DATA, "guess_seeded.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert any(r["rejected_by_validation"] for r in expected.values())
    assert any(r["reduced_away"] for r in expected.values())
    assert all(r["operators"] for k, r in expected.items() if k.startswith("hyper"))


def test_guess_builds_each_row_once_and_evaluates_no_residual(monkeypatch):
    built = []

    def counted_row(table, support, monomials, p):
        built.append(p)
        return _equation_row(table, support, monomials, p)

    def no_residual(self, table, point):
        raise AssertionError("guessing evaluated a residual")

    monkeypatch.setattr(guessing, "_equation_row", counted_row)
    monkeypatch.setattr(RecurrenceOperator, "residual_at", no_residual)
    with open(os.path.join(DATA, "guess_seeded.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    for label, table, spec, variables in seeded_guess_cases():
        built.clear()
        result = guess_from_table(table, spec, variables)
        assert result.to_json_dict() == expected[label], label
        assert len(built) == len(set(built)), label
        assert built[:len(result.data_window)] == list(result.data_window), label
        if result.rejected_by_validation:
            # the check rows: the validation points with a nonzero equation
            assert set(built[len(result.data_window):]) <= set(result.validation_window), label
        else:
            assert built == list(result.data_window), label


@st.composite
def rows_and_vectors(draw):
    """A table of small rationals, zero-extended outside a triangle when it
    is bivariate, a support/degree class on it, and integer vectors in that
    class: one random nonzero vector plus the kernel of the rows at a few
    drawn points, so that both zero and nonzero dot products occur."""
    arity = draw(st.sampled_from((1, 2)))
    size = draw(st.integers(4, 7))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    values = {}
    for p in itertools.product(range(size), repeat=arity):
        zero_extended = arity == 2 and p[1] > p[0] + 1
        values[p] = Fraction(0) if zero_extended else draw(value)
    table = Table(arity, values)
    shifts = list(itertools.product(range(2), repeat=arity))
    support = tuple(sorted(draw(st.lists(st.sampled_from(shifts), min_size=1,
                                         max_size=len(shifts), unique=True))))
    monomials = _monomials(arity, draw(st.integers(0, 2)))
    width = len(support) * len(monomials)
    vec = draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))
    hypothesis.assume(any(vec))
    variables = ("n", "i")[:arity]
    admissible = guessing._admissible(table, support)
    hypothesis.assume(admissible)
    picked = draw(st.lists(st.sampled_from(admissible), max_size=width - 1, unique=True))
    rows = [_equation_row(table, support, monomials, p) for p in picked]
    kernel = nullspace(rows) if rows else []
    return table, variables, support, monomials, admissible, [tuple(vec)] + kernel


@PROPERTY
@given(rows_and_vectors())
def test_row_dot_product_vanishes_with_the_residual(case):
    table, variables, support, monomials, admissible, vectors = case
    for vec in vectors:
        op = _operator_from_vector(variables, support, monomials, vec)
        for p in admissible:
            row = _equation_row(table, support, monomials, p)
            dot = sum(a * b for a, b in zip(row, vec))
            assert (dot == 0) == (op.residual_at(table, p) == 0)


def reference_equation_row(table, support, monomials, p):
    """The former equation row: scaled by the lcm of its own values'
    denominators, not by the table's."""
    scaled, _ = over_common_denominator([table.values[tuple(a + b for a, b in zip(p, s))]
                                         for s in support])
    powers = [math.prod(base ** e for base, e in zip(p, m)) for m in monomials]
    return [pm * v for v in scaled for pm in powers]


def reference_rejected(table, support, monomials, points, kernel):
    """The former per-vector validation: the number of kernel vectors with a
    nonzero dot product against some check row."""
    checks = [reference_equation_row(table, support, monomials, p) for p in points]
    passed = [vec for vec in kernel if not any(sum(a * b for a, b in zip(row, vec)) for row in checks)]
    return len(kernel) - len(passed)


@PROPERTY
@given(rows_and_vectors(), st.sampled_from(("drawn", "kernel", "kernel and drawn")))
# kernels whose vectors all vanish on the coordinates of shift (1,), which
# the packed operator leaves out: one rejects at (0,), one passes
@hypothesis.example((Table.from_sequence([1, 0, 2, 3]), ("n",), ((0,), (1,)), [(0,), (1,)],
                     [(0,), (1,), (2,)], [(1, 0, 0, 0), (0, 2, 0, 0)]), "drawn")
@hypothesis.example((Table.from_sequence([0, 0, 5]), ("n",), ((0,), (1,)), [(0,), (1,)],
                     [(0,), (1,)], [(3, -1, 0, 0)]), "drawn")
def test_packed_validation_matches_the_per_vector_test(case, mode):
    """The drawn vectors, the kernel of the rows at the tested points (which
    passes), or that kernel with the random vector added."""
    table, variables, support, monomials, admissible, vectors = case
    usable = [p for p in admissible
              if any(table.values[tuple(a + b for a, b in zip(p, s))] for s in support)]
    hypothesis.assume(usable)
    for points in (usable, usable[:1], usable[-2:]):
        kernel = vectors
        if mode != "drawn":
            kernel = nullspace([reference_equation_row(table, support, monomials, p) for p in points])
            kernel += vectors[:1] if mode == "kernel and drawn" else []
        if kernel:
            assert guessing._packed_rejects(table, support, monomials, points, kernel) == (
                reference_rejected(table, support, monomials, points, kernel) > 0)


def test_packed_validation_slots_hold_the_largest_dot_product():
    """Two vectors whose dot products d0 > 0 and d1 < 0 cancel in slots one
    step too narrow (d0 == -d1 * 2^t): the packed sum must still see them.
    In the second case the monomial powers, not the values, make d0 large."""
    m = 2 ** 9
    table = Table.from_sequence([1, 1])
    support, monomials = ((0,), (1,)), [(0,)]
    assert 2 * m == 2 ** 10  # d0 with the kernel below; d1 = -1
    assert guessing._packed_rejects(table, support, monomials, [(0,)], [(m, m), (1, -2)])
    assert not guessing._packed_rejects(table, support, monomials, [(0,)], [(m, -m), (1, -1)])
    m = 2 ** 4
    table = Table(1, {(32,): 1, (33,): 1})
    support, monomials = ((0,), (1,)), [(0,), (1,)]
    kernel = [(0, m, 0, m), (-4, 0, 0, 0)]  # d0 = 2 * 32 * m = 2^10, d1 = -4
    assert guessing._packed_rejects(table, support, monomials, [(32,)], kernel)
    assert reference_rejected(table, support, monomials, [(32,)], kernel) == 2


@st.composite
def perturbed_guess_cases(draw):
    """A hypergeometric sequence or a bivariate power table with a guess
    class that fits it, and now and then one value moved, most often at a
    late point, which the validation window holds."""
    value = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
    if draw(st.booleans()):
        a = [draw(value)]
        p0, p1, q0, q1 = (draw(st.integers(1, 6)) for _ in range(4))
        for n in range(draw(st.integers(26, 34))):
            a.append(a[-1] * (p1 * n + p0) / (q1 * n + q0))
        table = Table.from_sequence(a)
        spec, variables = GuessSpec(degree=1, orders=(1,), extra_equations=8, margin=4), ("n",)
    else:
        r, s = draw(value), draw(value)
        c = draw(st.integers(0, 5))
        table = Table(2, {(n, i): r ** n * s ** i * (n + i + c) for n in range(8) for i in range(8)})
        spec, variables = GuessSpec(degree=1, orders=(1, 1), margin=5), ("n", "i")
    if draw(st.integers(0, 2)):
        points = sorted(table.values)
        at = points[draw(st.integers(len(points) // 2, len(points) - 1))]
        values = dict(table.values)
        values[at] += draw(value)
        table = Table(table.arity, values)
    return table, spec, variables


def test_packed_validation_guesses_as_the_per_vector_test():
    """Whole guesses with the packed test and with the former per-vector one
    agree, over tables whose validation rejects candidates (the
    `nullspace(matrix + checks)` fallback) and tables whose does not."""
    outcomes = set()

    def per_vector(table, support, monomials, points, kernel):
        return reference_rejected(table, support, monomials, points, kernel) > 0

    @PROPERTY
    @given(perturbed_guess_cases())
    def agrees(case):
        table, spec, variables = case
        try:
            got = guess_from_table(table, spec, variables).to_json_dict()
        except guessing.GuessingError as e:
            got = str(e)
        with mock.patch.object(guessing, "_packed_rejects", per_vector):
            try:
                want = guess_from_table(table, spec, variables).to_json_dict()
            except guessing.GuessingError as e:
                want = str(e)
        assert got == want
        if isinstance(got, dict):
            outcomes.add("rejected" if got["rejected_by_validation"] else "passed")

    agrees()
    assert outcomes == {"rejected", "passed"}


def test_guess_spec_rejects_negative_bounds():
    for bad in ({"degree": -1}, {"degree": 1, "margin": -1},
                {"degree": 1, "extra_equations": -2}):
        with pytest.raises(ValueError, match="must be >= 0"):
            GuessSpec(orders=(1,), **bad)
    GuessSpec(degree=0, orders=(1,), margin=0, extra_equations=0)


def test_guess_spec_needs_exactly_one_of_support_and_orders():
    for shifts in ({}, {"support": ((0,), (1,)), "orders": (1,)}):
        with pytest.raises(ValueError, match="exactly one of support/orders"):
            GuessSpec(degree=1, **shifts)


# ---------------------------------------------------------------------------
# consequence reduction and the window scan, against the constructions they
# replaced (copies kept here as the oracles)


def reference_vectorize(op, support, monomials):
    index = {(s, m): k for k, (s, m) in enumerate((s, m) for s in support for m in monomials)}
    vec = [Fraction(0)] * len(index)
    for shift, coeff in op.terms:
        for exp, q in coeff.with_variables(op.variables).terms.items():
            if (shift, exp) not in index:
                return None
            vec[index[(shift, exp)]] = q
    return vec


def reference_is_consequence(op, base, support_set, degree, variables, monomials):
    """Every generator built as a normalized operator through `make`."""
    support = tuple(sorted(support_set))
    target = reference_vectorize(op, support, monomials)
    if target is None:
        return False
    base_shifts = base.shifts()
    offsets = {tuple(a - b for a, b in zip(s, base_shifts[0])) for s in support_set}
    gens = []
    for off in sorted(offsets):
        if not all(tuple(a + b for a, b in zip(s, off)) in support_set for s in base_shifts):
            continue
        translated = base.translated(off)
        for m in _monomials(len(variables), degree - base.coefficient_degree()):
            mono = Polynomial(variables, {m: Fraction(1)})
            scaled = RecurrenceOperator.make(variables, [(s, c * mono) for s, c in translated.terms])
            v = reference_vectorize(scaled, support, monomials)
            if v is not None:
                gens.append(v)
    if not gens:
        return False
    matrix = [[g[k] for g in gens] for k in range(len(target))]
    return solve_linear(matrix, target) is not None


def _images(base, support_set, degree):
    """A few q * S^off * base images and a sum of two, inside the bounds."""
    variables = base.variables
    out = []
    for off in sorted({tuple(a - b for a, b in zip(s, base.shifts()[0])) for s in support_set}):
        if all(tuple(a + b for a, b in zip(s, off)) in support_set for s in base.shifts()):
            out.append(base.translated(off))
    room = degree - base.coefficient_degree()
    if out and room >= 1:
        q = Polynomial(variables, {m: Fraction(k + 2) for k, m in enumerate(_monomials(len(variables), 1))})
        out.append(RecurrenceOperator.make(variables, [(s, c * q) for s, c in out[-1].terms]))
    if len(out) >= 2:
        merged = dict((s, c) for s, c in out[0].terms)
        for s, c in out[-1].terms:
            merged[s] = merged[s] + c * 3 if s in merged else c * 3
        if any(merged.values()):
            out.append(RecurrenceOperator.make(variables, merged))
    return out[:4]


def _consequence_groups():
    """(operators, support set, degree) from the seeded guesses and from
    pairs of catalog operators, each group's operators with some images of
    each of them."""
    with open(os.path.join(DATA, "guess_seeded.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    groups = []
    for result in expected.values():
        ops = [RecurrenceOperator.from_json_dict(o) for o in result["operators"]]
        support = {tuple(s) for s in result["support"]}
        groups.append((ops, support, result["degree"]))
    for family in CATALOG_FAMILIES:
        by_target = {}
        for entry in known_operators(family):
            by_target.setdefault(entry.target, []).append(entry.operator)
        for ops in by_target.values():
            for a, b in itertools.combinations(ops, 2):
                shifts = a.shifts() + b.shifts()
                box = itertools.product(*(
                    range(min(s[k] for s in shifts), max(s[k] for s in shifts) + 1)
                    for k in range(len(a.variables))
                ))
                degree = max(a.coefficient_degree(), b.coefficient_degree())
                groups.append(([a, b], set(box), degree))
    return [(ops + [img for base in ops for img in _images(base, support, degree)],
             ops, support, degree) for ops, support, degree in groups if ops]


def test_is_consequence_matches_operator_construction():
    """Each group's candidates in the guess's sort order, each tested
    against every base through one cache, as `guess_from_table` does: the
    same outcome as the reference, each base's images built once, and
    candidates outside the span that pass the solve of the chosen rows and
    fail the check of every row."""
    outcomes = set()
    solves = []

    def recorded(matrix, rhs):
        solution = solve_linear(matrix, rhs)
        solves.append(solution is not None)
        return solution

    built = []
    independent_rows = guessing._independent_rows

    def counted(gens, size):
        built.append(len(gens))
        return independent_rows(gens, size)

    full_check_only = 0
    with mock.patch.object(guessing, "solve_linear", recorded), \
            mock.patch.object(guessing, "_independent_rows", counted):
        for candidates, bases, support, degree in _consequence_groups():
            variables = bases[0].variables
            monomials = _monomials(len(variables), degree)
            is_consequence = guessing._Consequences(
                tuple(sorted(support)), degree, variables, monomials)
            built.clear()
            for op in sorted(candidates, key=guessing._sort_key):
                for base in bases:
                    if op is base:
                        continue
                    del solves[:]
                    got = is_consequence(op, base)
                    assert got == reference_is_consequence(
                        op, base, support, degree, variables, monomials), (str(op), str(base))
                    outcomes.add(got)
                    full_check_only += not got and solves == [True]
            assert len(built) == len(is_consequence.images) <= len(bases)
    assert outcomes == {True, False}
    assert full_check_only


@st.composite
def spans(draw):
    """Sparse integer vectors, some combinations of the others (a rank-deficient
    set), and a target inside or outside their span."""
    size = draw(st.integers(1, 8))
    entry = st.integers(-3, 3)
    gens = [draw(st.lists(entry, min_size=size, max_size=size))
            for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
        gens.append([a * x + b * y for x, y in zip(gens[0], gens[-1])])
    coefficients = draw(st.lists(entry, min_size=len(gens), max_size=len(gens)))
    target = [sum(c * g[k] for c, g in zip(coefficients, gens)) for k in range(size)]
    if draw(st.booleans()):
        k = draw(st.integers(0, size - 1))
        target[k] += draw(st.integers(1, 3))
    return [{k: v for k, v in enumerate(g) if v} for g in gens], target


@PROPERTY
@given(spans())
def test_span_test_on_the_chosen_rows_matches_the_full_solve(case):
    gens, target = case
    size = len(target)
    rows = guessing._independent_rows(gens, size)
    full = [[g.get(k, 0) for g in gens] for k in range(size)]
    expected = solve_linear(full, target) is not None
    assert guessing._in_span({k: v for k, v in enumerate(target) if v}, gens, rows) == expected
    # the chosen rows are independent, and as many as the matrix's rank
    chosen = [full[k] for k in rows]
    rank = len(gens) - len(nullspace(full))
    assert len(rows) == rank == (len(gens) - len(nullspace(chosen)) if chosen else 0)


C_REGION = "n >= 1 and i >= 1 and 2*n-1-i >= 0"


def reference_window_hits(op, region, window):
    """The box scan as it was: every window point, region test first."""
    region = Region.parse(region)
    lead = op.leading_coefficient()
    names = sorted(window)
    hits = []
    for combo in itertools.product(*(range(window[v][0], window[v][1] + 1) for v in names)):
        point = dict(zip(names, combo))
        if region.satisfied(point) and reference_eval(lead, point) == 0:
            hits.append(point)
    return tuple(hits)


def _check_window_scan(op, region, window):
    first = leading_nonvanishing(op, Region.parse(region), window)
    again = leading_nonvanishing(op, Region.parse(region), window)
    assert first.mode == "window"
    assert first.vanishing == reference_window_hits(op, region, window)
    assert again.to_json_dict() == first.to_json_dict()
    return first


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_window_scan_matches_box_scan_on_catalog(family):
    regions = {"c": (C_REGION, "i"), "g": ("n >= 1 and j >= 1 and 2*n-j >= 0", "j")}
    seen = 0
    for entry in known_operators(family):
        if entry.target not in regions:
            continue
        region, second = regions[entry.target]
        for size in (6, 12):
            if len(entry.operator.leading_coefficient().effective_variables()) < 2:
                continue
            _check_window_scan(entry.operator, region, {"n": (1, size), second: (1, 2 * size)})
            seen += 1
    assert seen


@st.composite
def bivariate_leads(draw):
    """Operators whose leading coefficient is a product of integer linear
    factors in n and i, plus now and then a term that breaks the product."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
        factors.append(f"({a}*n + {b}*i + {c})")
    text = "*".join(factors) + (" + n*i" if draw(st.booleans()) else "")
    lead = parse_poly(text, ("n", "i"))
    hypothesis.assume(len(lead.effective_variables()) == 2)
    return RecurrenceOperator.make(("n", "i"), [((1, 0), lead), ((0, 0), "n + 1")])


@PROPERTY
@given(bivariate_leads(), st.integers(2, 7))
def test_window_scan_matches_box_scan_on_random_leads(op, size):
    _check_window_scan(op, C_REGION, {"n": (1, size), "i": (1, 2 * size - 1)})


# ---------------------------------------------------------------------------
# integer kernels of the certify path, against the former loops


def former_integer_roots(ints):
    """The former root search: every divisor d of the lowest nonzero
    coefficient, and -d, tried in turn (0 when lower ones vanish)."""
    low = 0
    while ints[low] == 0:
        low += 1
    roots = {0} if low else set()
    constant = abs(ints[low])
    for d in range(1, constant + 1):
        if constant % d == 0:
            roots.update(c for c in (d, -d)
                         if sum(a * c ** k for k, a in enumerate(ints[low:])) == 0)
    return sorted(roots)


def poly_from_roots(roots, cofactor):
    """Ascending integer coefficients of prod (n - r) times `cofactor`."""
    coeffs = list(cofactor)
    for r in roots:
        coeffs = [-r * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@PROPERTY
@given(st.lists(st.integers(-40, 40), max_size=3),
       st.lists(st.integers(-6, 6), min_size=1, max_size=4))
def test_integer_roots_match_divisor_enumeration(roots, cofactor):
    coeffs = poly_from_roots(roots, cofactor)
    hypothesis.assume(len(coeffs) > 1 and any(coeffs[:-1]))
    hypothesis.assume(abs(next(c for c in coeffs if c)) <= 10 ** 4)
    p = Polynomial(("n",), {(k,): c for k, c in enumerate(coeffs)})
    assert integer_roots(p) == former_integer_roots(coeffs)


@PROPERTY
@given(st.lists(st.integers(-12, 12), max_size=3),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.integers(-15, 15), st.integers(0, 20))
# x^2 (x - 1) on [-3, 0]: the double zero at the top end brackets [0, 1]
@hypothesis.example(roots=[0, 0], cofactor=[-1, 1], lo=-3, width=3)
def test_integer_zeros_are_the_zeros_inside_the_range(roots, cofactor, lo, width):
    coeffs = poly_from_roots(roots, cofactor)
    hypothesis.assume(coeffs)
    hi = lo + width
    expected = [x for x in range(lo, hi + 1) if not guessing._horner(coeffs, x)]
    assert guessing._integer_zeros(coeffs, lo, hi) == expected


def test_integer_roots_large_constant_term():
    n = Polynomial.variable("n")
    big = 2 ** 61 + 1
    p = (n - big) * (n + 3) * (2 * n - 5) * (n * n + 7)
    assert integer_roots(p) == [-3, big]
    huge = 2 ** 100 + 277
    assert integer_roots(n * n * (n - huge) * (n + 2 ** 99)) == [-2 ** 99, 0, huge]
    assert integer_roots(n ** 3 + huge) == []
    assert integer_roots((n - 2 ** 64) ** 2 * (3 * n + 1)) == [2 ** 64]


def former_admissible(table, shifts):
    pts = set(table.values)
    cands = {tuple(q - s for q, s in zip(p, shift)) for p in pts for shift in shifts}
    return sorted(
        p for p in cands if all(tuple(a + b for a, b in zip(p, s)) in pts for s in shifts)
    )


@st.composite
def tables_and_shifts(draw):
    """A table with holes on a small box and distinct shifts, some negative."""
    arity = draw(st.sampled_from((1, 2, 3)))
    coord = st.integers(-4, 6)
    points = draw(st.sets(st.tuples(*[coord] * arity), max_size=40))
    shifts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * arity),
                           min_size=1, max_size=4, unique=True))
    return Table(arity, {p: Fraction(1) for p in points}), shifts


@PROPERTY
@given(tables_and_shifts())
def test_admissible_points_match_former_comprehension(case):
    table, shifts = case
    variables = ("n", "i", "k")[:table.arity]
    op = RecurrenceOperator.make(variables, {s: "1" for s in shifts})
    expected = former_admissible(table, shifts)
    assert guessing._admissible(table, op.shifts()) == expected
    assert guessing._admissible(table, shifts) == expected


def test_admissible_points_of_two_operators_share_the_moved_sets():
    """Two operators on one table with two shifts in common: each shift's
    moved point set is built once, on the table, and both admissible sets
    equal the former comprehension."""
    points = [(n, i) for n in range(-1, 5) for i in range(-1, 2 * n + 1) if (n, i) != (2, 1)]
    table = Table(2, {(n, i): Fraction(n - i) for n, i in points})
    first = RecurrenceOperator.make(("n", "i"), {(0, 0): "n", (1, 0): "1", (0, 1): "i - 1"})
    second = RecurrenceOperator.make(("n", "i"), {(0, 0): "1", (1, 0): "n", (1, 1): "2"})
    moved = []
    for op in (first, second):
        assert guessing._admissible(table, op.shifts()) == former_admissible(table, op.shifts())
        moved.append({s: table.moved(s) for s in op.shifts()})
    assert moved[0][(0, 0)] is moved[1][(0, 0)] and moved[0][(1, 0)] is moved[1][(1, 0)]
    assert set(table._moved) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert (1, 1) not in guessing._admissible(table, first.shifts())  # (2, 1) is a hole


@st.composite
def region_texts(draw):
    """Conjunctions of linear constraints in n and i under every relation,
    with rational coefficients now and then."""
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c = (draw(st.integers(-4, 4)) for _ in range(3))
        d = draw(st.sampled_from((1, 1, 2, 3)))
        rel = draw(st.sampled_from(sorted(guessing._RELATIONS)))
        pieces.append(f"{a}*n/{d} + {b}*i + {c} {rel} 0")
    return " and ".join(pieces)


# zero on the lines n = 3 and i = 2 and on the diagonal n = 2i
DENSE_ZEROS = RecurrenceOperator.make(
    ("n", "i"), [((1, 0), "(n - 3)*(i - 2)*(n - 2*i)"), ((0, 0), "1")])


def _check_region(text, window):
    report = leading_nonvanishing(DENSE_ZEROS, Region.parse(text), window)
    assert report.vanishing == reference_window_hits(DENSE_ZEROS, text, window), text
    return report


@PROPERTY
@given(region_texts(), st.integers(1, 6))
def test_window_scan_matches_box_scan_on_random_regions(text, size):
    _check_region(text, {"i": (-1, 2 * size), "n": (0, size)})


def test_window_scan_matches_box_scan_on_rational_and_equality_regions():
    window = {"i": (0, 9), "n": (0, 9)}
    for text in ("n/2 - i >= 0", "n/2 - i == 0 and n >= 1", "2*n/3 - i != 0",
                 "n - 2*i == 1/2", "i <= n/3 + 1/2 and n > 2"):
        _check_region(text, window)
    assert [(p["i"], p["n"]) for p in _check_region("n/2 - i == 0", window).vanishing] == [
        (0, 0), (1, 2), (2, 4), (3, 6), (4, 8)]


def test_window_scan_refuses_a_variable_outside_the_window_as_before():
    window = {"i": (0, 3), "n": (0, 3)}
    with pytest.raises(PolynomialError) as old:
        reference_window_hits(DENSE_ZEROS, "n >= 1 and k - i >= 0", window)
    with pytest.raises(PolynomialError) as new:
        leading_nonvanishing(DENSE_ZEROS, Region.parse("n >= 1 and k - i >= 0"), window)
    assert str(new.value) == str(old.value)
    # a constraint that no zero reaches raises nothing (and 2*n has no unit
    # coefficient, so no boundary line reaches it either)
    assert _check_region("2*n >= 20 and k >= 0", window).vanishing == ()
    no_zeros = RecurrenceOperator.make(("n", "i"), [((1, 0), "2*n*i + 1"), ((0, 0), "1")])
    assert leading_nonvanishing(no_zeros, Region.parse("k >= 0"), window).vanishing == ()
    # a lead variable outside a non-empty window raises, whatever the region
    with pytest.raises(PolynomialError, match=r"unbound variables \['i'\]"):
        leading_nonvanishing(DENSE_ZEROS, Region.parse("n >= 10"), {"n": (0, 3), "j": (0, 3)})


def test_window_scan_of_an_empty_window_range_is_clear():
    """An empty range in either variable gives no zero, no error, and the
    window as given; the region's boundary lines have no unit coefficient,
    so the report is clear."""
    region = Region.parse("2*n >= 3 and 2*i >= 5")
    full = leading_nonvanishing(DENSE_ZEROS, region, {"i": (1, 8), "n": (1, 8)})
    assert full.vanishing and not full.boundary
    for window in ({"i": (1, 8), "n": (5, 4)}, {"i": (3, 2), "n": (1, 8)},
                   {"j": (1, 8), "n": (1, 0)}):
        report = leading_nonvanishing(DENSE_ZEROS, region, window)
        assert report.clear and report.mode == "window"
        assert report.to_json_dict()["window"] == {v: list(r) for v, r in sorted(window.items())}
