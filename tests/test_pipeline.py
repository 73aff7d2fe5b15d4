"""The cofactor pipeline: tables, identity grids, ratio sequences,
closed forms, certification verdicts, and the scaled-family checker."""

import importlib.util
import os
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfansatz import interpolation, linalg, pipeline
from pfansatz.guessing import RecurrenceOperator
from pfansatz.pfaffian import (
    SingularCofactorSystem,
    SkewMatrix,
    cofactor_vector,
    pf_eliminate,
    pf_naive,
)
from pfansatz.pipeline import (
    ClosedForm,
    c_table,
    certify,
    check_conjecture1,
    closed_form_for,
    closed_form_from_text,
    conjecture_class,
    conjecture_predicted,
    ratio_sequence,
)
from pfansatz.poly import Polynomial, parse_poly, quotient_text
from pfansatz.sequences import MatrixFamily, family_from_descriptor

MOTZKIN = family_from_descriptor("motzkin")


# ---------------------------------------------------------------------------
# closed forms


def test_builtin_closed_forms_match_direct_pfaffians():
    for desc, name in (("motzkin", "motzkin"), ("delannoy", "delannoy"),
                       ("schroeder", "schroeder")):
        fam = family_from_descriptor(desc)
        cf = closed_form_for(name)
        for n in range(5):
            assert cf.evaluate(n) == pf_eliminate(SkewMatrix.from_family(fam, 2 * n))


def test_motzkin_closed_form_values():
    cf = closed_form_for("motzkin")
    assert [cf.evaluate(n) for n in range(5)] == [1, 1, 5, 45, 585]


def test_narayana_closed_form_symbolic_and_specialized():
    sym = closed_form_for("narayana")
    v2 = sym.evaluate(2)
    assert isinstance(v2, Polynomial)
    assert v2 == parse_poly("5*x^4", ("x",))
    half = closed_form_for("narayana", x=Fraction(1, 2))
    assert half.evaluate(2) == Fraction(5, 16)
    fam = family_from_descriptor("narayana:x=1/2")
    for n in range(4):
        assert half.evaluate(n) == pf_eliminate(SkewMatrix.from_family(fam, 2 * n))


def test_closed_form_negative_index_raises():
    with pytest.raises(ValueError):
        closed_form_for("motzkin").evaluate(-1)
    with pytest.raises(ValueError):
        closed_form_for("nosuch")


def test_closed_form_text_grammar():
    assert closed_form_from_text("prod(4*k+1)").evaluate(3) == 45
    schroeder_like = closed_form_from_text("pow(2, n^2)*prod(4*k+1)")
    assert schroeder_like.evaluate(2) == closed_form_for("schroeder").evaluate(2)
    assert closed_form_from_text("7").evaluate(5) == 7
    assert closed_form_from_text("3*prod(k+1)").evaluate(3) == 18
    assert closed_form_from_text("prod(4*k+2)").evaluate(1) == 2
    assert closed_form_from_text("pow(2, n**2)").evaluate(3) == 512
    for bad in ("prod(", "pow(2, n^3)", "spam", "prod(k)*"):
        with pytest.raises(ValueError):
            closed_form_from_text(bad)


# ---------------------------------------------------------------------------
# cofactor tables


def test_cofactor_initial_values():
    rows = c_table(MOTZKIN, 4)
    assert rows.get(1, 1) == 1          # c_{2,1}
    assert rows.get(2, 1) == 2          # c_{4,1}
    assert rows.get(2, 3) == 1          # normalization at n = 2
    assert rows.rows[2][:2] == ([Fraction(2), Fraction(-2), Fraction(1)], 1)
    assert not rows.singular


def test_cofactor_normalization_all_sizes():
    rows = c_table(MOTZKIN, 8)
    for n in range(1, 9):
        assert rows.get(n, 2 * n - 1) == 1


def test_cofactor_boundary_zero_extension():
    rows = c_table(MOTZKIN, 4)
    for n in range(1, 5):
        assert rows.get(n, 0) == 0
        assert rows.get(n, -3) == 0
        assert rows.get(n, 2 * n) == 0
        assert rows.get(n, 2 * n + 5) == 0
    assert rows.get(0, 1) is None
    assert rows.get(9, 1) is None


def test_cofactor_as_table_materializes_margin():
    t = c_table(MOTZKIN, 3).table("c")
    assert t.values.get((2, -1)) == 0
    assert t.values.get((2, 5)) == 0
    assert t.values.get((2, 1)) == 2
    assert (0, 1) not in t.values


def test_c_table_progress_messages():
    seen = []
    c_table(MOTZKIN, 3, progress=seen.append)
    assert seen == [f"cofactor system n={n}" for n in (1, 2, 3)]


def test_singular_family_recorded_not_raised():
    fam = family_from_descriptor("genmotzkin:k=2")
    rows = c_table(fam, 3)
    assert 2 in rows.singular
    assert rows.get(2, 1) is None
    with pytest.raises(KeyError):
        rows.rows[2]


# ---------------------------------------------------------------------------
# orthogonality grid and ratios


def test_grid_zeros_and_diagonal():
    rows = c_table(MOTZKIN, 6)
    g = {n: row[2] for n, row in rows.rows.items()}
    assert not any(g[n][j - 1] for n in g for j in range(1, 2 * n))
    assert g[1][0] == 0
    assert g[2][0] == 0 and g[2][1] == 0 and g[2][2] == 0
    # diagonal carries the ratio sequence
    assert [g[n][2 * n - 1] for n in range(1, 5)] == [1, 5, 9, 13]
    assert rows.ratios()[:4] == [(1, 1), (5, 1), (9, 1), (13, 1)]
    # the grid extends past the diagonal, to j = 2n + 4
    assert len(g[2]) == 2 * 2 + 4


def reference_grid(family, rows, n_max, j_extra):
    """check_identity2's former Fraction loop."""
    m = [family.moment(s) for s in range(4 * n_max + j_extra)]
    values = {}
    for n in range(1, n_max + 1):
        if n in rows.rows:
            row = rows.rows[n][0]
            for j in range(1, 2 * n + j_extra + 1):
                values[(n, j)] = sum((row[i - 1] * ((j - i) * m[i + j]) for i in range(1, 2 * n)),
                                     Fraction(0))
    return values


@pytest.mark.parametrize("family", [
    MOTZKIN,
    family_from_descriptor("narayana:x=3/7"),
    family_from_descriptor("narayana:x=0"),
    family_from_descriptor("delannoy"),
    MatrixFamily("moments", "s^2/3 + 1/(s+1)", lambda s: Fraction(s * s, 3) + Fraction(1, s + 1)),
])
def test_integer_contraction_matches_fraction_loop(family):
    rows = c_table(family, 6, j_extra=5)
    expected = reference_grid(family, rows, 6, 5)
    grid = {(n, j): v for n, (_, _, g) in rows.rows.items() for j, v in enumerate(g, start=1)}
    assert grid == expected
    assert all(type(v) is Fraction for v in grid.values())


def test_certify_contracts_each_kept_row_once():
    real = pipeline.check_identity2
    calls = []

    def record(row, den, moments, j_max):
        calls.append((len(row), j_max))
        return real(row, den, moments, j_max)

    with mock.patch.object(pipeline, "check_identity2", record):
        report = certify(MOTZKIN, closed_form_for("motzkin"), 20)
    assert report.verdict == "certified-at-scale"
    # row n has 2n - 1 entries; rows 3..20 are generated and each is kept
    assert calls == [(2 * n - 1, 2 * n + 8) for n in range(1, 21)]


def former_contraction(row, moments, j_max):
    """check_identity2's former Q[x] branch: the sum of Polynomial products."""
    return [sum((j - i) * c * moments[i + j] for i, c in enumerate(row, 1))
            for j in range(1, j_max + 1)]


def assert_same_polynomials(got, want):
    """Equal variables, terms and text, and every coefficient canonical."""
    assert [(g.variables, g.terms, str(g)) for g in got] == \
        [(w.variables, w.terms, str(w)) for w in want]
    assert all(type(c) is int or c.denominator > 1 for g in got for c in g.terms.values())


COEFFICIENTS = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
                         st.integers(-2 ** 70, 2 ** 70))
UNIVARIATE = st.lists(COEFFICIENTS, max_size=31).map(
    lambda cs: Polynomial(("x",), {(e,): c for e, c in enumerate(cs)}))
BIVARIATE = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), COEFFICIENTS,
                            max_size=8).map(lambda terms: Polynomial(("x", "y"), terms))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([UNIVARIATE, BIVARIATE]), st.integers(1, 5), st.integers(1, 5), st.data())
def test_packed_contraction_matches_the_polynomial_sum(entries, length, j_max, data):
    # a row entry may also be a plain rational, a constant of the moments' domain
    row = data.draw(st.lists(st.one_of(entries, COEFFICIENTS.map(Fraction)),
                             min_size=length, max_size=length))
    moments = data.draw(st.lists(entries, min_size=length + j_max + 1,
                                 max_size=length + j_max + 1))
    assert_same_polynomials(pipeline.check_identity2(row, 1, moments, j_max),
                            former_contraction(row, moments, j_max))


@pytest.mark.parametrize("c, m", [(5, 17), (-5, 17), (85, 257)])
@pytest.mark.parametrize("variables", [("x",), ("x", "y")])
def test_packed_contraction_reaches_its_bound(c, m, variables):
    # row [c, 0, 0] and j_max 4: W = 3, and only moments[5] is nonzero, so
    # g(4) = 3 * c * moments[5] has coefficients +-B, B = 3 * |c| * m, whose
    # bit length (8, 16) is a whole number of bytes
    zero = Polynomial.zero(variables)
    row = [Polynomial.constant(c, variables), zero, zero]
    top = (2,) + (1,) * (len(variables) - 1)
    moments = [zero] * 5 + [Polynomial(variables, {top: m, (0,) * len(variables): -m})] \
        + [zero] * 2
    got = pipeline.check_identity2(row, 1, moments, 4)
    assert sorted(got[3].terms.values()) == [-3 * abs(c) * m, 3 * abs(c) * m]
    assert_same_polynomials(got, former_contraction(row, moments, 4))


# ---------------------------------------------------------------------------
# cofactor rows generated from the catalog's operators


def solve_loop(family, n_max):
    """c_table's loop before rows were generated: one solve per n, as
    (values, denominators, singular)."""
    values, denominators, singular = {}, {}, {}
    for n in range(1, n_max + 1):
        try:
            vec, denominators[n] = cofactor_vector(SkewMatrix.from_family(family, 2 * n))
        except SingularCofactorSystem as e:
            singular[n] = str(e)
            continue
        for i, v in enumerate(vec, start=1):
            values[(n, i)] = v
    return values, denominators, singular


def assert_same_table(rows, expected):
    values, denominators, singular = expected
    assert {(n, i): v for n, (c, _, _) in rows.rows.items()
            for i, v in enumerate(c, start=1)} == values
    assert all(type(v) is Fraction for c, _, _ in rows.rows.values() for v in c)
    assert {n: den for n, (_, den, _) in rows.rows.items()} == denominators
    assert rows.singular == singular


def recording_solves(solved):
    """pipeline.cofactor_vector, appending each solved n to `solved`."""
    real = pipeline.cofactor_vector

    def record(A):
        solved.append(A.dim // 2)
        return real(A)
    return record


def recording_tries(tried):
    """RecurrenceOperator.solve_at, appending the n of each point to `tried`."""
    real = RecurrenceOperator.solve_at

    def record(self, value, point):
        tried.append(point[0])
        return real(self, value, point)
    return record


GENERATED_BOUNDS = {"motzkin": 30, "delannoy": 20}


@lru_cache(maxsize=None)
def solved_rows(descriptor):
    return solve_loop(family_from_descriptor(descriptor), GENERATED_BOUNDS[descriptor])


@settings(derandomize=True, max_examples=4, deadline=None)
@given(st.sampled_from(sorted(GENERATED_BOUNDS)).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, GENERATED_BOUNDS[d]))))
@example(("motzkin", 30))
@example(("delannoy", 20))
def test_generated_rows_match_the_solve_loop(case):
    descriptor, n_max = case
    values, denominators, singular = solved_rows(descriptor)
    solved = []
    with mock.patch.object(pipeline, "cofactor_vector", recording_solves(solved)):
        rows = c_table(family_from_descriptor(descriptor), n_max)
    assert_same_table(rows, ({k: v for k, v in values.items() if k[0] <= n_max},
                              {n: d for n, d in denominators.items() if n <= n_max},
                              singular))
    # rows 1 and 2 are solved; the operators give every later row
    assert solved == list(range(1, min(n_max, 2) + 1))


def test_rows_of_other_moments_under_a_cataloged_name_are_solved(monkeypatch):
    # the motzkin moments with mu(7) one larger: the motzkin operators give
    # rows that are not orthogonal to these moments
    family = MatrixFamily("motzkin", "motzkin, mu(7) + 1", lambda s: MOTZKIN.moment(s) + (s == 7))
    expected = solve_loop(family, 12)
    solved, tried = [], []
    monkeypatch.setattr(pipeline, "cofactor_vector", recording_solves(solved))
    monkeypatch.setattr(RecurrenceOperator, "solve_at", recording_tries(tried))
    rows = c_table(family, 12)
    assert set(tried) == set(range(2, 13))
    assert solved == list(range(1, 13))
    assert_same_table(rows, expected)


def test_an_operator_off_by_one_costs_only_solves(monkeypatch):
    from pfansatz import catalog

    real_known, real_c_table = catalog.known_operators, pipeline.c_table

    def off_by_one(name):
        first, *rest = real_known(name)
        assert first.name == "c-mixed-order-1"
        terms = {s: c + 1 if s == (-1, 1) else c for s, c in first.operator.terms}
        wrong = RecurrenceOperator.make(first.operator.variables, terms)
        return (catalog.CatalogEntry(first.target, first.name, wrong), *rest)

    def c_table_with_the_wrong_operator(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(catalog, "known_operators", off_by_one)
            return real_c_table(*args, **kwargs)

    solved = []
    monkeypatch.setattr(pipeline, "c_table", c_table_with_the_wrong_operator)
    monkeypatch.setattr(pipeline, "cofactor_vector", recording_solves(solved))
    lines = certify(MOTZKIN, closed_form_for("motzkin"), 10).to_json().splitlines(keepends=True)
    assert solved == list(range(1, 11))
    report = "".join(line for line in lines if not line.startswith('  "version": '))
    with open(os.path.join(DATA, "certify_motzkin.json"), encoding="utf-8", newline="") as fh:
        assert report == fh.read()


def test_shared_records_are_immutable():
    """Guess classes, catalog entries, operators and families are shared or
    cached, so no field of theirs can be reassigned."""
    from pfansatz import catalog
    from pfansatz.guessing import C_SPEC

    entry = catalog.known_operators("motzkin")[0]
    for record, field in ((C_SPEC, "degree"), (entry, "operator"),
                          (entry.operator, "terms"), (MOTZKIN, "moment")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, field, None)
    assert C_SPEC.degree == 4 and entry.operator.terms and MOTZKIN.moment(3) == 1


def test_no_row_is_generated_past_a_vanishing_pfaffian(monkeypatch):
    # the motzkin moments with mu(15) lowered by the ratio r_4 = 13: the
    # Pfaffians of dim < 8 and rows 1..4 stay motzkin's, and Pf(A_8) = 0
    family = MatrixFamily("motzkin", "motzkin, Pf(A_8) = 0",
                          lambda s: MOTZKIN.moment(s) - 13 * (s == 15))
    assert pf_eliminate(SkewMatrix.from_family(family, 8)) == 0
    expected = solve_loop(family, 8)
    assert expected[2] == {5: "cofactor system singular at dim=10: no unique normalized solution"}
    solved, tried = [], []
    monkeypatch.setattr(pipeline, "cofactor_vector", recording_solves(solved))
    monkeypatch.setattr(RecurrenceOperator, "solve_at", recording_tries(tried))
    rows = c_table(family, 8)
    assert_same_table(rows, expected)
    # rows 3 and 4 are generated; row 4's diagonal Pf(A_8)/Pf(A_6) is zero
    # and row 5 is singular, so no operator is tried before row 7
    assert solved == [1, 2, 5, 6, 7, 8]
    assert sorted(set(tried)) == [2, 3, 4, 7, 8]


def former_views(family, n_max, j_extra):
    """get and the guessing tables "c", "g" and "r" as the former cofactor
    table, orthogonality grid and unchecked ratio sequence built them, from
    the solve loop and the Fraction contraction."""
    values, denominators, singular = solve_loop(family, n_max)
    m = [family.moment(s) for s in range(4 * n_max + j_extra)]
    grid = {(n, j): sum((values[(n, i)] * ((j - i) * m[i + j]) for i in range(1, 2 * n)),
                        Fraction(0))
            for n in denominators for j in range(1, 2 * n + j_extra + 1)}

    def get(n, i):
        if n < 1 or n > n_max or n in singular:
            return None
        if 1 <= i <= 2 * n - 1:
            return values[(n, i)]
        return Fraction(0)

    c = {(n, i): get(n, i) for n in range(1, n_max + 1) if n not in singular
         for i in range(-3, 2 * n + 4)}
    ratios = []
    for n in range(1, n_max + 1):
        v = grid.get((n, 2 * n))
        if v is None:
            break
        ratios.append(v)
    r = {(n,): Fraction(v) for n, v in enumerate(ratios, start=1)}
    return get, {"c": c, "g": grid, "r": r}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.sampled_from(["motzkin", "delannoy", "narayana:x=p/q", "genmotzkin:k=2"]),
       st.fractions(min_value=-3, max_value=3, max_denominator=9),
       st.integers(1, 6), st.integers(0, 4))
@example("genmotzkin:k=2", Fraction(0), 6, 0)
def test_row_store_views_match_the_former_classes(kind, x, n_max, j_extra):
    family = family_from_descriptor(kind.replace("p/q", str(x)))
    rows = c_table(family, n_max, j_extra)
    get, tables = former_views(family, n_max, j_extra)
    for kind in ("c", "g", "r"):
        table = rows.table(kind)
        assert table.arity == len(pipeline.TABLE_VARIABLES[kind])
        assert list(table.values.items()) == list(tables[kind].items())
    for n in range(-1, n_max + 3):
        for i in range(-6, 2 * n_max + 6):
            assert rows.get(n, i) == get(n, i), (n, i)
            assert type(rows.get(n, i)) is type(get(n, i))


def test_ratio_sequence_cross_check():
    run = c_table(MOTZKIN, 6, j_extra=2).ratios()
    pfaffians, mismatch_n = ratio_sequence(MOTZKIN, run)
    assert mismatch_n is None
    assert pfaffians[0] == 1
    assert pfaffians[2] == 5
    for n in range(1, 7):
        assert run[n - 1] == (4 * n - 3, 1)
        assert pfaffians[n] == pf_eliminate(SkewMatrix.from_family(MOTZKIN, 2 * n))


def test_ratio_values_to_twelve():
    ratios = [g for g, _ in c_table(MOTZKIN, 12, j_extra=0).ratios()]
    assert [ratios[n - 1] for n in range(1, 13)] == [4 * n - 3 for n in range(1, 13)]
    assert ratios[0] == 1 and ratios[1] == 5


def test_ratio_sequence_stops_at_singular_gap():
    fam = family_from_descriptor("genmotzkin:k=2")
    rows = c_table(fam, 4, j_extra=0)
    # n = 2 is singular, so only the contiguous prefix r_1 remains
    assert len(rows.ratios()) == 1
    assert len(rows.table("r")) == 1


def test_narayana_symbolic_ratios():
    fam = family_from_descriptor("narayana:x=sym")
    run = c_table(fam, 4, j_extra=0).ratios()
    assert ratio_sequence(fam, run)[1] is None
    expected = ["x", "5*x^3", "9*x^5", "13*x^7"]
    assert [quotient_text(g, d) for g, d in run] == expected


# ---------------------------------------------------------------------------
# certification


def test_certify_motzkin_certified():
    report = certify(MOTZKIN, closed_form_for("motzkin"), 6)
    assert report.verdict == "certified-at-scale"
    assert report.witness is None
    for label in ("cofactor-normalization", "cofactor-orthogonality",
                  "pfaffian-ratio", "closed-form-product"):
        assert report.checks[label]["ok"], label
    assert report.ratios[:3] == ["1", "5", "9"]
    assert report.pfaffians[:3] == ["1", "1", "5"]
    data = report.to_json_dict()
    assert data["report"] == "certification"
    assert data["version"]
    assert data["config"]["family"] == "motzkin"
    # catalog operators all verified on the computed tables
    assert data["operators"]["catalog"]["ok"]


def test_certify_is_deterministic():
    a = certify(MOTZKIN, closed_form_for("motzkin"), 5).to_json()
    b = certify(MOTZKIN, closed_form_for("motzkin"), 5).to_json()
    assert a == b


def test_certify_refutation_witness():
    report = certify(MOTZKIN, closed_form_from_text("prod(4*k+2)"), 4)
    assert report.verdict == "refuted"
    assert report.witness == {"check": "closed-form-product", "n": 1, "lhs": "1", "rhs": "2"}


def _wrong_last_entry_at_n2(real):
    def cofactor_vector(A):
        vec, den = real(A)
        if A.dim == 4:
            vec[-1] = Fraction(2)
        return vec, den
    return cofactor_vector


def _wrong_middle_entry_at_n3(real):
    def cofactor_vector(A):
        vec, den = real(A)
        if A.dim == 6:
            vec[1] += 1
        return vec, den
    return cofactor_vector


def _wrong_last_leading_pfaffian(real):
    def pf_eliminate(A, leading=None):
        if leading is None:
            return real(A)
        found = []
        value = real(A, found)
        leading.extend(found[:-1])
        leading.append(2 * found[-1])
        return value
    return pf_eliminate


def test_certify_normalization_witness(monkeypatch):
    monkeypatch.setattr(pipeline, "cofactor_vector",
                        _wrong_last_entry_at_n2(pipeline.cofactor_vector))
    report = certify(MOTZKIN, closed_form_for("motzkin"), 4)
    assert report.verdict == "refuted"
    assert report.witness == {"check": "cofactor-normalization", "n": 2,
                              "lhs": "2", "rhs": "1"}
    assert report.checks["cofactor-normalization"] == {"ok": False, "detail": "fails at n=2"}


def test_certify_orthogonality_witness(monkeypatch):
    monkeypatch.setattr(pipeline, "cofactor_vector",
                        _wrong_middle_entry_at_n3(pipeline.cofactor_vector))
    # the motzkin moments under a name without catalog operators, so row 3
    # is solved (and wrong), not generated
    family = MatrixFamily("uncataloged", "motzkin", MOTZKIN.moment)
    report = certify(family, closed_form_for("motzkin"), 4)
    assert report.verdict == "refuted"
    assert report.witness == {"check": "cofactor-orthogonality", "n": 3, "j": 1,
                              "lhs": "-1", "rhs": "0"}
    assert report.checks["cofactor-normalization"]["ok"]
    assert report.checks["cofactor-orthogonality"] == {
        "ok": False, "detail": "nonzero at (n,j)=(3, 1)"}


def test_certify_pfaffian_ratio_witness(monkeypatch):
    monkeypatch.setattr(pipeline, "pf_eliminate",
                        _wrong_last_leading_pfaffian(pipeline.pf_eliminate))
    report = certify(MOTZKIN, closed_form_for("motzkin"), 4)
    assert report.verdict == "refuted"
    assert report.witness == {"check": "pfaffian-ratio", "n": 4,
                              "lhs": "13", "rhs": "(1170)/(45)"}
    assert report.checks["cofactor-orthogonality"]["ok"]
    assert report.checks["pfaffian-ratio"] == {"ok": False, "detail": "mismatch at n=4"}


def test_certify_first_failed_check_gives_the_witness(monkeypatch):
    # a wrong last entry breaks every later check too
    monkeypatch.setattr(pipeline, "cofactor_vector",
                        _wrong_last_entry_at_n2(pipeline.cofactor_vector))
    report = certify(MOTZKIN, closed_form_from_text("prod(4*k+2)"), 4)
    failed = [label for label, info in report.checks.items() if not info["ok"]]
    assert failed == ["cofactor-normalization", "cofactor-orthogonality",
                      "pfaffian-ratio", "closed-form-product"]
    assert report.witness["check"] == "cofactor-normalization"
    monkeypatch.undo()
    # a wrong Pfaffian and a wrong closed form: the ratio check runs first
    monkeypatch.setattr(pipeline, "pf_eliminate",
                        _wrong_last_leading_pfaffian(pipeline.pf_eliminate))
    report = certify(MOTZKIN, closed_form_from_text("prod(4*k+2)"), 4)
    assert not report.checks["closed-form-product"]["ok"]
    assert report.witness["check"] == "pfaffian-ratio"


def test_certify_singular_family_inapplicable():
    fam = family_from_descriptor("genmotzkin:k=2")
    report = certify(fam, closed_form_from_text("prod(4*k+1)"), 3)
    assert report.verdict == "inapplicable"
    assert 2 in report.singular
    # a failed check does not turn a singular run into a refutation
    report = certify(fam, closed_form_from_text("prod(4*k+2)"), 3)
    assert report.checks["closed-form-product"] == {"ok": False, "detail": "mismatch at n=1"}
    assert report.verdict == "inapplicable"
    assert report.witness is None


def test_certify_symbolic_family_skips_operator_guessing():
    fam = family_from_descriptor("narayana:x=sym")
    cf = closed_form_for("narayana")
    report = certify(fam, cf, 3)
    assert report.verdict == "certified-at-scale"
    assert report.operators["skipped"]["status"] == "diagnostic"


def test_guess_regions_equal_the_parse_of_their_text():
    from pfansatz.guessing import Region

    regions = pipeline._guess_regions()
    assert sorted(regions) == ["c", "g", "r"]
    for region in regions.values():
        parsed = Region.parse(region.text)
        assert len(region.constraints) == len(parsed.constraints)
        for built, read in zip(region.constraints, parsed.constraints):
            assert built.poly.variables == read.poly.variables
            assert built.poly.terms == read.poly.terms
            assert built.relation == read.relation


def test_certify_builds_catalog_operators_only_for_the_family_at_hand(monkeypatch):
    from pfansatz import catalog

    def refuse(variables, terms):
        raise AssertionError("a catalog operator was built")

    catalog.known_operators.cache_clear()
    monkeypatch.setattr(catalog, "RecurrenceOperator", SimpleNamespace(make=refuse))
    fam = family_from_descriptor("narayana:x=3/7")
    report = certify(fam, closed_form_for("narayana", fam.x), 5)
    assert report.verdict == "certified-at-scale"
    assert "catalog" not in report.operators
    with pytest.raises(AssertionError, match="catalog operator"):
        catalog.known_operators("motzkin")
    catalog.known_operators.cache_clear()


def test_importing_the_catalog_parses_nothing(monkeypatch):
    from pfansatz.guessing import RecurrenceOperator

    def refuse(cls, variables, terms):
        raise AssertionError("the catalog built an operator at import")

    monkeypatch.setattr(RecurrenceOperator, "make", classmethod(refuse))
    spec = importlib.util.find_spec("pfansatz.catalog")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh.known_operators("narayana") == ()


# ---------------------------------------------------------------------------
# the quotient path: symbolic families whose cofactor rows and ratios are
# quotients that are no polynomials, which no built-in family reaches.  The
# reports and texts were recorded from the implementation that divided each
# row by its denominator as a reduced rational function.

DATA = os.path.join(os.path.dirname(__file__), "data")
X = parse_poly("x", ("x",))
MOMENTS = {
    "x^s + 1": lambda s: X ** s + 1,
    "x^(s mod 3) + s^2": lambda s: X ** (s % 3) + s * s,
}


def moment_family(descriptor):
    return MatrixFamily("moments", descriptor, MOMENTS[descriptor])


def direct_pfaffian(family, description="direct Pfaffian", factor=lambda n: 1):
    return ClosedForm(description, lambda n: factor(n) * pf_eliminate(
        SkewMatrix.from_family(family, 2 * n)))


@pytest.mark.parametrize("descriptor, name", [
    ("x^s + 1", "certify_moment_x_s_plus_1.json"),
    ("x^(s mod 3) + s^2", "certify_moment_x_s_mod_3.json"),
])
def test_certify_quotient_rows_match_the_recorded_report(descriptor, name):
    family = moment_family(descriptor)
    lines = certify(family, direct_pfaffian(family), 5).to_json().splitlines(keepends=True)
    report = "".join(line for line in lines if not line.startswith('  "version": '))
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        assert report == fh.read()


def test_certify_quotient_witnesses(monkeypatch):
    family = moment_family("x^(s mod 3) + s^2")
    ratio_3 = ("(9*x^6 + 1395*x^4 - 1413*x^3 - 108*x^2 - 1179*x + 1296)"
               "/(x^4 + 50*x^2 - 46*x - 1)")
    twice = direct_pfaffian(family, "twice direct", lambda n: 2 if n >= 3 else 1)
    report = certify(family, twice, 4)
    assert report.witness == {
        "check": "closed-form-product", "n": 3,
        "lhs": "27*x^6 + 4185*x^4 - 4239*x^3 - 324*x^2 - 3537*x + 3888",
        "rhs": "54*x^6 + 8370*x^4 - 8478*x^3 - 648*x^2 - 7074*x + 7776"}
    assert report.ratios[2:] == [
        ratio_3, "(2916*x^2 + 2916*x + 2916)/(x^4 + 2*x^3 + 158*x^2 + 157*x + 144)"]
    monkeypatch.setattr(pipeline, "pf_eliminate",
                        _wrong_last_leading_pfaffian(pipeline.pf_eliminate))
    report = certify(family, direct_pfaffian(family), 3)
    assert report.witness == {
        "check": "pfaffian-ratio", "n": 3, "lhs": ratio_3,
        "rhs": "(54*x^6 + 8370*x^4 - 8478*x^3 - 648*x^2 - 7074*x + 7776)"
               "/(3*x^4 + 150*x^2 - 138*x - 3)"}


def test_certify_quotient_orthogonality_witness(monkeypatch):
    real = pipeline.cofactor_vector

    def cofactor_vector(A):
        vec, den = real(A)
        if A.dim == 4:
            vec[0] = vec[0] + X * den
        return vec, den

    monkeypatch.setattr(pipeline, "cofactor_vector", cofactor_vector)
    family = moment_family("x^s + 1")
    report = certify(family, direct_pfaffian(family), 3)
    assert report.witness == {"check": "cofactor-orthogonality", "n": 2, "j": 2,
                              "lhs": "x^4 + x", "rhs": "0"}
    assert report.ratios == [
        "x^3 + 1", "(3*x^9 + x^7 - x^6 + 6*x^5 - x^4 + x^3 + 3*x)/(x^3 + 1)", "0"]


def test_certify_guess_sections_record_windows():
    report = certify(MOTZKIN, closed_form_for("motzkin"), 12)
    r_section = report.operators["r"]
    assert r_section["status"] == "ok"
    assert r_section["operators"] == [
        {"vars": ["n"], "terms": [{"shift": [0], "coeff": "-4*n - 1"},
                                  {"shift": [1], "coeff": "4*n - 3"}]}
    ]
    assert r_section["leading"][0]["clear"]
    g_section = report.operators["g"]
    assert g_section["status"] == "ok"
    assert g_section["validation_window_size"] > 0


def test_certify_progress_stream():
    seen = []
    certify(MOTZKIN, closed_form_for("motzkin"), 3, progress=seen.append)
    assert any("cofactor system n=2" in m for m in seen)
    assert any("closed form" in m for m in seen)


# ---------------------------------------------------------------------------
# symbolic rows interpolated at integer points

NARAYANA_SYM = family_from_descriptor("narayana:x=sym")


def quotient_row(family, n):
    """Row n of the Q[x] solve, y / den, each entry an exact quotient."""
    y, den = cofactor_vector(SkewMatrix.from_family(family, 2 * n))
    quotients = [divmod(v, den) for v in y]
    assert not any(r for _, r in quotients)
    return [q for q, _ in quotients]


def recording_rows(interpolated):
    """PointRows.row, appending (n, points tried, row found) to `interpolated`."""
    real_row, real_at = interpolation.PointRows.row, interpolation.PointRows.at

    def row(self, n):
        tried = []

        def at(points, v):
            tried.append(v)
            return real_at(points, v)
        with mock.patch.object(interpolation.PointRows, "at", at):
            found = real_row(self, n)
        interpolated.append((n, len(tried), found is not None))
        return found
    return row


def test_symbolic_certify_solves_rows_below_the_crossover_and_interpolates_the_rest(
        monkeypatch, capsys):
    # perfbench's pfaffian-symbolic workload runs this job and expects the
    # Q[x] solve, `solve_linear` and `poly_gcd` to fire in it
    from pfansatz import cli, poly

    solved, interpolated, gcds = [], [], []
    real_gcd = poly.poly_gcd
    monkeypatch.setattr(pipeline, "cofactor_vector", recording_solves(solved))
    monkeypatch.setattr(interpolation.PointRows, "row", recording_rows(interpolated))
    monkeypatch.setattr(poly, "poly_gcd", lambda a, b: gcds.append(a) or real_gcd(a, b))
    code = cli.main(["certify", "--family", "narayana:x=sym", "--n-max", "7", "--format", "json"])
    assert code == 0
    assert '"verdict": "certified-at-scale"' in capsys.readouterr().out
    assert pipeline.INTERPOLATED_FROM == 4
    assert solved == [1, 2, 3]
    assert [(n, found) for n, _, found in interpolated] == [(n, True) for n in range(4, 8)]
    # row n of narayana:x=sym has entries of degree up to 2n - 2: 2n points
    assert [tried for _, tried, _ in interpolated] == [2 * n for n in range(4, 8)]
    assert gcds


def test_interpolated_rows_equal_the_solved_rows():
    points = interpolation.PointRows([NARAYANA_SYM.moment(s) for s in range(48)])
    for n in range(1, 11):
        assert_same_polynomials(points.row(n), quotient_row(NARAYANA_SYM, n))


def test_the_shared_denominator_grows_with_the_points(monkeypatch):
    # a stand-in solve whose values at x = v are those of three polynomials;
    # the first two are integers at x = 1, 2, and the divided differences
    # at x = 3 halve, so the denominator of the earlier ones must grow
    x = parse_poly("x", ("x",))
    want = [x * (x - 1) / 2, x ** 3 / 6 - x / 6, Polynomial.constant(1, ("x",))]
    values = {}

    def solve_linear(rows, rhs):
        v = values["v"]
        return linalg.LinearSolution(tuple(p.eval({"x": v}) for p in want), True, 1)

    real_at = interpolation.PointRows.at

    def at(self, v):
        values["v"] = v
        return real_at(self, v)
    monkeypatch.setattr(interpolation, "solve_linear", solve_linear)
    monkeypatch.setattr(interpolation.PointRows, "at", at)
    points = interpolation.PointRows([NARAYANA_SYM.moment(s) for s in range(8)])
    assert_same_polynomials(points.row(2), want)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(-3, 3).filter(bool), st.integers(-4, 4), st.integers(2, 5))
@example(1, -2, 5)  # x = 2 is singular: every moment but mu(2) vanishes there
@example(-2, 6, 4)  # x = 3 is singular
def test_rows_interpolated_past_singular_points_equal_the_solved_rows(a, b, n):
    # narayana at a*x + b: its rows are narayana's composed with a*x + b,
    # polynomials, and x = -b/a, when an integer, is a singular point
    shifted = parse_poly("x", ("x",)) * a + b
    family = MatrixFamily("moments", f"narayana at {a}*x + {b}",
                          lambda s: NARAYANA_SYM.moment(s).substitute({"x": shifted}))
    points = interpolation.PointRows([family.moment(s) for s in range(4 * n)])
    refused = []
    real_solve_linear = interpolation.solve_linear

    def solve_linear(rows, rhs):
        solution = real_solve_linear(rows, rhs)
        if solution is None or not solution.unique:
            refused.append(solution)
        return solution
    with mock.patch.object(interpolation, "solve_linear", solve_linear):
        got = points.row(n)
    assert_same_polynomials(got, quotient_row(family, n))
    # a*v + b = 0 at one point v >= 1 or at none; the row is found past it
    assert len(refused) == (b % a == 0 and -b // a >= 1)


@settings(derandomize=True, max_examples=5, deadline=None)
@given(st.integers(4, 6), st.data())
def test_a_wrong_interpolant_is_refused_and_costs_only_the_solve(n, data):
    real_row = interpolation.PointRows.row
    plant = {}

    def planted_row(self, m):
        row = real_row(self, m)
        if m == n:
            i = data.draw(st.integers(0, len(row) - 1), label="entry")
            e = data.draw(st.integers(0, row[i].total_degree()), label="exponent")
            plant.update(i=i, e=e)
            row[i] = row[i] + Polynomial(("x",), {(e,): 1})
        return row

    solved = []
    with mock.patch.object(interpolation.PointRows, "row", planted_row), \
            mock.patch.object(pipeline, "cofactor_vector", recording_solves(solved)):
        lines = certify(NARAYANA_SYM, closed_form_for("narayana"), 6).to_json() \
            .splitlines(keepends=True)
    assert plant and solved == [1, 2, 3, n]
    report = "".join(line for line in lines if not line.startswith('  "version": '))
    with open(os.path.join(DATA, "certify_narayana_x_sym.json"), encoding="utf-8",
              newline="") as fh:
        assert report == fh.read()


def test_rows_that_are_no_polynomials_reach_the_cap_and_are_solved(monkeypatch):
    # the recorded reports of these families pass unedited (above); here,
    # which source gives each row
    interpolated, solved = [], []
    monkeypatch.setattr(interpolation.PointRows, "row", recording_rows(interpolated))
    monkeypatch.setattr(pipeline, "cofactor_vector", recording_solves(solved))
    family = moment_family("x^(s mod 3) + s^2")
    rows = c_table(family, 5, j_extra=8)
    points = interpolation.PointRows([family.moment(s) for s in range(28)])
    # row 4's entries are no polynomials: every point up to the cap is tried;
    # row 5 is the constant row (1, -2, 1, -2, 4, -2, 1, -2, 1), singular at
    # x = 1 and found at x = 2 and 3
    assert interpolated == [(4, points.cap(4), False), (5, 3, True)]
    assert points.cap(4) == 16
    assert solved == [1, 2, 3, 4]
    assert rows.rows[5][0] == [1, -2, 1, -2, 4, -2, 1, -2, 1]
    # x^s + 1 has a vanishing diagonal at n = 3 and singular systems at
    # n = 4, 5: no row is interpolated
    interpolated.clear()
    solved.clear()
    rows = c_table(moment_family("x^s + 1"), 5, j_extra=8)
    assert interpolated == []
    assert solved == [1, 2, 3, 4, 5]
    assert sorted(rows.singular) == [4, 5]


# ---------------------------------------------------------------------------
# scaled-family conjecture


def test_conjecture_predicted_matches_pfaffians_small():
    for variant in ("i", "ii"):
        for k in (1, 2, 3):
            name = "genmotzkin" if variant == "i" else "genmotzkin-sum"
            fam = family_from_descriptor(f"{name}:k={k}")
            for n in range(1, 7):
                pf = pf_eliminate(SkewMatrix.from_family(fam, 2 * n))
                assert conjecture_predicted(k, n, variant) == pf, (variant, k, n)


def test_conjecture_predicted_cases():
    # off the residue classes the value is exactly zero
    assert conjecture_predicted(2, 1, "i") == 0
    assert conjecture_predicted(3, 4, "i") == 0
    # k = 1 variant ii at n = 1 is the dim-2 sum instance
    assert conjecture_predicted(1, 1, "ii") == 2
    # second branch: k = 3 variant i has entries at n = 2 (m = (2+1)/3 = 1)
    fam = family_from_descriptor("genmotzkin:k=3")
    assert conjecture_predicted(3, 2, "i") == pf_eliminate(SkewMatrix.from_family(fam, 4))
    with pytest.raises(ValueError):
        conjecture_predicted(0, 1, "i")
    with pytest.raises(ValueError):
        conjecture_predicted(2, 1, "iii")


def old_conjecture_predicted(k, n, variant):
    """The four-branch form that conjecture_predicted replaced, kept as the
    reference, with the case label check_conjecture1 computed beside it."""
    if variant == "i":
        if n % k == 0:
            m = n // k
            out = Fraction(1)
            for a in range(m):
                for b in range(k):
                    out *= 4 * k * a + 2 * b + k
            return -out if (m * (k // 2)) % 2 else out
        if k % 2 == 1 and (n + k // 2) % k == 0:
            m = (n + k // 2) // k
            out = Fraction(1)
            for b in range(1, k // 2 + 1):
                out /= 2 * b - k
            for a in range(m):
                for b in range(1, k + 1):
                    out *= 4 * k * a + 2 * b - k
            return -out if ((m - 1) * (k // 2)) % 2 else out
        return Fraction(0)
    if n % k == 0:
        m = n // k
        out = Fraction(1)
        for a in range(m):
            for b in range(k):
                out *= 4 * k * a + 2 * b + k + 1
        return -out if (m * (k // 2)) % 2 else out
    if k % 2 == 0 and (n + k // 2) % k == 0:
        m = (n + k // 2) // k
        out = Fraction(1)
        for b in range(1, k // 2 + 1):
            out /= 2 * b - k - 1
        for a in range(m):
            for b in range(1, k + 1):
                out *= 4 * k * a + 2 * b - k - 1
        return -out if ((m - 1) * (k // 2)) % 2 else out
    return Fraction(0)


def old_conjecture_case(k, n, variant):
    if n % k == 0:
        return "m = n/k"
    if (k % 2 == 1 if variant == "i" else k % 2 == 0) and (n + k // 2) % k == 0:
        return "m = (n + floor(k/2))/k"
    return "off-class zero"


def test_conjecture_predicted_matches_the_four_branch_form():
    labels = {None: "off-class zero", 0: "m = n/k", 1: "m = (n + floor(k/2))/k"}
    for variant in ("i", "ii"):
        for k in range(1, 9):
            for n in range(40):
                assert conjecture_predicted(k, n, variant) == old_conjecture_predicted(k, n, variant)
                assert labels[conjecture_class(k, n, variant)] == old_conjecture_case(k, n, variant)


def test_conjecture_signs_are_real():
    # the on-class values genuinely alternate in sign for k = 2
    assert conjecture_predicted(2, 2, "i") == -8
    assert conjecture_predicted(2, 4, "i") == 960
    assert pf_naive(SkewMatrix.from_family(family_from_descriptor("genmotzkin:k=2"), 4)) == -8


def test_check_conjecture1_report():
    report = check_conjecture1(2, 6, variant="i")
    assert report.all_match
    assert len(report.rows) == 6
    cases = [row["case"] for row in report.rows]
    assert cases[0] == "off-class zero"
    assert cases[1] == "m = n/k"
    data = report.to_json_dict()
    assert data["status"] == "verified at scale"
    assert data["config"] == {"k": 2, "variant": "i", "n_max": 6}
    assert data["version"]


def test_check_conjecture1_second_branch_case_label():
    report = check_conjecture1(3, 5, variant="i")
    assert report.all_match
    by_n = {row["n"]: row for row in report.rows}
    assert by_n[2]["case"] == "m = (n + floor(k/2))/k"
    assert by_n[3]["case"] == "m = n/k"
    assert by_n[4]["case"] == "off-class zero"


def test_check_conjecture1_progress(monkeypatch):
    """One message before the elimination, so that a long one is announced,
    then one per n."""
    seen = []
    monkeypatch.setattr(pipeline, "pf_eliminate",
                        recording(seen, pipeline.pf_eliminate))
    check_conjecture1(1, 3, variant="i", progress=seen.append)
    assert seen[0] == "eliminating A_6"
    assert isinstance(seen[1], tuple)  # the elimination's arguments
    assert seen[2:] == ["n=1", "n=2", "n=3"]


def recording(calls: list, fn):
    """`fn`, appending the arguments of each call to `calls`."""
    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped


def test_check_conjecture1_builds_and_eliminates_one_matrix(monkeypatch):
    eliminated, built = [], []
    monkeypatch.setattr(pipeline, "pf_eliminate", recording(eliminated, pipeline.pf_eliminate))
    monkeypatch.setattr(SkewMatrix, "from_family",
                        classmethod(recording(built, SkewMatrix.from_family.__func__)))
    report = check_conjecture1(3, 24)
    assert report.all_match and len(report.rows) == 24
    assert [row["pfaffian"] == "0" for row in report.rows].count(True) == 8
    assert [dim for _, _, dim in built] == [48]
    assert len(eliminated) == 1


def test_ratio_sequence_eliminates_once_when_b2_vanishes(monkeypatch):
    # a(1, 2) = moment(3) = 0; the leading Pfaffians past that zero come from
    # the same pass; dim 12 reads moments 0..23
    moments = [Fraction(v) for v in (1, 2, -1, 0, 3, 1, -2, 2, 1, 3, -1, 2) * 2]
    family = MatrixFamily("handmade", "handmade", moments.__getitem__)
    eliminated = []
    monkeypatch.setattr(pipeline, "pf_eliminate", recording(eliminated, pipeline.pf_eliminate))
    ratios = [(Fraction(1), 1)] * 6
    pfaffians, mismatch_n = ratio_sequence(family, ratios)
    assert len(eliminated) == 1
    assert pfaffians[1] == 0 and mismatch_n == 1
    assert pfaffians == [Fraction(1)] + [
        pf_naive(SkewMatrix.from_family(family, 2 * n)) for n in range(1, 7)]
