"""The cofactor pipeline: tables, identity grids, ratio sequences,
closed forms, certification verdicts, and the scaled-family checker."""

import os
from fractions import Fraction

import pytest

from pfansatz import pipeline
from pfansatz.pfaffian import SkewMatrix, pf_eliminate, pf_naive
from pfansatz.pipeline import (
    ClosedForm,
    c_table,
    certify,
    check_conjecture1,
    check_identity2,
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
    table = c_table(MOTZKIN, 4)
    assert table.get(1, 1) == 1          # c_{2,1}
    assert table.get(2, 1) == 2          # c_{4,1}
    assert table.get(2, 3) == 1          # normalization at n = 2
    assert table.row(2) == [Fraction(2), Fraction(-2), Fraction(1)]
    assert not table.singular


def test_cofactor_normalization_all_sizes():
    table = c_table(MOTZKIN, 8)
    for n in range(1, 9):
        assert table.get(n, 2 * n - 1) == 1


def test_cofactor_boundary_zero_extension():
    table = c_table(MOTZKIN, 4)
    for n in range(1, 5):
        assert table.get(n, 0) == 0
        assert table.get(n, -3) == 0
        assert table.get(n, 2 * n) == 0
        assert table.get(n, 2 * n + 5) == 0
    assert table.get(0, 1) is None
    assert table.get(9, 1) is None


def test_cofactor_as_table_materializes_margin():
    table = c_table(MOTZKIN, 3)
    t = table.as_table()
    assert t.get((2, -1)) == 0
    assert t.get((2, 5)) == 0
    assert t.get((2, 1)) == 2
    assert (0, 1) not in t


def test_c_table_progress_messages():
    seen = []
    c_table(MOTZKIN, 3, progress=seen.append)
    assert seen == [f"cofactor system n={n}" for n in (1, 2, 3)]


def test_singular_family_recorded_not_raised():
    fam = family_from_descriptor("genmotzkin:k=2")
    table = c_table(fam, 3)
    assert 2 in table.singular
    assert table.get(2, 1) is None
    with pytest.raises(KeyError):
        table.row(2)


# ---------------------------------------------------------------------------
# orthogonality grid and ratios


def test_grid_zeros_and_diagonal():
    table = c_table(MOTZKIN, 6)
    grid = check_identity2(MOTZKIN, table, j_extra=4)
    assert grid.zero_violations() == []
    assert grid.get(1, 1) == 0
    assert grid.get(2, 1) == 0 and grid.get(2, 2) == 0 and grid.get(2, 3) == 0
    # diagonal carries the ratio sequence
    assert [grid.get(n, 2 * n) for n in range(1, 5)] == [1, 5, 9, 13]
    # the grid extends past the diagonal
    assert grid.get(2, 2 * 2 + 4) is not None


def test_ratio_sequence_cross_check():
    table = c_table(MOTZKIN, 6)
    grid = check_identity2(MOTZKIN, table, j_extra=2)
    ratio = ratio_sequence(MOTZKIN, grid)
    assert ratio.quotients_match and ratio.mismatch_n is None
    assert ratio.pfaffians[0] == 1
    assert ratio.pfaffians[2] == 5
    for n in range(1, 7):
        assert ratio.ratios[n - 1] == 4 * n - 3
        assert ratio.pfaffians[n] == pf_eliminate(SkewMatrix.from_family(MOTZKIN, 2 * n))


def test_ratio_values_to_twelve():
    table = c_table(MOTZKIN, 12)
    grid = check_identity2(MOTZKIN, table, j_extra=0)
    ratio = ratio_sequence(MOTZKIN, grid, cross_check=False)
    assert [ratio.ratios[n - 1] for n in range(1, 13)] == [4 * n - 3 for n in range(1, 13)]
    assert ratio.ratios[0] == 1 and ratio.ratios[1] == 5


def test_ratio_sequence_stops_at_singular_gap():
    fam = family_from_descriptor("genmotzkin:k=2")
    table = c_table(fam, 4)
    grid = check_identity2(fam, table, j_extra=0)
    ratio = ratio_sequence(fam, grid, cross_check=False)
    # n = 2 is singular, so only the contiguous prefix r_1 remains
    assert len(ratio.ratios) == 1


def test_narayana_symbolic_ratios():
    fam = family_from_descriptor("narayana:x=sym")
    table = c_table(fam, 4)
    grid = check_identity2(fam, table, j_extra=0)
    ratio = ratio_sequence(fam, grid)
    assert ratio.quotients_match
    expected = ["x", "5*x^3", "9*x^5", "13*x^7"]
    assert [quotient_text(g, d) for g, d in zip(ratio.ratios, ratio.denominators)] == expected


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
    report = certify(MOTZKIN, closed_form_for("motzkin"), 4)
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


def test_check_conjecture1_progress():
    seen = []
    check_conjecture1(1, 3, variant="i", progress=seen.append)
    assert len(seen) >= 3
