"""Number sequences, the path triangle, and skew matrix families.

Every generator is checked against an independent combinatorial oracle
(explicit path walks / dynamic programming), not against its own formula.
"""

import functools
from fractions import Fraction

import pytest

from pfansatz.poly import Polynomial
from pfansatz.sequences import (
    delannoy,
    family_entry,
    family_from_descriptor,
    hyp2f1_terminating,
    motzkin,
    motzkin_column,
    motzkin_triangle,
    narayana,
    narayana_value,
    schroeder,
    trinomial_coefficient,
    validate_family_skew,
)

# ---------------------------------------------------------------------------
# combinatorial oracles


@functools.lru_cache(maxsize=None)
def motzkin_paths(steps, height):
    """Paths from height 0 using U/H/D steps, never below 0, ending at
    `height` after `steps` steps."""
    if height < 0 or height > steps:
        return 0
    if steps == 0:
        return 1 if height == 0 else 0
    return (
        motzkin_paths(steps - 1, height - 1)
        + motzkin_paths(steps - 1, height)
        + motzkin_paths(steps - 1, height + 1)
    )


@functools.lru_cache(maxsize=None)
def delannoy_paths(a, b):
    """King-move lattice paths (0,0) -> (a,b) with steps E, N, NE."""
    if a < 0 or b < 0:
        return 0
    if a == 0 or b == 0:
        return 1
    return delannoy_paths(a - 1, b) + delannoy_paths(a, b - 1) + delannoy_paths(a - 1, b - 1)


@functools.lru_cache(maxsize=None)
def schroeder_paths(a, b):
    """King-move paths (0,0) -> (a,b) that never rise above the diagonal."""
    if a < 0 or b < 0 or b > a:
        return 0
    if a == 0:
        return 1
    return schroeder_paths(a - 1, b) + schroeder_paths(a, b - 1) + schroeder_paths(a - 1, b - 1)


def dyck_peak_distribution(n):
    """Peak counts over all Dyck paths of semilength n (oracle for the
    weight-enumerator polynomial)."""
    counts = {}

    def walk(ups_left, downs_left, height, peaks, last_was_up):
        if ups_left == 0 and downs_left == 0:
            counts[peaks] = counts.get(peaks, 0) + 1
            return
        if ups_left:
            walk(ups_left - 1, downs_left, height + 1, peaks, True)
        if downs_left and height > 0:
            walk(ups_left, downs_left - 1, height - 1, peaks + (1 if last_was_up else 0), False)

    walk(n, n, 0, 0, False)
    return counts


# ---------------------------------------------------------------------------
# sequences


def test_motzkin_against_path_walker():
    for n in range(13):
        assert motzkin(n) == motzkin_paths(n, 0)
    assert [motzkin(n) for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]
    assert motzkin(-1) == 0 and motzkin(-5) == 0


def test_delannoy_against_king_walker():
    for n in range(11):
        assert delannoy(n) == delannoy_paths(n, n)
    assert [delannoy(n) for n in range(6)] == [1, 3, 13, 63, 321, 1683]
    assert delannoy(-2) == 0


def test_schroeder_against_subdiagonal_walker():
    for n in range(11):
        assert schroeder(n) == schroeder_paths(n, n)
    assert [schroeder(n) for n in range(7)] == [1, 2, 6, 22, 90, 394, 1806]
    assert schroeder(-1) == 0


def test_narayana_against_dyck_peaks():
    for n in range(1, 8):
        dist = dyck_peak_distribution(n)
        poly = narayana(n)
        coeffs = {exp[0]: c for exp, c in poly.terms.items()}
        assert coeffs == {k: Fraction(v) for k, v in dist.items()}
    assert narayana(0) == Polynomial.constant(1, ("x",))
    assert not narayana(-3)


def test_narayana_value_matches_polynomial_eval():
    for n in range(9):
        for x in (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)):
            assert narayana_value(n, x) == narayana(n).eval({"x": x})


def test_narayana_value_is_memoized_and_exact():
    narayana_value.cache_clear()
    points = [Fraction(3, 7), Fraction(-2, 5), Fraction(1), Fraction(0), Fraction(9, 4)]
    for _ in range(2):
        for x in points:
            for n in range(-1, 16):
                assert narayana_value(n, x) == narayana(n).eval({"x": x})
    info = narayana_value.cache_info()
    assert info.currsize == len(points) * 17
    assert info.hits == len(points) * 17


def test_schroeder_equals_weighted_count_at_two():
    for n in range(31):
        assert schroeder(n) == narayana_value(n, Fraction(2))


# ---------------------------------------------------------------------------
# terminating Gauss sums


def test_hyp2f1_explicit_small_sum():
    # 2F1(-2, 3; 5; z) = 1 - (6/5) z + (2/5) z^2  (three terms by hand)
    for z in (Fraction(4), Fraction(1, 3), Fraction(-2)):
        expected = 1 - Fraction(6, 5) * z + Fraction(2, 5) * z * z
        assert hyp2f1_terminating(Fraction(-2), Fraction(3), Fraction(5), z) == expected


def test_hyp2f1_binomial_special_case():
    # 2F1(-n, b; b; z) = (1 - z)^n
    for n in range(6):
        got = hyp2f1_terminating(Fraction(-n), Fraction(7), Fraction(7), Fraction(1, 2))
        assert got == Fraction(1, 2) ** n


def test_hyp2f1_error_cases():
    with pytest.raises(ValueError):
        hyp2f1_terminating(Fraction(1, 2), Fraction(3), Fraction(2), Fraction(4))
    with pytest.raises(ValueError):
        # c = -1 is hit at m = 1 before the series stops at m = 3
        hyp2f1_terminating(Fraction(-3), Fraction(2), Fraction(-1), Fraction(4))


def test_trinomial_coefficient_against_expansion():
    for m in range(7):
        poly = [1]
        for _ in range(m):
            nxt = [0] * (len(poly) + 2)
            for idx, c in enumerate(poly):
                nxt[idx] += c
                nxt[idx + 1] += c
                nxt[idx + 2] += c
            poly = nxt
        for r in range(2 * m + 3):
            expected = poly[r] if r < len(poly) else 0
            assert trinomial_coefficient(m, r) == expected


# ---------------------------------------------------------------------------
# the path triangle


def test_triangle_odd_columns_count_paths():
    for i in range(1, 10):
        for k in range(1, 8):
            assert motzkin_triangle(i, 2 * k - 1) == motzkin_paths(i - 1, k - 1)


def test_triangle_even_columns_weighted_trinomial():
    for i in range(1, 10):
        for k in range(1, 8):
            expected = k * trinomial_coefficient(i - 1, i + k - 1)
            assert motzkin_triangle(i, 2 * k) == expected


def test_triangle_band_zeros():
    for i in range(1, 8):
        for j in range(2 * i, 2 * i + 6):
            assert motzkin_triangle(i, j) == 0
    assert motzkin_triangle(0, 1) == 0
    assert motzkin_triangle(3, 0) == 0


def test_triangle_printed_values():
    rows = [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 0, 0],
        [2, 2, 2, 2, 1, 0, 0, 0],
        [4, 6, 5, 6, 3, 3, 1, 0],
    ]
    for i in range(1, 5):
        for j in range(1, 9):
            assert motzkin_triangle(i, j) == rows[i - 1][j - 1]


def test_motzkin_column_bottom_row():
    for i in range(1, 12):
        assert motzkin_column(1, i) == motzkin(i - 1)


# ---------------------------------------------------------------------------
# matrix families


def test_family_descriptors_round_trip():
    for desc in ("motzkin", "delannoy", "schroeder", "narayana:x=2",
                 "narayana:x=sym", "genmotzkin:k=2", "genmotzkin-sum:k=3"):
        fam = family_from_descriptor(desc)
        assert validate_family_skew(fam, size=8)


def test_family_entries_match_defining_rules():
    mz = family_from_descriptor("motzkin")
    assert family_entry(mz, 1, 2) == motzkin(0)
    assert family_entry(mz, 2, 5) == 3 * motzkin(4)
    de = family_from_descriptor("delannoy")
    assert family_entry(de, 1, 2) == delannoy(0)
    sc = family_from_descriptor("schroeder")
    assert family_entry(sc, 1, 2) == schroeder(1)
    na = family_from_descriptor("narayana:x=sym")
    assert family_entry(na, 1, 2) == narayana(1)
    gm = family_from_descriptor("genmotzkin:k=2")
    assert family_entry(gm, 1, 2) == motzkin_column(2, 1)
    gs = family_from_descriptor("genmotzkin-sum:k=2")
    assert family_entry(gs, 1, 2) == motzkin_column(2, 1) + motzkin_column(2, 2)


def test_family_entry_negative_sequence_index_is_zero():
    # the (1,2) entry of the delannoy family reads index i+j-3 = 0; the (2,1)
    # mirror stays consistent through the sign factor
    de = family_from_descriptor("delannoy")
    assert family_entry(de, 2, 1) == -family_entry(de, 1, 2)
    with pytest.raises(ValueError):
        family_entry(de, 0, 1)


def test_bad_descriptors_raise():
    for desc in ("nosuch", "motzkin:k=2", "narayana", "narayana:y=2",
                 "narayana:x=", "genmotzkin:k=0", "genmotzkin:k=a"):
        with pytest.raises(ValueError):
            family_from_descriptor(desc)


def test_narayana_rational_parameter():
    fam = family_from_descriptor("narayana:x=1/2")
    assert fam.x == Fraction(1, 2)
    assert family_entry(fam, 1, 2) == narayana_value(1, Fraction(1, 2))
    assert fam.descriptor == "narayana:x=1/2"
