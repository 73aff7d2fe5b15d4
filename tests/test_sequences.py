"""Number sequences, the path triangle, and skew matrix families.

Every generator is checked against an independent combinatorial oracle
(explicit path walks / dynamic programming), not against its own formula.
"""

import functools
import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfansatz import sequences
from pfansatz.pfaffian import SkewMatrix
from pfansatz.pipeline import check_identity2
from pfansatz.poly import Polynomial, entry_text, over_common_denominator
from pfansatz.sequences import (
    delannoy,
    family_from_descriptor,
    hyp2f1_terminating,
    motzkin,
    motzkin_column,
    motzkin_triangle,
    narayana,
    narayana_value,
    schroeder,
    trinomial_coefficient,
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
    # one memo: the sequence at each x, which keeps every value it reached
    memo = sequences._narayana_at_rational
    memo.cache_clear()
    points = [Fraction(3, 7), Fraction(-2, 5), Fraction(1), Fraction(0), Fraction(9, 4)]
    for _ in range(2):
        for x in points:
            for n in range(-1, 16):
                assert narayana_value(n, x) == narayana(n).eval({"x": x})
    info = memo.cache_info()
    assert info.currsize == len(points)
    assert info.hits == len(points) * (2 * 17 - 1)
    assert [len(memo(x)._values) for x in points] == [16] * len(points)


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
    # from_dense refuses a nonzero diagonal or a pair a(i, j) != -a(j, i)
    for desc in ("motzkin", "delannoy", "schroeder", "narayana:x=2",
                 "narayana:x=sym", "genmotzkin:k=2", "genmotzkin-sum:k=3"):
        A = SkewMatrix.from_family(family_from_descriptor(desc), 8)
        assert SkewMatrix.from_dense(A.dense()) == A


def test_family_entries_match_defining_rules():
    def entry(desc, i, j):
        return SkewMatrix.from_family(family_from_descriptor(desc), 6).entry(i, j)

    assert entry("motzkin", 1, 2) == motzkin(0)
    assert entry("motzkin", 2, 5) == 3 * motzkin(4)
    assert entry("delannoy", 1, 2) == delannoy(0)
    assert entry("schroeder", 1, 2) == schroeder(1)
    assert entry("narayana:x=sym", 1, 2) == narayana(1)
    assert entry("genmotzkin:k=2", 1, 2) == motzkin_column(2, 1)
    assert entry("genmotzkin-sum:k=2", 1, 2) == motzkin_column(2, 1) + motzkin_column(2, 2)


def test_family_entry_negative_sequence_index_is_zero():
    # the (1,2) entry of the delannoy family reads moment 3, delannoy(0); the
    # moments below read negative indices and vanish; the (2,1) mirror stays
    # consistent through the sign factor
    de = family_from_descriptor("delannoy")
    assert [de.moment(s) for s in range(4)] == [0, 0, 0, 1]
    A = SkewMatrix.from_family(de, 2)
    assert A.entry(2, 1) == -A.entry(1, 2) == -1
    with pytest.raises(IndexError):
        A.entry(0, 1)


def test_bad_descriptors_raise():
    for desc in ("nosuch", "motzkin:k=2", "narayana", "narayana:y=2",
                 "narayana:x=", "genmotzkin:k=0", "genmotzkin:k=a"):
        with pytest.raises(ValueError):
            family_from_descriptor(desc)


def test_narayana_rational_parameter():
    fam = family_from_descriptor("narayana:x=1/2")
    assert fam.x == Fraction(1, 2)
    assert SkewMatrix.from_family(fam, 2).entry(1, 2) == narayana_value(1, Fraction(1, 2))
    assert fam.descriptor == "narayana:x=1/2"


# ---------------------------------------------------------------------------
# the moment form against the per-entry rules it replaced


def entry_rule(descriptor):
    """The (i, j) rule each family used before families became moment
    sequences, written out independently of `family_from_descriptor`."""
    name, _, arg = descriptor.partition(":")
    value = arg.partition("=")[2]
    if name == "motzkin":
        return lambda i, j: (j - i) * motzkin(i + j - 3)
    if name == "delannoy":
        return lambda i, j: (j - i) * delannoy(i + j - 3)
    if name == "schroeder":
        return lambda i, j: (j - i) * schroeder(i + j - 2)
    if descriptor == "narayana:x=sym":
        return lambda i, j: narayana(i + j - 2) * (j - i)
    if name == "narayana":
        return lambda i, j: (j - i) * narayana_value(i + j - 2, Fraction(value))
    k = int(value)
    if name == "genmotzkin":
        return lambda i, j: (j - i) * motzkin_column(k, i + j - 2)
    return lambda i, j: (j - i) * (motzkin_column(k, i + j - 2) + motzkin_column(k, i + j - 1))


def per_entry(rule, zero):
    """The entry function of a rule family: `zero` on the diagonal."""
    return lambda i, j: zero if i == j else rule(i, j)


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def descriptors(draw):
    name = draw(st.sampled_from(["motzkin", "delannoy", "schroeder", "narayana",
                                 "genmotzkin", "genmotzkin-sum"]))
    if name == "narayana":
        x = draw(st.one_of(st.just("sym"), RATIONALS.map(str)))
        return f"narayana:x={x}"
    if name.startswith("genmotzkin"):
        return f"{name}:k={draw(st.integers(1, 4))}"
    return name


def zero_of(descriptor):
    return Polynomial.zero(("x",)) if descriptor == "narayana:x=sym" else Fraction(0)


def same_entry(a, b):
    """Equal, of one type, over the same variables and printed alike."""
    return (type(a) is type(b) and a == b and entry_text(a) == entry_text(b)
            and getattr(a, "variables", None) == getattr(b, "variables", None))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(descriptors(), st.integers(0, 12))
def test_from_family_matches_the_entry_rules(descriptor, half_dim):
    dim = 2 * half_dim
    A = SkewMatrix.from_family(family_from_descriptor(descriptor), dim)
    entry = per_entry(entry_rule(descriptor), zero_of(descriptor))
    assert same_entry(A.zero(), zero_of(descriptor))
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            assert same_entry(A.entry(i, j), entry(i, j)), (i, j)


def contraction_by_entries(entry, rows, j_extra):
    """check_identity2 as it was: one entry call per (n, i, j)."""
    values = {}
    for n, row in rows.items():
        for j in range(1, 2 * n + j_extra + 1):
            total = None
            for i in range(1, 2 * n):
                term = row[i - 1] * entry(i, j)
                total = term if total is None else total + term
            values[(n, j)] = total
    return values


@st.composite
def cofactor_tables(draw, symbolic):
    """(n_max, {n: row}) of drawn rows, over denominator 1, with up to two
    sizes missing: rationals, or polynomials in x when symbolic."""
    n_max = draw(st.integers(1, 4 if symbolic else 6))
    singular = draw(st.sets(st.integers(1, n_max), max_size=2))
    if symbolic:
        cell = st.lists(RATIONALS, min_size=1, max_size=3).map(
            lambda cs: Polynomial(("x",), {(e,): c for e, c in enumerate(cs)}))
    else:
        cell = RATIONALS
    return n_max, {n: [draw(cell) for _ in range(1, 2 * n)]
                   for n in range(1, n_max + 1) if n not in singular}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(["motzkin", "narayana:x=p/q", "narayana:x=sym"]), RATIONALS,
       st.integers(0, 4), st.data())
def test_check_identity2_matches_the_per_entry_contraction(kind, x, j_extra, data):
    descriptor = kind.replace("p/q", str(x))
    fam = family_from_descriptor(descriptor)
    n_max, rows = data.draw(cofactor_tables(kind == "narayana:x=sym"))
    entry = per_entry(entry_rule(descriptor), zero_of(descriptor))
    expected = contraction_by_entries(entry, rows, j_extra)
    moments = [fam.moment(s) for s in range(4 * n_max + j_extra)]
    if not fam.symbolic:
        moments, m_den = over_common_denominator(moments)
    got = {}
    for n, row in rows.items():
        den = 1
        if not fam.symbolic:
            row, den = over_common_denominator(row)
            den *= m_den
        for j, v in enumerate(check_identity2(row, den, moments, 2 * n + j_extra), start=1):
            got[(n, j)] = v
    assert got.keys() == expected.keys()
    assert all(same_entry(got[k], expected[k]) for k in expected)


# ---------------------------------------------------------------------------
# the recurrences against the binomial sums they replaced


def motzkin_sum(n):
    if n < 0:
        return Fraction(0)
    return sum(
        (Fraction(comb(n, 2 * k) * comb(2 * k, k), k + 1) for k in range(n // 2 + 1)),
        Fraction(0),
    )


def delannoy_sum(n):
    if n < 0:
        return Fraction(0)
    return sum((Fraction(comb(n, k) * comb(n + k, k)) for k in range(n + 1)), Fraction(0))


def schroeder_sum(n):
    if n < 0:
        return Fraction(0)
    return sum(
        (Fraction(comb(n + k, 2 * k) * comb(2 * k, k), k + 1) for k in range(n + 1)),
        Fraction(0),
    )


def narayana_sum(n):
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


def narayana_value_sum(n, x):
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


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(-3, 200), st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)))
@example(200, Fraction(3, 7))
def test_recurrences_match_the_binomial_sums(s, x):
    assert same_entry(motzkin(s), motzkin_sum(s))
    assert same_entry(delannoy(s), delannoy_sum(s))
    assert same_entry(schroeder(s), schroeder_sum(s))
    assert same_entry(narayana(s), narayana_sum(s))
    assert same_entry(narayana_value(s, x), narayana_value_sum(s, x))
    assert same_entry(narayana_value(s, Fraction(0)), narayana_value_sum(s, Fraction(0)))


def test_cold_recurrences_never_recurse():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys; from pfansatz.sequences import delannoy, motzkin; "
            "sys.setrecursionlimit(200); print(motzkin(3000)); print(delannoy(3000))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=False, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    # the same values as a run under the default limit
    assert done.stdout.decode().split() == [str(motzkin(3000)), str(delannoy(3000))]


def test_triangle_against_walks_and_expansions_on_a_wide_band():
    expansion = [1]  # coefficients of (1 + x + x^2)^(i - 1)
    for i in range(1, 31):
        for k in range(1, i + 3):
            assert motzkin_triangle(i, 2 * k - 1) == motzkin_paths(i - 1, k - 1)
            r = i + k - 1
            assert motzkin_triangle(i, 2 * k) == k * (expansion[r] if r < len(expansion) else 0)
        expansion = [sum(expansion[r - d] for d in range(3) if 0 <= r - d < len(expansion))
                     for r in range(len(expansion) + 2)]
