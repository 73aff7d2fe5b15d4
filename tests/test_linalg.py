"""Exact dense linear algebra: solving, nullspaces, determinants.

Oracles: permutation-expansion determinant, residual checks A*x == b and
A*v == 0, and random matrices with planted rank/kernel structure.
"""

import builtins
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfansatz import linalg
from pfansatz.linalg import LinearSolution, determinant, nullspace, solve_linear
from pfansatz.poly import Polynomial, parse_poly, poly_divmod, poly_gcd, quotient_text


def det_permutation_sum(rows):
    """Independent oracle: sum over permutations with inversion signs."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        sign = -1 if inversions % 2 else 1
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def random_rational_rows(rng, rows, cols, denom=False):
    def draw():
        if denom and rng.random() < 0.3:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return Fraction(rng.randint(-6, 6))

    return [[draw() for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# determinant


def test_determinant_matches_permutation_sum():
    rng = random.Random(101)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = random_rational_rows(rng, n, n, denom=True)
            assert determinant(rows) == det_permutation_sum(rows)


def test_determinant_empty_and_singular():
    assert determinant([]) == 1
    assert determinant([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_determinant_polynomial_entries():
    n = parse_poly("n", ("n",))
    one = Polynomial.constant(1, ("n",))
    assert determinant([[n, one], [one, n]]) == parse_poly("n^2 - 1", ("n",))


def test_determinant_polynomial_matches_permutation_sum():
    rng = random.Random(103)
    x = parse_poly("x", ("x",))
    for n in (1, 2, 3, 4):
        for _ in range(5):
            rows = [
                [rng.randint(-3, 3) * x * x + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
                for _ in range(n)
            ]
            rows[0][0] = Fraction(0)  # forces a row swap whenever n > 1
            assert determinant(rows) == det_permutation_sum(rows)


def test_determinant_multiplicative():
    rng = random.Random(102)
    for _ in range(5):
        a = random_rational_rows(rng, 4, 4)
        b = random_rational_rows(rng, 4, 4)
        prod = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]
        assert determinant(prod) == determinant(a) * determinant(b)


INT_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(INT_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_of_int_rows_matches_the_fraction_path(rows):
    # int rows are eliminated as they are; the same rows as Fractions take
    # the per-row denominator pass, as int rows did before
    copy = [list(r) for r in rows]
    got = determinant(rows)
    assert type(got) is Fraction
    assert got == determinant([[Fraction(x) for x in r] for r in rows])
    assert rows == copy  # the input is not eliminated in place
    if len(rows) <= 4:
        assert got == det_permutation_sum(rows)


def off_by_one_divmod(a, b):
    """divmod with the dividend one too large wherever the divisor is not
    +-1: an exact division made inexact."""
    return builtins.divmod(a + (abs(b) > 1), b)


def test_bareiss_refuses_an_inexact_int_division(monkeypatch):
    rows = [[2, 1, 1], [1, 3, 1], [1, 1, 4]]
    assert determinant(rows) == 17
    # the second step divides by the first pivot, 2
    monkeypatch.setattr(linalg, "divmod", off_by_one_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="inexact division"):
        determinant(rows)


def perturbed_divmod(a, b):
    """divmod with a Polynomial dividend one too large wherever the divisor
    is not constant: an exact division made inexact."""
    if isinstance(b, Polynomial) and not b.is_constant():
        a = a + 1
    return builtins.divmod(a, b)


def test_bareiss_refuses_an_inexact_polynomial_division(monkeypatch):
    x = parse_poly("x")
    rows = [[x, 1, 1], [1, x, 1], [1, 1, x]]
    assert determinant(rows) == x ** 3 - 3 * x + 2
    # the second step divides by the first pivot, x
    monkeypatch.setattr(linalg, "divmod", perturbed_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="inexact division"):
        determinant(rows)


def test_back_substitution_refuses_an_inexact_polynomial_division(monkeypatch):
    x = parse_poly("x")
    # one equation: the echelon takes one step and divides by nothing, so
    # the only division is the back-substitution's, (x * (x + 1)) / x
    sol = solve_linear([[x]], [x + 1])
    assert sol.vector == (x + 1,) and sol.denominator == x
    monkeypatch.setattr(linalg, "divmod", perturbed_divmod, raising=False)
    with pytest.raises(ArithmeticError, match="inexact division"):
        solve_linear([[x]], [x + 1])


# ---------------------------------------------------------------------------
# solve_linear


def test_solve_unique_system():
    sol = solve_linear([[2, 1], [1, -1]], [Fraction(5), Fraction(1)])
    assert sol is not None and sol.unique
    assert sol.vector == (Fraction(2), Fraction(1))
    assert sol.denominator == 1


def test_solve_residual_on_random_systems():
    rng = random.Random(103)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = random_rational_rows(rng, n, n, denom=True)
        x_true = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(rows[i][j] * x_true[j] for j in range(n)) for i in range(n)]
        sol = solve_linear(rows, rhs)
        assert sol is not None
        # the residual must vanish whether or not the system was unique
        for i in range(n):
            assert sum(rows[i][j] * sol.vector[j] for j in range(n)) == rhs[i]


def test_solve_inconsistent_returns_none():
    assert solve_linear([[1, 1], [1, 1]], [Fraction(0), Fraction(1)]) is None


def test_solve_underdetermined_flags_nonunique():
    sol = solve_linear([[1, 1]], [Fraction(3)])
    assert sol is not None and not sol.unique
    assert sol.vector[0] + sol.vector[1] == 3


def test_solve_polynomial_entries():
    n = parse_poly("n", ("n",))
    one = Polynomial.constant(1, ("n",))
    # [[n, 1], [0, 1]] x = [n + 1, 1]  =>  x = (1, 1), returned as (D, D)
    sol = solve_linear(
        [[n, one], [Polynomial.zero(("n",)), one]],
        [parse_poly("n + 1", ("n",)), one],
    )
    assert sol is not None and sol.unique
    assert sol.denominator
    assert sol.vector == (sol.denominator, sol.denominator)


# ---------------------------------------------------------------------------
# nullspace


def test_nullspace_planted_kernel():
    rng = random.Random(104)
    for _ in range(15):
        rows_n = rng.randint(2, 5)
        cols_n = rows_n + rng.randint(1, 2)
        rows = random_rational_rows(rng, rows_n, cols_n)
        basis = nullspace(rows)
        assert len(basis) == cols_n - field_rank(rows)
        for v in basis:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0
            # normalization: integer entries, content 1, first nonzero positive
            nz = [a for a in v if a != 0]
            assert nz and nz[0] > 0
            assert all(a.denominator == 1 for a in v)


def test_nullspace_full_rank_is_empty():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_known_vector():
    basis = nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] + v[2] == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_nullspace_of_integer_rows_equals_fraction_rows(nrows, ncols, data):
    """Rows of plain ints skip the denominator clearing; scaling a row by a
    positive integer never changes the normalized kernel basis."""
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    ints = []
    for r in rows:
        scale = data.draw(st.integers(1, 5)) * math.lcm(*(x.denominator for x in r))
        ints.append([int(x * scale) for x in r])
    assert all(type(x) is int for r in ints for x in r)
    assert nullspace(ints) == nullspace(rows)



# ---------------------------------------------------------------------------
# the polynomial Bareiss kernel against field elimination over Q(x) (the
# elimination it replaced, kept here as the oracle), on a test-local field
# of reduced (numerator, denominator) pairs


class Quotient:
    """num / den over Q(x): den monic, and gcd(num, den) = 1 by `poly_gcd`."""

    def __init__(self, num, den=1):
        num, den = (x if isinstance(x, Polynomial) else Polynomial.constant(x, X)
                    for x in (num, den))
        if not den.is_constant():
            g = poly_gcd(num, den)
            if g.total_degree() > 0:
                num = poly_divmod(num, g)[0].with_variables(X)
                den = poly_divmod(den, g)[0].with_variables(X)
        _, lead = den.leading_term()
        self.num, self.den = num / lead, den / lead

    def __bool__(self):
        return bool(self.num)

    def __sub__(self, other):
        return Quotient(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return Quotient(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return Quotient(self.num * other.den, self.den * other.num)


def field_echelon(rows, ncols):
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), -1)
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            q = rows[i][col]
            if q:
                factor = q / p
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    return pivots


def field_solve(rows, rhs):
    """(vector of Quotients, unique) with free unknowns 0, or None when
    inconsistent."""
    n = len(rows[0])
    work = [[Quotient(x) for x in r + [b]] for r, b in zip(rows, rhs)]
    pivots = field_echelon(work, n + 1)
    if any(col == n for _, col in pivots):
        return None
    x = [Quotient(0)] * n
    for r, col in reversed(pivots):
        total = work[r][n]
        for c in range(col + 1, n):
            total = total - work[r][c] * x[c]
        x[col] = total / work[r][col]
    return x, len(pivots) == n


def field_rank(rows):
    return len(field_echelon([[Quotient(x) for x in r] for r in rows], len(rows[0])))


X = ("x",)
SMALL = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def q_x_entry(draw):
    """Sparse entries of degree <= 2 over Q[x]; a few plain Fractions."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Polynomial.zero(X)
    if kind == 1:
        return Fraction(draw(SMALL))
    coeffs = draw(st.lists(SMALL, min_size=1, max_size=3))
    return Polynomial(X, {(k,): c for k, c in enumerate(coeffs)})


def product(b, c):
    return [[sum((b[i][k] * c[k][j] for k in range(len(c))), Polynomial.zero(X))
             for j in range(len(c[0]))] for i in range(len(b))]


@st.composite
def q_x_systems(draw):
    """(kind, rows, rhs): square, rectangular, rank-deficient (consistent,
    with free unknowns) or inconsistent, up to dim 6."""
    kind = draw(st.sampled_from(("square", "rectangular", "deficient", "inconsistent")))
    entries = lambda r, c: [[draw(q_x_entry()) for _ in range(c)] for _ in range(r)]
    if kind == "square":
        n = draw(st.integers(1, 6))
        return kind, entries(n, n), [draw(q_x_entry()) for _ in range(n)]
    if kind == "rectangular":
        m = draw(st.integers(1, 6))
        n = draw(st.integers(1, 6).filter(lambda v: v != m))
        return kind, entries(m, n), [draw(q_x_entry()) for _ in range(m)]
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(m, n) - 1))
    rows = product(entries(m, k), entries(k, n))
    x0 = [draw(q_x_entry()) for _ in range(n)]
    rhs = [sum((a * b for a, b in zip(r, x0)), Polynomial.zero(X)) for r in rows]
    if kind == "inconsistent":
        rows[-1] = list(rows[0])
        rhs[-1] = rhs[0] + 1
    return kind, rows, rhs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q_x_systems())
def test_polynomial_solve_matches_field_elimination(system):
    kind, rows, rhs = system
    sol = solve_linear(rows, rhs)
    ref = field_solve(rows, rhs)
    assert (sol is None) == (ref is None)
    if kind == "inconsistent":
        assert sol is None
    if kind == "deficient":
        assert sol is not None and not sol.unique
    if sol is None:
        return
    vector, unique = ref
    assert sol.unique == unique
    d = sol.denominator
    assert d
    for y, q in zip(sol.vector, vector):
        assert y * q.den == q.num * d
    for r, b in zip(rows, rhs):
        assert sum((a * y for a, y in zip(r, sol.vector)), Polynomial.zero(X)) == d * b


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_determinant_equals_permutation_sum(n, polynomial, data):
    """Also: a matrix is any sequence of rows, so row tuples give the
    determinant, solution and kernel of the same row lists."""
    entry = q_x_entry() if polynomial else SMALL.map(Fraction)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    tuples = [tuple(r) for r in rows]
    assert determinant(rows) == determinant(tuples) == det_permutation_sum(rows)
    rhs = [data.draw(entry) for _ in range(n)]
    assert solve_linear(rows, rhs) == solve_linear(tuples, tuple(rhs))
    if not polynomial:
        assert nullspace(rows) == nullspace(tuples)


def test_polynomial_solve_returns_polynomials_and_reduced_quotients():
    x = parse_poly("x", X)
    one = Polynomial.constant(1, X)
    # [[x, 1], [1, x]] v = [1, 0]: v = (x, -1) / (x^2 - 1)
    sol = solve_linear([[x, one], [one, x]], [one, Polynomial.zero(X)])
    assert sol.unique
    d = sol.denominator
    assert all(type(y) is Polynomial for y in sol.vector)
    assert sol.vector[0] * (x * x - 1) == x * d
    assert sol.vector[1] * (x * x - 1) == -d
    assert [quotient_text(y, d) for y in sol.vector] == ["(x)/(x^2 - 1)", "(-1)/(x^2 - 1)"]
    # x v = x^2 + x: v = x + 1, whose text is a polynomial's
    sol = solve_linear([[x]], [x * x + x])
    assert sol.vector[0] == (x + 1) * sol.denominator
    assert quotient_text(sol.vector[0], sol.denominator) == "x + 1"


# ---------------------------------------------------------------------------
# the modular nullspace and the integer back-substitution against the
# Fraction back-substitution they replaced (a copy kept here as the oracle)


# bound at import, so a test that counts fallback calls does not count these
int_echelon = linalg._int_echelon


def fraction_back_substitute(rows, pivots, ncols, assign):
    x = [None] * ncols
    for col, val in assign.items():
        x[col] = Fraction(val)
    for r, col in reversed(pivots):
        total = Fraction(0)
        for c in range(col + 1, ncols):
            if rows[r][c] and x[c]:
                total += Fraction(int(rows[r][c])) * x[c]
            elif rows[r][c] and x[c] is None:
                raise AssertionError("unassigned trailing column")
        x[col] = -total / Fraction(int(rows[r][col]))
    return x


def reference_nullspace(rows):
    n = len(rows[0])
    work = linalg._int_rows([list(r) for r in rows])
    pivots = int_echelon(work, n)
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        assign = {c: Fraction(0) for c in range(n) if c not in pivot_cols}
        assign[free] = Fraction(1)
        basis.append(linalg._normalize_vector(fraction_back_substitute(work, pivots, n, assign)))
    return basis


def reference_solve(rows, rhs):
    n = len(rows[0])
    work = linalg._int_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    pivots = int_echelon(work, n + 1)
    if any(col == n for _, col in pivots):
        return None
    assign = {c: Fraction(0) for c in range(n) if c not in {col for _, col in pivots}}
    assign[n] = Fraction(-1)
    x = fraction_back_substitute(work, pivots, n + 1, assign)
    return LinearSolution(tuple(x[:n]), unique=len(pivots) == n, denominator=1)


@st.composite
def rank_deficient_rows(draw, max_rows=8, max_cols=9):
    """Rows spanned by at most min(rows, cols) - 1 random base rows (rank
    below full whenever that is possible), with small rational entries or,
    now and then, entries too large for a kernel to reconstruct mod p."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rank = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
    big = draw(st.booleans()) and draw(st.booleans())
    num = st.integers(-2**40, 2**40) if big else st.integers(-6, 6)
    entry = st.builds(Fraction, num, st.sampled_from((1, 1, 1, 2, 3)))
    base = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    rows = []
    for _ in range(nrows):
        mix = [draw(coeff) for _ in base]
        rows.append([sum((m * b[c] for m, b in zip(mix, base)), Fraction(0)) for c in range(ncols)])
    order = draw(st.permutations(range(nrows)))
    return [rows[k] for k in order]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(rank_deficient_rows())
def test_nullspace_matches_fraction_back_substitution(rows):
    assert nullspace(rows) == reference_nullspace(rows)


def _count_fallbacks(monkeypatch):
    calls = []
    original = linalg._int_echelon

    def counted(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "_int_echelon", counted)
    return calls


def test_nullspace_unlucky_prime_falls_through(monkeypatch):
    p = linalg._PRIME
    # mod p the first column vanishes, so e_0 comes back; the exact check
    # rejects it, and the exact path gives (1, -p)
    assert linalg._modular_kernel([[p, 1]], 2, p) is None
    calls = _count_fallbacks(monkeypatch)
    assert nullspace([[p, 1]]) == [(Fraction(1), Fraction(-p))]
    assert calls == [2]
    # [[p, p]] is the zero row mod p, but nullspace strips the row's content
    # first, and [[1, 1]] needs no fallback
    del calls[:]
    assert linalg._modular_kernel([[p, p]], 2, p) is None
    assert nullspace([[p, p]]) == [(Fraction(1), Fraction(-1))]
    assert calls == []


def test_nullspace_unreconstructible_kernel_uses_fallback(monkeypatch):
    rows = [[2**100 + 1, 3**70]]
    calls = _count_fallbacks(monkeypatch)
    assert nullspace(rows) == reference_nullspace(rows) == [(Fraction(3**70), -Fraction(2**100 + 1))]
    assert calls == [2]


def test_nullspace_small_kernel_needs_no_fallback(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    rows = [[1, 2, 3, 4], [2, 4, 7, 1], [3, 6, 10, 5]]
    assert nullspace(rows) == reference_nullspace(rows)
    assert calls == []


def reference_modular_kernel(rows, ncols, p):
    """The former list elimination: pending rows as lists of trailing
    columns, updated entry by entry, and each vector checked against every
    row by its own dot product."""
    pending = [[a % p for a in r] for r in rows]
    pivots = []
    for col in range(ncols):
        k = next((i for i, r in enumerate(pending) if r[0] % p), -1)
        if k < 0:
            pending = [r[1:] for r in pending]
            continue
        head = pending.pop(k)
        inv = pow(head[0], -1, p)
        head = [a * inv % p for a in head]
        pivots.append((col, head))
        tail = head[1:]
        updated = []
        for r in pending:
            c = p - r[0] % p
            updated.append([a + c * b for a, b in zip(r[1:], tail)] if c != p else r[1:])
        pending = updated
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        x = {free: 1}
        for col, row in reversed(pivots):
            if col < free:
                v = -sum(row[c - col] * x[c] for c in x) % p
                if v:
                    x[col] = v
        vec = [0] * ncols
        for c, v in x.items():
            vec[c] = linalg._rational_reconstruction(v, p)
            if vec[c] is None:
                return None
        vec = linalg.over_common_denominator(vec)[0]
        if any(sum(r[c] * vec[c] for c in x) for r in rows):
            return None
        basis.append(vec)
    return basis


@st.composite
def modular_kernel_cases(draw):
    """Content-stripped integer rows of a rank-deficient matrix, with zero
    and repeated columns spliced in, now and then unit rows that leave no
    kernel, an entry moved by a multiple of p (which leaves the rows
    unchanged mod p), and a prime: the one `nullspace` uses, or a small one
    under which reconstruction and the exact check fail often (p^2 just
    below a byte boundary, so a slot too narrow would overflow soon)."""
    p = draw(st.sampled_from((linalg._PRIME, 251, 13)))
    rows = linalg._int_rows(draw(rank_deficient_rows()))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows[0])))
        source = draw(st.one_of(st.none(), st.integers(0, len(rows[0]) - 1)))
        for r in rows:
            r.insert(at, 0 if source is None else r[source])
    if not draw(st.integers(0, 5)):  # full column rank: the basis is empty
        rows += [[int(i == j) for j in range(len(rows[0]))] for i in range(len(rows[0]))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[0]) - 1))
        rows[i][j] += p * draw(st.sampled_from((-2, -1, 1, 3)))
    return rows, p


def test_packed_modular_kernel_matches_list_elimination():
    outcomes = set()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(modular_kernel_cases())
    def matches(case):
        rows, p = case
        ncols = len(rows[0])
        got = linalg._modular_kernel([list(r) for r in rows], ncols, p)
        assert got == reference_modular_kernel([list(r) for r in rows], ncols, p)
        if got is not None:
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows for v in got)
        outcomes.add("refused" if got is None else "basis" if got else "empty")

    matches()
    assert outcomes == {"refused", "basis", "empty"}


def test_packed_check_rejects_a_vector_that_misses_a_row_by_one():
    rows = [[1, 1, 0], [0, 1, 1]]
    assert linalg._annihilates(rows, [[1, -1, 1]])
    for miss in ([1, -1, 2], [-1, 1, -2]):  # row 2 gives +1, then -1
        assert not linalg._annihilates(rows, [[1, -1, 1], miss])
        assert not linalg._annihilates(rows, [miss, [1, -1, 1]])
        assert not linalg._annihilates(rows, [miss])


def test_packed_check_rejects_a_dot_product_at_the_packing_bound():
    """max_row sum|a| * max|v| = 2 * 2^9: the first vector's dot product is
    that bound and the second's is -1, so slots of 10 bits would carry the
    -1 onto the 2^10 and read zero; the packed check must not."""
    m = 2 ** 9
    rows = [[1, 1]]
    basis = [[m, m], [1, -2]]
    assert not linalg._annihilates(rows, basis)
    assert 2 * m + (-1 << 10) == 0  # the cancellation a narrow slot would allow
    assert linalg._annihilates(rows, [[m, -m], [1, -1]])


def test_rational_reconstruction_bounds():
    p = 2**61 - 1
    for q in (Fraction(0), Fraction(-7, 3), Fraction(2**29, 2**30 - 1)):
        a = q.numerator * pow(q.denominator, -1, p) % p
        assert linalg._rational_reconstruction(a, p) == q
    # 1/7^30 has no representative within sqrt(p/2), so none is returned;
    # 1/3^40 has one, and it is not 1/3^40: hence the exact check
    assert linalg._rational_reconstruction(pow(7**30, -1, p), p) is None
    wrong = linalg._rational_reconstruction(pow(3**40, -1, p), p)
    assert wrong is not None and wrong != Fraction(1, 3**40)


@st.composite
def linear_systems(draw):
    """Consistent, inconsistent and underdetermined rational systems."""
    kind = draw(st.sampled_from(("consistent", "inconsistent", "underdetermined")))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(nrows + 1, 8)) if kind == "underdetermined" else draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 5)))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    x = [draw(entry) for _ in range(ncols)]
    rhs = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]
    if kind == "inconsistent":
        # a repeated row whose right-hand side disagrees
        k = draw(st.integers(0, nrows - 1))
        rows.append(list(rows[k]))
        rhs.append(rhs[k] + draw(st.sampled_from((1, -2, Fraction(1, 3)))))
    return rows, rhs


@settings(derandomize=True, max_examples=150, deadline=None)
@given(linear_systems())
def test_solve_matches_fraction_back_substitution(system):
    rows, rhs = system
    got = solve_linear(rows, rhs)
    assert got == reference_solve(rows, rhs)
    if got is not None:
        for r, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(r, got.vector)) == b
