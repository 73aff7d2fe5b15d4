"""Certification pipeline for Pfaffian closed forms.

Given a skew matrix family, the pipeline finds the normalized cofactor row
at every size 2n up to a bound and contracts each kept row with the matrix
once, as it is kept.  A row comes from one of three sources (`c_table`):
  catalog upward   a rational family's cataloged recurrences generate it
                   from the rows before it,
  interpolation    a family whose moments are polynomials in one variable
                   x solves rational systems at x = 1, 2, .. and
                   interpolates each entry, from n = 4 on,
  solve            `cofactor_vector` solves its system, over Q or Q[x],
                   for every row the other two do not give.
The contraction g(n, j) is the only test that accepts a generated or an
interpolated row, and it checks the defining identities of the cofactor
vector.  One store, `CofactorRows`, keeps each row with its denominator and
contraction.  The pipeline then forms the ratio
sequence r_n = b_{2n}/b_{2(n-1)}, the diagonal g(n, 2n), cross-checks it
against directly computed Pfaffians, and compares the telescoped product
with the candidate closed form.  Everything is exact; a single mismatch
refutes with a witness.

The checks carry semantic labels:
  cofactor-normalization   last cofactor entry equals 1,
  cofactor-orthogonality   the cofactor vector annihilates columns j < 2n,
  pfaffian-ratio           diagonal value equals the Pfaffian quotient,
  closed-form-product      telescoped ratio product equals the closed form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from operator import mul
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ._version import __version__
from .pfaffian import SingularCofactorSystem, SkewMatrix, cofactor_vector, pf_eliminate
from .poly import (
    Entry,
    Polynomial,
    common_variables,
    entry_text,
    format_rational,
    over_common_denominator,
    parse_poly,
    parse_rational,
    quotient_text,
)
from .sequences import MatrixFamily, family_from_descriptor

if TYPE_CHECKING:
    from .guessing import GuessResult, Region, Table


# ---------------------------------------------------------------------------
# closed forms


class ClosedForm:
    """Opaque exact evaluator n -> b_{2n} with b_0 = evaluate(0) = 1."""

    __slots__ = ("description", "fn")

    def __init__(self, description: str, fn: Callable[[int], Entry]):
        self.description = description
        self.fn = fn

    def evaluate(self, n: int) -> Entry:
        if n < 0:
            raise ValueError("closed forms are indexed by n >= 0")
        return self.fn(n)


def _product(fn: Callable[[int], int], count: int) -> Fraction:
    out = Fraction(1)
    for k in range(count):
        out *= fn(k)
    return out


def _cf_motzkin(n: int) -> Fraction:
    return _product(lambda k: 4 * k + 1, n)


def _cf_delannoy(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    out = Fraction(2) ** ((n + 1) * (n - 1)) * (2 * n - 1)
    for k in range(1, n):
        out *= 4 * k - 1
    return out


def _cf_schroeder(n: int) -> Fraction:
    return Fraction(2) ** (n * n) * _cf_motzkin(n)


def closed_form_for(name: str, x: Optional[Fraction] = None) -> ClosedForm:
    """Built-in closed forms by family name; `x` parametrizes the weighted one
    (None means symbolic)."""
    if name == "motzkin":
        return ClosedForm("prod_{k<n} (4k+1)", _cf_motzkin)
    if name == "delannoy":
        return ClosedForm("2^((n+1)(n-1)) * (2n-1) * prod_{1<=k<n} (4k-1)", _cf_delannoy)
    if name == "schroeder":
        return ClosedForm("2^(n^2) * prod_{k<n} (4k+1)", _cf_schroeder)
    if name == "narayana":
        if x is None:
            def fn(n: int) -> Polynomial:
                return Polynomial(("x",), {(n * n,): _cf_motzkin(n)})
            return ClosedForm("x^(n^2) * prod_{k<n} (4k+1)", fn)
        xv = Fraction(x)

        def fn(n: int) -> Fraction:
            return xv ** (n * n) * _cf_motzkin(n)

        return ClosedForm(f"x^(n^2) * prod_{{k<n}} (4k+1) at x={format_rational(xv)}", fn)
    raise ValueError(f"no built-in closed form named {name!r}")


def _split_top_level(text: str, sep: str = "*") -> List[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def closed_form_from_text(text: str) -> ClosedForm:
    """Small closed-form grammar: a top-level product of factors
    `prod(<polynomial in k>)` (meaning prod_{k=0}^{n-1}), `pow(<rational>,
    n^2)`, and rational constants.  Example: "prod(4*k+2)"."""
    factors = []
    for piece in _split_top_level(text.strip()):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty factor in closed form {text!r}")
        if piece.startswith("prod(") and piece.endswith(")"):
            body = parse_poly(piece[5:-1], ("k",))
            factors.append(("prod", body))
        elif piece.startswith("pow(") and piece.endswith(")"):
            inner = _split_top_level(piece[4:-1], ",")
            if len(inner) != 2 or inner[1].strip() not in ("n^2", "n**2"):
                raise ValueError(f"pow factor must be pow(<rational>, n^2): {piece!r}")
            factors.append(("pow", parse_rational(inner[0].strip())))
        else:
            factors.append(("const", parse_rational(piece)))

    def fn(n: int) -> Fraction:
        out = Fraction(1)
        for kind, val in factors:
            if kind == "const":
                out *= val
            elif kind == "pow":
                out *= val ** (n * n)
            else:
                for k in range(n):
                    out *= val.eval({"k": k})
        return out

    return ClosedForm(text.strip(), fn)


# ---------------------------------------------------------------------------
# cofactor rows


# The first n whose row a family with moments in one variable takes by
# interpolation (`interpolation.PointRows`); the rows below are solved over
# Q[x], which is the cheaper there (measured in `c_table`'s docstring).
INTERPOLATED_FROM = 4

# The variables of each guessing table of `CofactorRows.table`.
TABLE_VARIABLES = {"c": ("n", "i"), "g": ("n", "j"), "r": ("n",)}


class CofactorRows:
    """The normalized cofactor row at each solved size 2n, with its
    contraction: rows[n] = (c, den, g), c = [c_{2n,1}, .., c_{2n,2n-1}] and
    g = [g_{n,1}, .., g_{n,2n+j_extra}] numerators over den (1 for a
    rational family and for an interpolated row), g_{n,j} = sum_i c_{2n,i}
    a(i, j).  g vanishes for j < 2n and carries the ratio on the diagonal
    j = 2n.  Sizes whose normalized system is singular are under `singular`
    instead."""

    __slots__ = ("rows", "singular")

    def __init__(self, rows: Dict[int, Tuple[List[Entry], Entry, List[Entry]]],
                 singular: Dict[int, str]):
        self.rows = rows
        self.singular = singular

    def get(self, n: int, i: int) -> Optional[Entry]:
        """The numerator of c_{2n,i}, zero outside 1 <= i <= 2n-1; None
        when row n is missing."""
        if n not in self.rows:
            return None
        return self.rows[n][0][i - 1] if 1 <= i < 2 * n else Fraction(0)

    def ratios(self) -> List[Tuple[Entry, Entry]]:
        """(g(n, 2n), den) over the contiguous run of rows from n = 1: past a
        missing row the quotient b_{2n}/b_{2n-2} loses its meaning."""
        out = []
        while len(out) + 1 in self.rows:
            n = len(out) + 1
            _, den, g = self.rows[n]
            out.append((g[2 * n - 1], den))
        return out

    def table(self, kind: str) -> Table:
        """The guessing table "c" (the zero extension materialized to a
        margin of 4 on each side of 1 <= i <= 2n-1), "g" or "r" (the
        ratios); its variables are TABLE_VARIABLES[kind]."""
        from .guessing import Table

        if kind == "r":
            points = {(n,): g for n, (g, _) in enumerate(self.ratios(), start=1)}
        elif kind == "c":
            points = {(n, i): self.get(n, i) for n in self.rows for i in range(-3, 2 * n + 4)}
        else:
            points = {(n, j): v for n, (_, _, g) in self.rows.items()
                      for j, v in enumerate(g, start=1)}
        if any(not isinstance(v, Fraction) for v in points.values()):
            raise ValueError("guessing operates on rational tables only")
        return Table(len(TABLE_VARIABLES[kind]), points)


def c_table(
    family: MatrixFamily, n_max: int, j_extra: int = 4,
    progress: Optional[Callable[[str], None]] = None,
) -> CofactorRows:
    """The normalized cofactor rows at each even size 2..2*n_max, and their
    contractions g(n, j) for 1 <= j <= 2n + j_extra: each kept row is
    contracted once, by `check_identity2`, as it is kept.

    Row n has three sources.  When row n-1 is kept with a nonzero diagonal
    g(n-1, 2n-2) = Pf(A_{2n-2}) / Pf(A_{2n-4}), the leading block of odd
    size 2n-1 has a one-dimensional kernel (over Q, or over Q(x)), so a row
    that is normalized and orthogonal to the raw moments, g(n, j) = 0 for
    j < 2n, is the cofactor row.  Then
      - a rational family with cataloged cofactor operators generates row n
        from them (`_generated_row`, catalog upward);
      - a family whose moments are polynomials in one variable x
        interpolates row n from its rational rows at x = 1, 2, ..
        (`interpolation.PointRows`), for n >= INTERPOLATED_FROM = 4.  The
        points tried are capped at 2 plus the sum over the equations of
        their largest degree, a bound on every Cramer minor's degree; row n
        of narayana:x=sym takes 2n points (the cap is 235 at n = 7).
        Below n = 4 the Q[x] solve is the cheaper (narayana:x=sym, 2-vCPU
        host, Python 3.11, best of 7, the moments' evaluation counted):
        0.06/0.22/0.92 ms solved against 0.40/0.64/1.05 ms interpolated at
        n = 1/2/3, then 3.1 against 1.7 ms at n = 4 and 37 against 7.1 ms
        at n = 7.
    Such a row is kept only when its contraction vanishes below the
    diagonal.  Every other row, and every row so refused, is solved by
    `cofactor_vector`."""
    rows = CofactorRows({}, {})
    moments = [family.moment(s) for s in range(4 * n_max + j_extra)]
    ops: List = []
    points = None
    if not family.symbolic:
        # imported here, as in `certify`: it builds this family's operators
        from .catalog import known_operators

        ops = [item.operator for item in known_operators(family.name) if item.target == "c"]
        moments, m_den = over_common_denominator(moments)
    elif n_max >= INTERPOLATED_FROM and len(common_variables(moments)) == 1:
        # imported here: only a symbolic family compiles the interpolation
        from .interpolation import PointRows

        points = PointRows(moments)

    def contract(vec: List[Entry], den: Entry, n: int) -> List[Entry]:
        if not family.symbolic:  # a rational row's denominator is 1
            vec, den = over_common_denominator(vec)
            den *= m_den
        return check_identity2(vec, den, moments, 2 * n + j_extra)

    for n in range(1, n_max + 1):
        if progress is not None:
            progress(f"cofactor system n={n}")
        previous = rows.rows.get(n - 1)
        vec = None
        if previous and previous[2][2 * n - 3]:
            if ops:
                vec = _generated_row(ops, rows, n)
            elif points is not None and n >= INTERPOLATED_FROM:
                vec = points.row(n)
        if vec is not None:
            den, g = 1, contract(vec, 1, n)
        if vec is None or any(g[:2 * n - 1]):
            try:
                vec, den = cofactor_vector(SkewMatrix.from_family(family, 2 * n))
            except SingularCofactorSystem as e:
                rows.singular[n] = str(e)
                continue
            g = contract(vec, den, n)
        rows.rows[n] = (vec, den, g)
    return rows


def _generated_row(ops: list, rows: CofactorRows, n: int) -> Optional[List[Fraction]]:
    """Row n, each c(n, i) from the first operator that can solve for it
    (`RecurrenceOperator.solve_at`) and c(n, 2n-1) = 1; None when some i has
    no such operator.

    While it is found, the row stands in `rows` as row n, its unknown
    entries None, so that an operator reads it, the rows before it and the
    zero extension of each through `rows.get`."""
    row: List[Optional[Fraction]] = [None] * (2 * n - 2) + [Fraction(1)]
    rows.rows[n] = (row, 1, [])
    try:
        for i in range(1, 2 * n - 1):
            for op in ops:
                row[i - 1] = op.solve_at(lambda point: rows.get(*point), (n, i))
                if row[i - 1] is not None:
                    break
            else:
                return None
        return row
    finally:
        del rows.rows[n]


def check_identity2(row: List[Entry], den: Entry, moments: List[Entry],
                    j_max: int) -> List[Entry]:
    """[g(1), .., g(j_max)]: a cofactor row, numerators over `den`, contracted
    with the columns of a(i, j) = (j - i) * moments[i + j].  Over Q the row
    and moments are ints, `den` the product of their denominators, and g(j)
    is one int sum over `den`.  Over Q[x] (any Polynomial among the row and
    the moments it reads) g(j) is the polynomial sum, the numerator of the
    contraction over `den`, over the union of the inputs' variables in order
    of first appearance, the row's first; it is computed in packed integers
    (Kronecker substitution), sharing no product code with the solve whose
    rows it checks.

    Write the row's coefficients as ints R over one denominator D_c and the
    moments' as ints M over D_m.  An exponent vector e goes to the position
    sum_k e_k * prod_{l<k} r_l, r_l = 1 + the row's and the moments' largest
    degrees in variable l, so the exponents of a product add without
    carrying from one position into the next.  Each polynomial is packed
    once as its value at X = 2^s, and g(j) = sum_i (j - i) C_i M_{i+j} is
    one int sum.  Every coefficient of g(j) times D_c*D_m is bounded by

        B = W * sum_i ||R_i||_1 * max_s ||M_s||_inf,

    W the largest |j - i|, ||.||_1 the sum and ||.||_inf the largest of the
    absolute values of the coefficients.  With 2^(s-1) > B, and > every
    input coefficient, each coefficient sits in its own balanced base-2^s
    digit, so the digits of g(j) decode uniquely to its coefficients over
    D_c*D_m."""
    used = moments[2:len(row) + j_max + 1]  # i + j runs over 2 .. len(row) + j_max
    if any(isinstance(v, Polynomial) for v in (*row, *used)):
        return _packed_contraction(row, used, j_max)
    out = []
    for j in range(1, j_max + 1):
        total = sum((j - i) * c * moments[i + j] for i, c in enumerate(row, 1))
        out.append(Fraction(total, den) if isinstance(total, int) else total)
    return out


def _terms_over(value: Entry, variables: tuple) -> list:
    """The (exponent, coefficient) pairs of a Polynomial or rational over
    `variables`."""
    if isinstance(value, Polynomial):
        return list(value.with_variables(variables).terms.items())
    return [((0,) * len(variables), value)] if value else []


def _packed_contraction(row: List[Entry], used: List[Entry], j_max: int) -> List[Polynomial]:
    """`check_identity2` over Q[x]; `used` holds moments[2 ..]."""
    variables = tuple(dict.fromkeys(
        v for p in (*row, *used) if isinstance(p, Polynomial) for v in p.variables))
    row_terms = [_terms_over(v, variables) for v in row]
    mom_terms = [_terms_over(v, variables) for v in used]
    radix = [1 + max((e[k] for p in row_terms for e, _ in p), default=0)
             + max((e[k] for p in mom_terms for e, _ in p), default=0)
             for k in range(len(variables))]
    weights = [1]
    for r in radix:
        weights.append(weights[-1] * r)
    row_ints, d_c = over_common_denominator([c for p in row_terms for _, c in p])
    mom_ints, d_m = over_common_denominator([c for p in mom_terms for _, c in p])
    width = max(len(row) - 1, j_max - 1)  # W, the largest |j - i|
    bound = width * sum(map(abs, row_ints)) * max(map(abs, mom_ints), default=0)
    largest = max([bound, *map(abs, row_ints), *map(abs, mom_ints)])
    slot = (largest.bit_length() + 8) // 8  # bytes per digit: 2^(8*slot-1) > largest
    half = 1 << (8 * slot - 1)
    pad = half.to_bytes(slot, "little")

    def offset(length: int) -> int:
        """The packed value of `length` digits of `half`."""
        return int.from_bytes(pad * length, "little")

    def packed(terms_list: list, ints: list) -> list:
        coefficients = iter(ints)
        out = []
        for terms in terms_list:
            positions = [sum(map(mul, e, weights)) for e, _ in terms]
            digits = [half] * (max(positions, default=0) + 1)
            for pos in positions:
                digits[pos] += next(coefficients)
            out.append(int.from_bytes(b"".join(d.to_bytes(slot, "little") for d in digits),
                                      "little") - offset(len(digits)))
        return out

    cs = packed(row_terms, row_ints)
    ms = [0, 0] + packed(mom_terms, mom_ints)  # ms[s] is moments[s] packed
    slots = weights[-1]
    lift = offset(slots)
    exponents = [tuple(reversed(e)) for e in product(*(range(r) for r in reversed(radix)))]
    den = d_c * d_m
    out = []
    for j in range(1, j_max + 1):
        total = sum((j - i) * c * ms[i + j] for i, c in enumerate(cs, 1))
        terms = {}
        if total:
            digits = (total + lift).to_bytes(slots * slot, "little")
            for pos in range(slots):
                d = int.from_bytes(digits[pos * slot:(pos + 1) * slot], "little") - half
                if d:
                    if den != 1:
                        d = Fraction(d, den)
                        d = d.numerator if d.denominator == 1 else d
                    terms[exponents[pos]] = d
        # canonical by construction: nonzero coefficients, ints when integral
        out.append(Polynomial._trusted(variables, terms))
    return out


# ---------------------------------------------------------------------------
# the pfaffian-ratio cross-check


def ratio_sequence(family: MatrixFamily, ratios: List[Tuple[Entry, Entry]],
                   ) -> Tuple[List[Entry], Optional[int]]:
    """The Pfaffians b_0, b_2, .., b_{2R} of `family`, R = len(ratios), and
    the first n whose ratio (g, D) of `CofactorRows.ratios` is not
    b_{2n}/b_{2n-2}, or None.  The ratio g/D is that quotient when
    g * b_{2n-2} == D * b_{2n}.  One elimination of A_{2R} yields every
    b_{2n} as a leading Pfaffian, the zeros among them included."""
    pfaffians: List[Entry] = [Fraction(1)]
    if ratios:
        pf_eliminate(SkewMatrix.from_family(family, 2 * len(ratios)), pfaffians)
    for n, (g, den) in enumerate(ratios, start=1):
        previous = pfaffians[n - 1]
        if not previous or g * previous != den * pfaffians[n]:
            return pfaffians, n
    return pfaffians, None


# ---------------------------------------------------------------------------
# certification


class CertificationReport:
    __slots__ = ("family", "closed_form", "n_max", "verdict", "checks", "witness", "ratios",
                 "pfaffians", "singular", "operators")

    def __init__(self, family: str, closed_form: str, n_max: int, verdict: str,
                 checks: Dict[str, dict], witness: Optional[dict], ratios: List[str],
                 pfaffians: List[str], singular: Dict[int, str], operators: Dict[str, dict]):
        self.family = family
        self.closed_form = closed_form
        self.n_max = n_max
        self.verdict = verdict  # certified-at-scale | refuted | inapplicable
        self.checks = checks
        self.witness = witness
        self.ratios = ratios
        self.pfaffians = pfaffians
        self.singular = singular
        self.operators = operators

    def to_json_dict(self) -> dict:
        return {
            "report": "certification",
            "version": __version__,
            "family": self.family,
            "closed_form": self.closed_form,
            "n_max": self.n_max,
            "verdict": self.verdict,
            "checks": self.checks,
            "witness": self.witness,
            "ratios": self.ratios,
            "pfaffians": self.pfaffians,
            "singular": {str(k): v for k, v in sorted(self.singular.items())},
            "operators": self.operators,
            "config": {
                "family": self.family,
                "closed_form": self.closed_form,
                "n_max": self.n_max,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = [
            f"certification  family={self.family}  closed-form={self.closed_form}  n<={self.n_max}",
            f"verdict: {self.verdict}",
        ]
        for label in sorted(self.checks):
            info = self.checks[label]
            lines.append(f"  [{'PASS' if info.get('ok') else 'FAIL'}] {label}: {info.get('detail', '')}")
        if self.witness:
            lines.append(f"  witness: {json.dumps(self.witness, sort_keys=True)}")
        if self.singular:
            for n, msg in sorted(self.singular.items()):
                lines.append(f"  [DIAG] n={n}: {msg}")
        lines.append(f"  ratios: {', '.join(self.ratios)}")
        for kind in sorted(self.operators):
            info = self.operators[kind]
            lines.append(f"  operators[{kind}]: {json.dumps(info, sort_keys=True)}")
        return "\n".join(lines) + "\n"


def _guess_regions() -> Dict[str, Region]:
    """The region of each table's guess, built as `Region.parse` reads its
    text: each constraint is lhs - rhs over the sorted names of lhs."""
    from .guessing import Constraint, Region

    def at_least(lhs: Polynomial, rhs: int) -> Constraint:
        return Constraint((lhs - rhs).with_variables(sorted(lhs.effective_variables())), ">=")

    n, i, j = map(Polynomial.variable, ("n", "i", "j"))
    return {
        "r": Region((at_least(n, 1),), "n >= 1"),
        "c": Region((at_least(n, 1), at_least(i, 1), at_least(2*n-1-i, 0)),
                    "n >= 1 and i >= 1 and 2*n-1-i >= 0"),
        "g": Region((at_least(n, 1), at_least(j, 1), at_least(2*n-j, 0)),
                    "n >= 1 and j >= 1 and 2*n-j >= 0"),
    }


def _guess_section(result: GuessResult, region: Region, window: Optional[dict]) -> dict:
    """A guess's report section, with where each operator's leading
    coefficient vanishes on `region`."""
    from .guessing import GuessingError, leading_nonvanishing

    leads = []
    for op in result.operators:
        try:
            leads.append(leading_nonvanishing(op, region, window).to_json_dict())
        except (GuessingError, ValueError) as e:
            leads.append({"error": str(e)})
    return {"status": "ok", **result.to_json_dict(), "leading": leads}


def certify(
    family: MatrixFamily,
    closed_form: ClosedForm,
    n_max: int,
    progress: Optional[Callable[[str], None]] = None,
) -> CertificationReport:
    """Run the full finite-scale certification of Pf(family, 2n) == closed_form(n)."""
    say = progress or (lambda msg: None)

    say(f"solving cofactor systems up to n={n_max}")
    rows = c_table(family, n_max, j_extra=8, progress=progress)
    checks: Dict[str, dict] = {}
    witness = None
    verdict = "inapplicable" if rows.singular else "certified-at-scale"

    def record(label: str, passed: str, failure: Optional[Tuple[str, dict]]) -> None:
        """Enter one check: `failure` is None or (detail, witness fields).
        The first failure of an otherwise certified run refutes it."""
        nonlocal verdict, witness
        if failure is None:
            checks[label] = {"ok": True, "detail": passed}
            return
        detail, fields = failure
        checks[label] = {"ok": False, "detail": detail}
        if verdict == "certified-at-scale":
            verdict = "refuted"
            witness = {"check": label, **fields}

    # cofactor-normalization: c_{2n,2n-1} == 1, its numerator the denominator
    n0 = next((n for n, (c, den, _) in rows.rows.items() if c[-1] != den), None)
    record("cofactor-normalization", "last entry equals 1 at every solved n",
           None if n0 is None else
           (f"fails at n={n0}",
            {"n": n0, "lhs": quotient_text(rows.rows[n0][0][-1], rows.rows[n0][1]),
             "rhs": "1"}))

    n0, j0 = next(((n, j) for n, (_, _, g) in rows.rows.items()
                   for j in range(1, 2 * n) if g[j - 1]), (None, None))
    record("cofactor-orthogonality", "g(n,j) == 0 for all 1 <= j < 2n",
           None if n0 is None else
           (f"nonzero at (n,j)={(n0, j0)}",
            {"n": n0, "j": j0, "lhs": quotient_text(rows.rows[n0][2][j0 - 1], rows.rows[n0][1]),
             "rhs": "0"}))

    say("cross-checking ratios against eliminated Pfaffians")
    run = rows.ratios()
    pfaffians, n0 = ratio_sequence(family, run)
    ratios = [quotient_text(g, d) for g, d in run]
    record("pfaffian-ratio", "diagonal equals Pf quotient at every n",
           None if n0 is None else
           (f"mismatch at n={n0}",
            {"n": n0, "lhs": ratios[n0 - 1],
             "rhs": f"({entry_text(pfaffians[n0])})/({entry_text(pfaffians[n0 - 1])})"}))

    say("comparing against the closed form")
    failure = None
    # the telescoped product of the ratios, as numerator over denominator
    product = denominator = 1
    for n, (g, d) in enumerate(run, start=1):
        product = product * g
        denominator = denominator * d
        expected = closed_form.evaluate(n)
        if product != expected * denominator or pfaffians[n] != expected:
            failure = (f"mismatch at n={n}",
                       {"n": n, "lhs": quotient_text(product, denominator),
                        "rhs": entry_text(expected)})
            break
    record("closed-form-product",
           "telescoped product and direct Pfaffian equal the closed form", failure)

    operators: Dict[str, dict] = {}
    if family.symbolic:
        operators["skipped"] = {
            "status": "diagnostic",
            "detail": "operator guessing and catalog checks need rational entries; "
                      "this family is symbolic",
        }
    else:
        # imported here: no other command needs the catalog or guessing, and
        # compiling them costs start-up time where no bytecode cache is kept;
        # the catalog builds a family's operators on that family's first lookup
        from .catalog import known_operators
        from .guessing import (C_SPEC, G_SPEC, R_SPEC, GuessingError, apply_operator,
                               guess_from_table)

        tables = {kind: rows.table(kind) for kind in ("c", "g", "r")}
        known = known_operators(family.name)
        if known:
            say("verifying cataloged operators on the computed tables")
            entries = []
            all_ok = True
            for item in known:
                tab = tables[item.target]
                try:
                    residuals = apply_operator(item.operator, tab)
                    ok = all(v == 0 for v in residuals.values())
                    detail = f"{len(residuals)} residuals"
                except GuessingError as e:
                    ok, detail = False, str(e)
                all_ok &= ok
                entries.append(
                    {"target": item.target, "name": item.name, "ok": ok,
                     "detail": detail, "operator": item.operator.to_json_dict()}
                )
            operators["catalog"] = {"ok": all_ok, "entries": entries}

        regions = _guess_regions()
        for kind, message, spec, window in (
            ("r", "guessing a ratio recurrence", R_SPEC, None),
            ("c", "guessing cofactor recurrences", C_SPEC,
             {"n": (1, n_max), "i": (1, 2 * n_max - 1)}),
            ("g", "guessing contraction recurrences", G_SPEC,
             {"n": (1, n_max), "j": (1, 2 * n_max)}),
        ):
            say(message)
            try:
                result = guess_from_table(tables[kind], spec, TABLE_VARIABLES[kind])
            except GuessingError as e:
                operators[kind] = {"status": "diagnostic", "detail": str(e)}
            else:
                operators[kind] = _guess_section(result, regions[kind], window)

    return CertificationReport(
        family=family.descriptor,
        closed_form=closed_form.description,
        n_max=n_max,
        verdict=verdict,
        checks=checks,
        witness=witness,
        ratios=ratios,
        pfaffians=[entry_text(v) for v in pfaffians],
        singular=dict(rows.singular),
        operators=operators,
    )


# ---------------------------------------------------------------------------
# scaled family conjecture


class ConjectureReport:
    __slots__ = ("k", "variant", "n_max", "rows", "all_match")

    def __init__(self, k: int, variant: str, n_max: int, rows: Tuple[dict, ...],
                 all_match: bool):
        self.k = k
        self.variant = variant
        self.n_max = n_max
        self.rows = rows
        self.all_match = all_match

    def to_json_dict(self) -> dict:
        return {
            "report": "conjecture",
            "version": __version__,
            "config": {"k": self.k, "variant": self.variant, "n_max": self.n_max},
            "k": self.k,
            "variant": self.variant,
            "n_max": self.n_max,
            "rows": list(self.rows),
            "all_match": self.all_match,
            "status": "verified at scale" if self.all_match else "refuted",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"conjecture check  k={self.k}  variant={self.variant}  n<={self.n_max}"]
        for row in self.rows:
            mark = "PASS" if row["match"] else "FAIL"
            lines.append(
                f"  [{mark}] n={row['n']}  pf={row['pfaffian']}  predicted={row['predicted']}  ({row['case']})"
            )
        lines.append("status: " + ("verified at scale" if self.all_match else "refuted"))
        return "\n".join(lines) + "\n"


# the shift e of each variant: the factors of variant ii carry k + 1 where
# those of variant i carry k
_VARIANT_SHIFT = {"i": 0, "ii": 1}
_CLASS_LABELS = ("m = n/k", "m = (n + floor(k/2))/k")


def conjecture_class(k: int, n: int, variant: str) -> Optional[int]:
    """The residue class s of n carrying a nonzero predicted value, or None:
    s = 0 when k | n, else s = 1 when k | n + floor(k/2) and k % 2 != e,
    e the variant's shift (so odd k for variant i, even k for variant ii)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant not in _VARIANT_SHIFT:
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    if n % k == 0:
        return 0
    if k % 2 != _VARIANT_SHIFT[variant] and (n + k // 2) % k == 0:
        return 1
    return None


def conjecture_predicted(k: int, n: int, variant: str) -> Fraction:
    """Predicted Pfaffian value for the k-scaled families; 0 off the residue
    classes.  The class s = 0 takes precedence (they overlap at k = 1).

    With h = floor(k/2), m = (n + s*h)/k and c = (-1)^s (k + e), the value is

        (-1)^((m-s)*h) prod_{a<m} prod_{s<=b<k+s} (4ka + 2b + c)
                       / prod_{1<=b<=s*h} (2b + c).

    Without the sign the on-class values only agree in absolute value with
    the Pfaffians.  The signed form reproduces the Pfaffians exactly for
    every k <= 6, n <= 8.
    """
    s = conjecture_class(k, n, variant)
    if s is None:
        return Fraction(0)
    h = k // 2
    c = (k + _VARIANT_SHIFT[variant]) * (-1) ** s
    m = (n + s * h) // k
    out = Fraction(1)
    for b in range(1, s * h + 1):
        out /= 2 * b + c
    for a in range(m):
        for b in range(s, k + s):
            out *= 4 * k * a + 2 * b + c
    return -out if ((m - s) * h) % 2 else out


def check_conjecture1(
    k: int, n_max: int, variant: str = "i",
    progress: Optional[Callable[[str], None]] = None,
) -> ConjectureReport:
    """Compare direct Pfaffians of the k-scaled family against the predicted
    products for every n <= n_max.  Pfaffians are always computed directly
    (never via ratios) because the predicted values hit exact zeros: one
    elimination of A_{2 n_max} yields every Pf(A_{2n}) as a leading
    Pfaffian, the zeros among them included."""
    say = progress or (lambda msg: None)
    descriptor = f"genmotzkin:k={k}" if variant == "i" else f"genmotzkin-sum:k={k}"
    family = family_from_descriptor(descriptor)
    pfaffians: List[Entry] = []
    if n_max > 0:
        say(f"eliminating A_{2 * n_max}")
        pf_eliminate(SkewMatrix.from_family(family, 2 * n_max), pfaffians)
    rows = []
    all_match = True
    for n, pf in enumerate(pfaffians, start=1):
        say(f"n={n}")
        predicted = conjecture_predicted(k, n, variant)
        s = conjecture_class(k, n, variant)
        case = "off-class zero" if s is None else _CLASS_LABELS[s]
        match = pf == predicted
        all_match &= match
        rows.append(
            {
                "n": n,
                "pfaffian": entry_text(pf),
                "predicted": entry_text(predicted),
                "case": case,
                "match": match,
            }
        )
    return ConjectureReport(k, variant, n_max, tuple(rows), all_match)
