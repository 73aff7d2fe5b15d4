"""Certification pipeline for Pfaffian closed forms.

Given a skew matrix family, the pipeline solves the normalized cofactor
system at every size 2n up to a bound, checks the defining identities of the
cofactor vector against the matrix, forms the ratio sequence
r_n = b_{2n}/b_{2(n-1)}, cross-checks it against directly computed
Pfaffians, and compares the telescoped product with the candidate closed
form.  Everything is exact; a single mismatch refutes with a witness.

The checks carry semantic labels:
  cofactor-normalization   last cofactor entry equals 1,
  cofactor-orthogonality   the cofactor vector annihilates columns j < 2n,
  pfaffian-ratio           diagonal value equals the Pfaffian quotient,
  closed-form-product      telescoped ratio product equals the closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ._version import __version__
from .guessing import (
    GuessingError,
    GuessSpec,
    GuessResult,
    Table,
    apply_operator,
    guess_from_table,
    leading_nonvanishing,
)
from .pfaffian import SingularCofactorSystem, SkewMatrix, cofactor_vector, pf_eliminate
from .poly import (
    Entry,
    Polynomial,
    entry_text,
    format_rational,
    parse_poly,
    quotient_text,
)
from .sequences import MatrixFamily, family_from_descriptor


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ClosedForm:
    """Opaque exact evaluator n -> b_{2n} with b_0 = evaluate(0) = 1."""

    description: str
    fn: Callable[[int], Entry]

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
    """Small closed-form grammar for overrides: a top-level product of factors
    `prod(<linear in k>)` (meaning prod_{k=0}^{n-1}), `pow(<rational>, n^2)`,
    and rational constants.  Example: "prod(4*k+2)"."""
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
            factors.append(("pow", Fraction(inner[0].strip())))
        else:
            factors.append(("const", Fraction(piece)))

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
# cofactor tables


class CofactorTable:
    """Normalized cofactor vectors c_{2n,i} for n = 1..n_max, together with the
    mathematically-zero extension outside 1 <= i <= 2n-1.  Row n is stored
    as numerators over one denominator, c_{2n,i} = values[(n, i)] /
    denominators[n]; the denominator is 1 for a rational family.

    Sizes where the normalized system is singular are recorded under
    `singular` and excluded from lookups.
    """

    def __init__(self, n_max: int, values: Dict[Tuple[int, int], Entry],
                 denominators: Dict[int, Entry], singular: Dict[int, str]):
        self.n_max = n_max
        self.values = values
        self.denominators = denominators
        self.singular = singular

    def get(self, n: int, i: int) -> Optional[Entry]:
        if n < 1 or n > self.n_max or n in self.singular:
            return None
        if 1 <= i <= 2 * n - 1:
            return self.values[(n, i)]
        return Fraction(0)

    def row(self, n: int) -> List[Entry]:
        if n in self.singular or not 1 <= n <= self.n_max:
            raise KeyError(f"no cofactor row at n={n}")
        return [self.values[(n, i)] for i in range(1, 2 * n)]

    def as_table(self) -> Table:
        """Guessing table with the zero extension materialized to a margin of
        4 on each side of 1 <= i <= 2n-1."""
        pts = {}
        for n in range(1, self.n_max + 1):
            if n in self.singular:
                continue
            for i in range(-3, 2 * n + 4):
                v = self.get(n, i)
                if not isinstance(v, Fraction):
                    raise ValueError("guessing operates on rational tables only")
                pts[(n, i)] = v
        return Table(2, pts)


def c_table(
    family: MatrixFamily, n_max: int, progress: Optional[Callable[[str], None]] = None
) -> CofactorTable:
    """Solve the normalized cofactor system at each even size 2..2*n_max."""
    values: Dict[Tuple[int, int], Entry] = {}
    denominators: Dict[int, Entry] = {}
    singular: Dict[int, str] = {}
    for n in range(1, n_max + 1):
        if progress is not None:
            progress(f"cofactor system n={n}")
        A = SkewMatrix.from_family(family, 2 * n)
        try:
            vec, denominators[n] = cofactor_vector(A)
        except SingularCofactorSystem as e:
            singular[n] = str(e)
            continue
        for i, v in enumerate(vec, start=1):
            values[(n, i)] = v
    return CofactorTable(n_max, values, denominators, singular)


# ---------------------------------------------------------------------------
# identity grids


@dataclass(frozen=True)
class OrthogonalityGrid:
    """Values g_{n,j} = sum_i c_{2n,i} a(i,j), stored as the contraction of
    the row's numerators over the row's denominator, g_{n,j} = values[(n, j)]
    / denominators[n]; zero for j < 2n, the ratio on the diagonal j = 2n."""

    n_max: int
    values: Dict[Tuple[int, int], Entry]
    denominators: Dict[int, Entry]

    def get(self, n: int, j: int) -> Optional[Entry]:
        return self.values.get((n, j))

    def zero_violations(self) -> List[Tuple[int, int]]:
        return sorted(
            (n, j)
            for (n, j), v in self.values.items()
            if j < 2 * n and v
        )

    def as_table(self) -> Table:
        if any(not isinstance(v, Fraction) for v in self.values.values()):
            raise ValueError("guessing operates on rational tables only")
        return Table(2, dict(self.values))


def check_identity2(family: MatrixFamily, table: CofactorTable, j_extra: int = 4) -> OrthogonalityGrid:
    """Contract sums g_{n,j} for 1 <= j <= 2n + j_extra at every solved n."""
    m = [family.moment(s) for s in range(4 * table.n_max + j_extra)]
    values: Dict[Tuple[int, int], Entry] = {}
    for n in range(1, table.n_max + 1):
        if n in table.singular:
            continue
        row = table.row(n)
        for j in range(1, 2 * n + j_extra + 1):
            total = None
            for i in range(1, 2 * n):
                term = row[i - 1] * ((j - i) * m[i + j])
                total = term if total is None else total + term
            values[(n, j)] = total
    return OrthogonalityGrid(table.n_max, values, table.denominators)


@dataclass(frozen=True)
class RatioResult:
    ratios: List[Entry]            # r_1 .. r_n as numerators (index 0 is r_1)
    denominators: List[Entry]      # r_n = ratios[n - 1] / denominators[n - 1]
    pfaffians: List[Entry]         # b_0, b_2, .., b_{2n}
    quotients_match: bool
    mismatch_n: Optional[int]


def ratio_sequence(family: MatrixFamily, grid: OrthogonalityGrid,
                   cross_check: bool = True) -> RatioResult:
    """Diagonal of the orthogonality grid, cross-checked against quotients of
    independently eliminated Pfaffians.  One elimination of A_{2R}, R the
    number of ratios, yields every b_{2n} as a leading Pfaffian.

    Only the contiguous run of solved sizes starting at n = 1 is used: past a
    singular size the quotient b_{2n}/b_{2n-2} loses its meaning, so ratios
    there would not be comparable.  A ratio g/D equals b_{2n}/b_{2n-2} when
    g * b_{2n-2} == D * b_{2n}."""
    ratios: List[Entry] = []
    denominators: List[Entry] = []
    for n in range(1, grid.n_max + 1):
        v = grid.get(n, 2 * n)
        if v is None:
            break
        ratios.append(v)
        denominators.append(grid.denominators[n])
    pfaffians: List[Entry] = []
    if cross_check:
        pfaffians.append(Fraction(1))
        if ratios:
            pf_eliminate(SkewMatrix.from_family(family, 2 * len(ratios)), pfaffians)
        # a leading Pfaffian that vanished stopped the one-pass prefix short
        for n in range(len(pfaffians), len(ratios) + 1):
            pfaffians.append(pf_eliminate(SkewMatrix.from_family(family, 2 * n)))
        for n in range(1, len(ratios) + 1):
            prev = pfaffians[n - 1]
            if not prev or ratios[n - 1] * prev != denominators[n - 1] * pfaffians[n]:
                return RatioResult(ratios, denominators, pfaffians, False, n)
    return RatioResult(ratios, denominators, pfaffians, True, None)


# ---------------------------------------------------------------------------
# certification


# The operator classes `certify` guesses in: the smallest ones containing
# true operators for the built-in families (the ratio sequences satisfy
# first-order recurrences; the cofactor and orthogonality grids have small
# mixed operators).  On ranges too short to determine them the guesses
# degrade to recorded diagnostics without affecting the verdict.
R_SPEC = GuessSpec(degree=2, orders=(1,), margin=2, extra_equations=10)
C_SPEC = GuessSpec(degree=4, orders=(1, 2))
G_SPEC = GuessSpec(degree=2, orders=(0, 2))


@dataclass
class CertificationReport:
    family: str
    closed_form: str
    n_max: int
    verdict: str                      # certified-at-scale | refuted | inapplicable
    checks: Dict[str, dict]
    witness: Optional[dict]
    ratios: List[str]
    pfaffians: List[str]
    singular: Dict[int, str]
    operators: Dict[str, dict]

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


def _guess_section(result_or_error, region: Optional[str] = None,
                   window: Optional[dict] = None) -> dict:
    if isinstance(result_or_error, GuessResult):
        section = {"status": "ok", **result_or_error.to_json_dict()}
        if region is not None:
            leads = []
            for op in result_or_error.operators:
                try:
                    leads.append(leading_nonvanishing(op, region, window).to_json_dict())
                except (GuessingError, ValueError) as e:
                    leads.append({"error": str(e)})
            section["leading"] = leads
        return section
    return {"status": "diagnostic", "detail": str(result_or_error)}


def certify(
    family: MatrixFamily,
    closed_form: ClosedForm,
    n_max: int,
    progress: Optional[Callable[[str], None]] = None,
) -> CertificationReport:
    """Run the full finite-scale certification of Pf(family, 2n) == closed_form(n)."""
    say = progress or (lambda msg: None)

    say(f"solving cofactor systems up to n={n_max}")
    table = c_table(family, n_max, progress=progress)
    checks: Dict[str, dict] = {}
    witness = None
    verdict = "inapplicable" if table.singular else "certified-at-scale"

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
    n0 = next((n for n in range(1, n_max + 1) if n not in table.singular
               and table.get(n, 2 * n - 1) != table.denominators[n]), None)
    record("cofactor-normalization", "last entry equals 1 at every solved n",
           None if n0 is None else
           (f"fails at n={n0}",
            {"n": n0, "lhs": quotient_text(table.get(n0, 2 * n0 - 1), table.denominators[n0]),
             "rhs": "1"}))

    say("contracting the orthogonality grid")
    grid = check_identity2(family, table, j_extra=8)
    violations = grid.zero_violations()
    failure = None
    if violations:
        n0, j0 = violations[0]
        failure = (f"nonzero at (n,j)={violations[0]}",
                   {"n": n0, "j": j0, "lhs": quotient_text(grid.get(n0, j0), grid.denominators[n0]),
                    "rhs": "0"})
    record("cofactor-orthogonality", "g(n,j) == 0 for all 1 <= j < 2n", failure)

    say("cross-checking ratios against eliminated Pfaffians")
    ratio = ratio_sequence(family, grid)
    ratios = [quotient_text(g, d) for g, d in zip(ratio.ratios, ratio.denominators)]
    n0 = ratio.mismatch_n
    record("pfaffian-ratio", "diagonal equals Pf quotient at every n",
           None if ratio.quotients_match else
           (f"mismatch at n={n0}",
            {"n": n0, "lhs": ratios[n0 - 1],
             "rhs": f"({entry_text(ratio.pfaffians[n0])})/({entry_text(ratio.pfaffians[n0 - 1])})"}))

    say("comparing against the closed form")
    failure = None
    # the telescoped product of the ratios, as numerator over denominator
    product = denominator = 1
    for n, (g, d) in enumerate(zip(ratio.ratios, ratio.denominators), start=1):
        product = product * g
        denominator = denominator * d
        expected = closed_form.evaluate(n)
        if product != expected * denominator or ratio.pfaffians[n] != expected:
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
        # imported here: the catalog parses its operators at import (about
        # 30 ms), which no other command needs
        from .catalog import known_operators

        tables = {"c": table.as_table(), "g": grid.as_table(),
                  "r": Table.from_sequence(ratio.ratios, start=1)}
        known = known_operators(family.name)
        if known:
            say("verifying cataloged operators on the computed tables")
            entries = []
            all_ok = True
            for item in known:
                tab = tables[item.target]
                try:
                    pts = item.operator.admissible_points(tab)
                    residuals = apply_operator(item.operator, tab, points=pts)
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

        for kind, message, spec, variables, region, window in (
            ("r", "guessing a ratio recurrence", R_SPEC, ("n",), "n >= 1", None),
            ("c", "guessing cofactor recurrences", C_SPEC, ("n", "i"),
             "n >= 1 and i >= 1 and 2*n-1-i >= 0",
             {"n": (1, n_max), "i": (1, 2 * n_max - 1)}),
            ("g", "guessing contraction recurrences", G_SPEC, ("n", "j"),
             "n >= 1 and j >= 1 and 2*n-j >= 0",
             {"n": (1, n_max), "j": (1, 2 * n_max)}),
        ):
            say(message)
            try:
                operators[kind] = _guess_section(
                    guess_from_table(tables[kind], spec, variables), region, window)
            except GuessingError as e:
                operators[kind] = _guess_section(e)

    return CertificationReport(
        family=family.descriptor,
        closed_form=closed_form.description,
        n_max=n_max,
        verdict=verdict,
        checks=checks,
        witness=witness,
        ratios=ratios,
        pfaffians=[entry_text(v) for v in ratio.pfaffians],
        singular=dict(table.singular),
        operators=operators,
    )


# ---------------------------------------------------------------------------
# scaled family conjecture


@dataclass(frozen=True)
class ConjectureReport:
    k: int
    variant: str
    n_max: int
    rows: Tuple[dict, ...]
    all_match: bool

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
    (never via ratios) because the predicted values hit exact zeros."""
    say = progress or (lambda msg: None)
    descriptor = f"genmotzkin:k={k}" if variant == "i" else f"genmotzkin-sum:k={k}"
    family = family_from_descriptor(descriptor)
    rows = []
    all_match = True
    for n in range(1, n_max + 1):
        say(f"n={n}")
        pf = pf_eliminate(SkewMatrix.from_family(family, 2 * n))
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
