"""P-finite recurrence guessing over exact sequence tables.

An operator is a finite set of integer shift vectors with polynomial
coefficients in the index variables; it annihilates a table when the residual
sum_t coeff_t(p) * data(p + shift_t) vanishes at every admissible point p.

Guessing builds one integer equation row per admissible point with one
unknown per (shift, coefficient-monomial) pair, takes an exact nullspace of
the data window's rows, and confirms every candidate on the disjoint
validation window's rows before reporting it.  The windows are derived
deterministically.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .linalg import nullspace, solve_linear
from .poly import Polynomial, PolynomialError, format_rational, int_value, parse_poly
from .poly import json_int, over_common_denominator, parse_rational

Point = Tuple[int, ...]


class GuessingError(ValueError):
    pass


class UnderdeterminedData(GuessingError):
    """Too few usable equations for the requested operator class."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"underdetermined: {available} usable equations for {needed} required"
        )


class DegenerateData(GuessingError):
    """Every usable equation is trivial (all sampled values are zero)."""

    def __init__(self):
        super().__init__("degenerate data: all sampled values are zero")


class CoverageError(GuessingError):
    pass


# ---------------------------------------------------------------------------
# tables


class Table:
    """Exact values on an explicit finite set of integer points."""

    __slots__ = ("arity", "values")

    def __init__(self, arity: int, values: Dict[Point, Fraction]):
        vals = {}
        for p, v in values.items():
            p = tuple(int(c) for c in p)
            if len(p) != arity:
                raise ValueError(f"point {p} has arity {len(p)}, expected {arity}")
            vals[p] = Fraction(v)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Table is immutable")

    @classmethod
    def from_sequence(cls, data: Sequence, start: int = 0) -> "Table":
        return cls(1, {(start + k,): Fraction(v) for k, v in enumerate(data)})

    def get(self, point: Point) -> Optional[Fraction]:
        return self.values.get(tuple(point))

    def points(self) -> List[Point]:
        return sorted(self.values)

    def __len__(self):
        return len(self.values)

    def __contains__(self, point):
        return tuple(point) in self.values


def table_to_json_dict(table: Table) -> dict:
    return {
        "arity": table.arity,
        "values": [
            {"point": list(p), "value": format_rational(v)}
            for p, v in sorted(table.values.items())
        ],
    }


def table_from_json_dict(data: dict) -> Table:
    """Raises TypeError where the arity, a row, a point coordinate or a value
    has the wrong JSON type: the arity and coordinates are integers (a float
    or boolean is refused, not truncated), a value is an integer or rational
    text."""
    if not isinstance(data, dict) or "arity" not in data or "values" not in data:
        raise ValueError("table JSON must be an object with 'arity' and 'values'")
    arity = json_int(data["arity"])
    values: Dict[Point, Fraction] = {}
    for row in data["values"]:
        if isinstance(row, dict):
            point, value = row["point"], row["value"]
        else:  # also accept the compact [point..., value] row form
            point, value = row[:-1], row[-1]
        key = tuple(json_int(c) for c in point)
        if key in values:
            raise ValueError(f"duplicate point {key} in table JSON")
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise TypeError(f"expected an integer or rational text, got {value!r}")
        values[key] = parse_rational(value) if isinstance(value, str) else Fraction(value)
    return Table(arity, values)


# ---------------------------------------------------------------------------
# operators


def _monomials(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    out = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    out.sort(key=lambda e: (sum(e), e))
    return out


@dataclass(frozen=True)
class RecurrenceOperator:
    """Normalized shift operator: integer coefficients with overall content 1,
    and the graded-lex leading coefficient of the lexicographically largest
    shift positive.  Terms are sorted by shift."""

    variables: Tuple[str, ...]
    terms: Tuple[Tuple[Point, Polynomial], ...]

    @classmethod
    def make(cls, variables: Sequence[str], terms) -> "RecurrenceOperator":
        variables = tuple(variables)
        if isinstance(terms, dict):
            terms = terms.items()
        merged: Dict[Point, Polynomial] = {}
        for shift, coeff in terms:
            shift = tuple(int(s) for s in shift)
            if len(shift) != len(variables):
                raise ValueError(f"shift {shift} arity != variables {variables}")
            if isinstance(coeff, str):
                coeff = parse_poly(coeff, variables)
            elif isinstance(coeff, (int, Fraction)):
                coeff = Polynomial.constant(coeff, variables)
            else:
                coeff = coeff.with_variables(variables)
            merged[shift] = merged.get(shift, Polynomial.zero(variables)) + coeff
        merged = {s: c for s, c in merged.items() if c}
        if not merged:
            raise ValueError("zero operator")
        # scale to integer coefficients with content 1
        ints, den = over_common_denominator([q for c in merged.values() for q in c.terms.values()])
        scale = Fraction(den, gcd(*ints))
        lead_shift = max(merged)
        if merged[lead_shift].leading_term()[1] * scale < 0:
            scale = -scale
        merged = {s: c * scale for s, c in merged.items()}
        # residual_at evaluates the coefficients in Python ints
        assert all(c.int_form() is not None for c in merged.values()), merged
        return cls(variables, tuple(sorted(merged.items(), key=lambda t: t[0])))

    # -- structure ------------------------------------------------------

    def shifts(self) -> Tuple[Point, ...]:
        return tuple(s for s, _ in self.terms)

    def order_span(self) -> Tuple[int, ...]:
        shifts = self.shifts()
        return tuple(
            max(s[k] for s in shifts) - min(s[k] for s in shifts)
            for k in range(len(self.variables))
        )

    def coefficient_degree(self) -> int:
        return max(c.total_degree() for _, c in self.terms)

    def leading_coefficient(self) -> Polynomial:
        return max(self.terms, key=lambda t: t[0])[1]

    def translated(self, offset: Point) -> "RecurrenceOperator":
        """The operator pre-composed with the shift by `offset` (its residual at
        p equals this operator's residual at p + offset)."""
        off = dict(zip(self.variables, offset))
        return RecurrenceOperator.make(
            self.variables,
            [
                (tuple(s + o for s, o in zip(shift, offset)), coeff.shifted(off))
                for shift, coeff in self.terms
            ],
        )

    # -- application -----------------------------------------------------

    def _sum_at(self, value: Callable[[Point], Optional[Fraction]], point: Point,
                terms) -> Optional[Fraction]:
        """Exact sum over `terms` of coeff(point) * value(point + shift), or
        None when `value` gives None for a shifted point.  The integer
        coefficients are evaluated by `int_value` and the values summed over
        their common denominator, so one Fraction is built."""
        shifted = [value(tuple(map(operator.add, point, s))) for s, _ in terms]
        if None in shifted:
            return None
        ints, den = over_common_denominator(shifted)
        total = sum(int_value(c.int_form(), point) * v for (_, c), v in zip(terms, ints))
        return Fraction(total, den)

    def residual_at(self, table: Table, point: Point) -> Optional[Fraction]:
        """Exact residual at `point`, or None when a shifted value is missing."""
        return self._sum_at(table.values.get, point, self.terms)

    def solve_at(self, value: Callable[[Point], Optional[Fraction]], point: Point) -> Optional[Fraction]:
        """The value at `point` that makes the residual there vanish, solved
        for the term of shift zero: -(sum of the other terms) / its
        coefficient.  None when the operator has no such term, its
        coefficient vanishes at `point`, or `value` gives None for a shifted
        point."""
        lead = dict(self.terms).get((0,) * len(self.variables))
        lead = lead and int_value(lead.int_form(), point)
        if not lead:
            return None
        rest = self._sum_at(value, point, [t for t in self.terms if any(t[0])])
        return None if rest is None else -rest / lead

    def admissible_points(self, table: Table) -> List[Point]:
        return _admissible(table, self.shifts())

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"shift": list(shift), "coeff": str(coeff)} for shift, coeff in self.terms
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "RecurrenceOperator":
        try:
            variables = tuple(str(v) for v in data["vars"])
            terms = [(tuple(t["shift"]), str(t["coeff"])) for t in data["terms"]]
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed operator object: {e}") from None
        return cls.make(variables, terms)

    @classmethod
    def from_json(cls, text: str) -> "RecurrenceOperator":
        return cls.from_json_dict(json.loads(text))

    def __str__(self):
        parts = []
        for shift, coeff in sorted(self.terms, key=lambda t: t[0], reverse=True):
            mono = "*".join(
                f"S_{v}^{s}" if s != 1 else f"S_{v}"
                for v, s in zip(self.variables, shift)
                if s
            )
            parts.append(f"({coeff})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _admissible(table: Table, shifts: Sequence[Point]) -> List[Point]:
    """The sorted points p with p + s in the table for every shift s: the
    intersection over s of the table's points moved by -s."""
    return sorted(set.intersection(*(
        {tuple(map(operator.sub, q, s)) for q in table.values} for s in shifts
    )))


def apply_operator(operator: RecurrenceOperator, table: Union[Table, Sequence]) -> Dict[Point, Fraction]:
    """Residuals of the operator at every admissible point of the table;
    CoverageError when there is none."""
    if not isinstance(table, Table):
        table = Table.from_sequence(table)
    pts = operator.admissible_points(table)
    if not pts:
        raise CoverageError("no point has full data coverage for this support")
    return {p: operator.residual_at(table, p) for p in pts}


# ---------------------------------------------------------------------------
# guessing


@dataclass(frozen=True)
class GuessSpec:
    """Operator class bounds plus window policy.

    Exactly one of `support` (explicit shift vectors) or `orders` (rectangle:
    all shifts 0..orders[k] in variable k) must be given.  Usable (non-trivial)
    equations are sorted by base point; the data window takes the first
    min(#unknowns + extra_equations, 3/4 of them), which must be at least
    #unknowns + margin, and validation takes every remaining admissible point.
    """

    degree: int
    support: Optional[Tuple[Point, ...]] = None
    orders: Optional[Tuple[int, ...]] = None
    margin: int = 10
    extra_equations: int = 25

    def __post_init__(self):
        for name in ("degree", "margin", "extra_equations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def effective_support(self, arity: int, points: int) -> Tuple[Point, ...]:
        """The support's shifts, sorted; () when there are more of them than
        `points`, the size of the table.  No point is then admissible, since
        p + s is a distinct table point for each shift s, and a box that
        large is not listed."""
        if (self.support is None) == (self.orders is None):
            raise ValueError("exactly one of support/orders must be set")
        if self.support is not None:
            supp = tuple(sorted(tuple(int(c) for c in s) for s in self.support))
            if any(len(s) != arity for s in supp):
                raise ValueError(f"support arity mismatch: {supp}")
            if len(set(supp)) != len(supp):
                raise ValueError("duplicate support shifts")
            if not supp:
                raise ValueError("empty support")
            return supp if len(supp) <= points else ()
        orders = tuple(int(o) for o in self.orders)
        if len(orders) != arity or any(o < 0 for o in orders):
            raise ValueError(f"bad orders {self.orders} for arity {arity}")
        if prod(o + 1 for o in orders) > points:
            return ()
        return tuple(sorted(product(*(range(o + 1) for o in orders))))


@dataclass(frozen=True)
class GuessResult:
    operators: Tuple[RecurrenceOperator, ...]
    variables: Tuple[str, ...]
    support: Tuple[Point, ...]
    degree: int
    unknowns: int
    data_window: Tuple[Point, ...]
    validation_window: Tuple[Point, ...]
    margin: int
    rejected_by_validation: int
    reduced_away: int

    def __iter__(self):
        return iter(self.operators)

    def __len__(self):
        return len(self.operators)

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "support": [list(s) for s in self.support],
            "degree": self.degree,
            "unknowns": self.unknowns,
            "data_window": {
                "size": len(self.data_window),
                "first": list(self.data_window[0]) if self.data_window else None,
                "last": list(self.data_window[-1]) if self.data_window else None,
            },
            "validation_window_size": len(self.validation_window),
            "margin": self.margin,
            "rejected_by_validation": self.rejected_by_validation,
            "reduced_away": self.reduced_away,
            "operators": [op.to_json_dict() for op in self.operators],
        }


def _sort_key(op: RecurrenceOperator):
    return (
        sum(op.order_span()),
        op.coefficient_degree(),
        len(op.terms),
        str(op),
    )


def _operator_from_vector(
    variables: Tuple[str, ...],
    support: Tuple[Point, ...],
    monomials: List[Tuple[int, ...]],
    vec: Sequence[int],
) -> RecurrenceOperator:
    coeffs = iter(vec)
    terms = {s: Polynomial(variables, dict(zip(monomials, coeffs))) for s in support}
    return RecurrenceOperator.make(variables, terms)


def _equation_row(
    table: Table, support: Tuple[Point, ...], monomials: List[Tuple[int, ...]], p: Point
) -> List[int]:
    """The equation at the admissible point p, scaled to integers by the lcm
    d of its values' denominators.  Its dot product with a vector v is
    d / c times the residual at p of `_operator_from_vector(v)`, c the
    nonzero factor `RecurrenceOperator.make` scales v by, so the two vanish
    together."""
    shifted = [table.values[tuple(a + b for a, b in zip(p, s))] for s in support]
    scaled_vals, _ = over_common_denominator(shifted)
    powers = []
    for m in monomials:
        pm = 1
        for base, e in zip(p, m):
            if e:
                pm *= base ** e
        powers.append(pm)
    row = []
    for scaled in scaled_vals:
        row.extend(pm * scaled for pm in powers)
    return row


def guess_from_table(
    table: Table, spec: GuessSpec, variables: Sequence[str], reduce_consequences: bool = True
) -> GuessResult:
    variables = tuple(variables)
    if len(variables) != table.arity:
        raise ValueError("variable count must match table arity")
    support = spec.effective_support(table.arity, len(table))
    if not support:
        raise DegenerateData()
    unknowns = len(support) * comb(spec.degree + table.arity, table.arity)

    admissible = _admissible(table, support)
    # an equation is non-trivial exactly when one of its shifted values is
    # nonzero (the constant monomial carries each), so the data are checked
    # against the class before any monomial or row is listed
    nontrivial = sum(1 for p in admissible
                     if any(table.values[tuple(map(operator.add, p, s))] for s in support))
    if not nontrivial:
        raise DegenerateData()
    cap = min(unknowns + spec.extra_equations, (3 * nontrivial) // 4)
    if cap < unknowns + spec.margin:
        raise UnderdeterminedData(unknowns + spec.margin, cap)
    monomials = _monomials(table.arity, spec.degree)
    usable = []  # (point, row) of every non-trivial equation, by point
    for p in admissible:
        row = _equation_row(table, support, monomials, p)
        if any(row):
            usable.append((p, row))
    data_window = tuple(p for p, _ in usable[:cap])
    matrix = [row for _, row in usable[:cap]]
    # a trivial row vanishes against every vector, so only these can reject
    checks = [row for _, row in usable[cap:]]
    taken = set(data_window)
    validation_window = tuple(p for p in admissible if p not in taken)

    kernel = nullspace(matrix)
    passed = [
        vec for vec in kernel if not any(sum(map(operator.mul, row, vec)) for row in checks)
    ]
    rejected = len(kernel) - len(passed)
    if rejected:
        # fall back to the kernel of the full system: operators that vanish on
        # every admissible point, hence on both windows
        passed = nullspace(matrix + checks)
    validated = [_operator_from_vector(variables, support, monomials, vec) for vec in passed]

    validated.sort(key=_sort_key)
    reduced_away = 0
    if reduce_consequences and len(validated) > 1:
        kept: List[RecurrenceOperator] = []
        support_set = set(support)
        for op in validated:
            if any(
                _is_consequence(op, base, support_set, spec.degree, variables, monomials)
                for base in kept
            ):
                reduced_away += 1
            else:
                kept.append(op)
        validated = kept

    return GuessResult(
        operators=tuple(validated),
        variables=variables,
        support=support,
        degree=spec.degree,
        unknowns=unknowns,
        data_window=data_window,
        validation_window=validation_window,
        margin=spec.margin,
        rejected_by_validation=rejected,
        reduced_away=reduced_away,
    )


def _is_consequence(
    op: RecurrenceOperator,
    base: RecurrenceOperator,
    support_set: set,
    degree: int,
    variables: Tuple[str, ...],
    monomials: List[Tuple[int, ...]],
) -> bool:
    """True iff `op` is a linear combination of translate-and-multiply images
    q(vars) * S^v * base that stay inside the support/degree bounds.

    Each image m * S^off * base, m a monomial, is written straight into the
    (shift, monomial) coordinates from base's shifted coefficients."""
    index = {key: k for k, key in enumerate(product(sorted(support_set), monomials))}
    target = [0] * len(index)
    for shift, coeff in op.terms:
        for exp, q in coeff.with_variables(variables).terms.items():
            k = index.get((shift, exp))
            if k is None:
                return False
            target[k] = q
    base_shifts = base.shifts()
    multipliers = _monomials(len(variables), degree - base.coefficient_degree())
    offsets = {
        tuple(a - b for a, b in zip(s, base_shifts[0])) for s in support_set
    }
    gens = []
    for off in sorted(offsets):
        moved = [tuple(a + b for a, b in zip(s, off)) for s in base_shifts]
        if not all(s in support_set for s in moved):
            continue
        by_variable = dict(zip(variables, off))
        shifted = [  # (shift, exponent, coefficient) of S^off * base
            (s, exp, q)
            for s, (_, coeff) in zip(moved, base.terms)
            for exp, q in coeff.with_variables(variables).shifted(by_variable).terms.items()
        ]
        for m in multipliers:
            v = [0] * len(index)
            for s, exp, q in shifted:
                k = index.get((s, tuple(a + b for a, b in zip(exp, m))))
                if k is None:
                    break
                v[k] = q
            else:
                gens.append(v)
    if not gens:
        return False
    matrix = [[g[k] for g in gens] for k in range(len(target))]
    return solve_linear(matrix, target) is not None


def guess_univariate(data, spec: GuessSpec, variable: str = "n") -> GuessResult:
    """Guess operators for a one-dimensional sequence (list or Table)."""
    table = data if isinstance(data, Table) else Table.from_sequence(data)
    return guess_from_table(table, spec, (variable,))


# ---------------------------------------------------------------------------
# integer roots and leading-coefficient analysis


def _horner(coeffs: Sequence[int], x: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _root_brackets(coeffs: Sequence[int], lo: int, hi: int) -> List[int]:
    """Integers k such that every real root in [lo, hi] of the polynomial with
    ascending integer coefficients `coeffs` (last one nonzero) lies in some
    [k, k + 1].  The derivative's brackets cut [lo, hi] into pieces on which
    the polynomial is strictly monotone; each piece holds at most one root,
    which bisection over the integers brackets."""
    if len(coeffs) == 1:
        return []
    critical = _root_brackets([k * c for k, c in enumerate(coeffs)][1:], lo, hi)
    brackets = set(critical)
    ends = [lo, *(e for k in critical for e in (k, k + 1)), hi]
    for a, b in zip(ends[::2], ends[1::2]):
        if a > b:
            continue
        fa, fb = _horner(coeffs, a), _horner(coeffs, b)
        if fa and fb and (fa > 0) == (fb > 0):
            continue
        # a root lies in [a, b], and fa is 0 or of the sign opposite to it
        while b - a > 1:
            m = (a + b) // 2
            fm = _horner(coeffs, m)
            if fa and fm and (fm > 0) == (fa > 0):
                a, fa = m, fm
            else:
                b = m
        brackets.add(a)
    return sorted(brackets)


def integer_roots(p: Polynomial) -> List[int]:
    """All integer roots of a univariate polynomial (errors on the zero
    polynomial; a nonzero constant has none).  The real roots are bracketed
    inside the Cauchy bound 1 + max|a_k| / |a_d|, and each bracket's two
    integers are tested exactly, so the cost grows with the coefficients'
    bit size, not with their size."""
    if not p:
        raise ValueError("zero polynomial has every integer as a root")
    var = p.sole_variable()
    if var is None:
        return []
    ints, _ = over_common_denominator(p.univariate_coefficients(var))
    bound = 2 + max(abs(c) for c in ints[:-1]) // abs(ints[-1])
    candidates = {k + d for k in _root_brackets(ints, -bound, bound) for d in (0, 1)}
    return sorted(x for x in candidates if not _horner(ints, x))


# parse order matters: a two-character relation is tried before its prefix
_RELATIONS = {
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
}


@dataclass(frozen=True)
class Constraint:
    poly: Polynomial  # lhs - rhs, compared against 0
    relation: str

    def satisfied(self, point: Dict[str, int]) -> bool:
        return _RELATIONS[self.relation](self.poly.eval(point), 0)


@dataclass(frozen=True)
class Region:
    """Conjunction of linear (or polynomial) inequality constraints."""

    constraints: Tuple[Constraint, ...]
    text: str

    @classmethod
    def parse(cls, text: str) -> "Region":
        constraints = []
        for piece in text.split(" and "):
            piece = piece.strip()
            if not piece:
                continue
            for rel in _RELATIONS:
                if rel in piece:
                    lhs, rhs = piece.split(rel, 1)
                    constraints.append(
                        Constraint(parse_poly(lhs) - parse_poly(rhs), rel)
                    )
                    break
            else:
                raise ValueError(f"no relation found in constraint {piece!r}")
        return cls(tuple(constraints), text)

    def satisfied(self, point: Dict[str, int]) -> bool:
        return all(c.satisfied(point) for c in self.constraints)

    def partially_satisfied(self, point: Dict[str, int]) -> bool:
        """Check only the constraints whose variables are all bound."""
        for c in self.constraints:
            if set(c.poly.effective_variables()) <= set(point):
                if not c.satisfied(point):
                    return False
        return True


@dataclass(frozen=True)
class LeadingReport:
    """Where the leading coefficient of an operator vanishes on a region."""

    leading_shift: Point
    leading_coefficient: str
    mode: str  # "exact" or "window"
    vanishing: Tuple[Dict[str, int], ...]
    boundary: Tuple[dict, ...]
    window: Optional[dict]
    region: str

    @property
    def clear(self) -> bool:
        return not self.vanishing and not self.boundary

    def to_json_dict(self) -> dict:
        return {
            "leading_shift": list(self.leading_shift),
            "leading_coefficient": self.leading_coefficient,
            "mode": self.mode,
            "vanishing": [dict(sorted(v.items())) for v in self.vanishing],
            "boundary": list(self.boundary),
            "window": self.window,
            "region": self.region,
            "clear": self.clear,
        }


@lru_cache(maxsize=16)
def _region_box_points(region_text: str, names: Tuple[str, ...], box) -> Tuple[Point, ...]:
    """The integer points of the box (one (low, high) range per name, in
    product order) that satisfy the region parsed from `region_text`.
    Memoized, so the operators of one guess share a single region scan.

    A constraint on the window's variables is tested in integers: its
    polynomial times the (positive) lcm of its coefficients' denominators,
    evaluated by `int_value` on the point tuple.  Any other constraint takes
    `Constraint.satisfied`, which raises for its unbound variable."""
    tests = []  # (int form over the point tuple, relation) or (None, constraint)
    for c in Region.parse(region_text).constraints:
        if not set(c.poly.effective_variables()) <= set(names):
            tests.append((None, c))
            continue
        ints, _ = over_common_denominator(list(c.poly.terms.values()))
        form = tuple(
            (k, tuple((names.index(v), e) for v, e in zip(c.poly.variables, exp) if e))
            for k, exp in zip(ints, c.poly.terms)
        )
        tests.append((form, _RELATIONS[c.relation]))

    def inside(point: Point) -> bool:
        for form, test in tests:
            if form is None:
                if not test.satisfied(dict(zip(names, point))):
                    return False
            elif not test(int_value(form, point), 0):
                return False
        return True

    return tuple(filter(inside, product(*(range(lo, hi + 1) for lo, hi in box))))


def leading_nonvanishing(
    op: RecurrenceOperator,
    region: Union[Region, str],
    window: Optional[Dict[str, Tuple[int, int]]] = None,
) -> LeadingReport:
    """Analyze where the leading coefficient vanishes inside the region.

    One effective variable: exact (integer roots filtered by the region).
    More: every integer point of the window box inside the region is tested
    (the points in the region are found once per region text and window),
    plus exact root-finding on each region boundary line where a variable can
    be isolated with unit coefficient; the verdict is window-bounded.
    """
    if isinstance(region, str):
        region = Region.parse(region)
    lead_shift = max(op.shifts())
    lead = op.leading_coefficient()
    eff = lead.effective_variables()
    if len(eff) <= 1:
        hits = []
        if len(eff) == 1:
            var = eff[0]
            for r in integer_roots(lead):
                point = {var: r}
                if region.partially_satisfied(point):
                    hits.append(point)
        return LeadingReport(
            lead_shift, str(lead), "exact", tuple(hits), (), None, region.text
        )
    if window is None:
        raise ValueError("a finite window is required for multivariate leading coefficients")
    names = tuple(sorted(window))
    box = tuple((window[v][0], window[v][1]) for v in names)
    points = _region_box_points(region.text, names, box)
    hits = []
    if points:
        unbound = [v for v in eff if v not in window]
        if unbound:
            raise PolynomialError(f"unbound variables {unbound} in evaluation")
        # the point's coordinates in the lead's variable order (an unbound
        # variable is not effective, so its placeholder is never read)
        where = [names.index(v) if v in window else 0 for v in lead.variables]
        form = lead.int_form()
        for combo in points:
            if not int_value(form, [combo[k] for k in where]):
                hits.append(dict(zip(names, combo)))
    boundary = []
    for c in region.constraints:
        if c.relation == "!=":
            continue
        line = c.poly
        for var in line.effective_variables():
            if line.degree_in(var) != 1:
                continue
            vi = line.variables.index(var)
            # isolate var when it appears linearly with constant coefficient +-1
            cv = Fraction(0)
            rest_terms = {}
            ok = True
            for exp, q in line.terms.items():
                if exp[vi] == 1 and all(e == 0 for k, e in enumerate(exp) if k != vi):
                    cv = q
                elif exp[vi] == 0:
                    rest_terms[exp] = q
                else:
                    ok = False
                    break
            if not ok or cv not in (1, -1):
                continue
            rest = Polynomial(line.variables, rest_terms)
            expr = rest / (-cv)  # var == expr on the boundary line
            restricted = lead.substitute({var: expr})
            r_eff = restricted.effective_variables()
            if not restricted:
                boundary.append(
                    {"line": f"{var} == {expr}", "identically_zero": True}
                )
                continue
            if len(r_eff) != 1:
                continue
            other = r_eff[0]
            for root in integer_roots(restricted):
                val = expr.eval({other: root})
                if val.denominator != 1:
                    continue
                point = {other: root, var: int(val)}
                if region.satisfied(point):
                    boundary.append({"line": f"{var} == {expr}", "point": dict(sorted(point.items()))})
            break
    return LeadingReport(
        lead_shift,
        str(lead),
        "window",
        tuple(hits),
        tuple(boundary),
        {v: list(window[v]) for v in sorted(window)},
        region.text,
    )
