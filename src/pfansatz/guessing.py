"""P-finite recurrence guessing over exact sequence tables.

An operator is a finite set of integer shift vectors with polynomial
coefficients in the index variables; it annihilates a table when the residual
sum_t coeff_t(p) * data(p + shift_t) vanishes at every admissible point p.

Guessing works on a table's integer form, its values over one table-wide
denominator D.  It builds one integer equation row per data-window point,
with one unknown per (shift, coefficient-monomial) pair, takes an exact
nullspace of those rows, and confirms every candidate at each point of the
disjoint validation window before reporting it: the kernel, packed into
one operator (`_packed_rejects`), has at each point one int sum that
holds every candidate's exact dot product with that point's equation,
and only when one is nonzero are the validation rows built.  The windows
are derived deterministically.  A candidate that is a
combination of the shifted and multiplied images of an operator kept
before it is reduced away; each kept operator's images are built once per
guess (`_Consequences`).

Residuals, `solve_at` and validation evaluate each coefficient by integer
Horner in the last coordinate, from ints computed once per line of points
(`RecurrenceOperator._line`), and a table keeps the point set moved by each
shift (`Table.moved`) for every operator that finds admissible points on it.
Leading-coefficient analysis finds the lead's integer zeros on lines too,
from the same per-line ints (`_partial_ints`) and one root finder
(`_integer_zeros`).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product
from math import comb, gcd, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .linalg import _int_echelon, _packed_columns, nullspace, solve_linear
from .poly import Polynomial, PolynomialError, format_rational, parse_poly
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

    # _int_form is built on first use by int_form(), _moved by moved()
    __slots__ = ("arity", "values", "_int_form", "_moved")

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
    def from_sequence(cls, data: Sequence) -> "Table":
        return cls(1, {(k,): Fraction(v) for k, v in enumerate(data)})

    def __len__(self):
        return len(self.values)

    def int_form(self) -> Tuple[Dict[Point, int], int]:
        """(ints, D): the values over their one common denominator D, with
        ints[p] == values[p] * D.  Built once and cached."""
        try:
            return self._int_form
        except AttributeError:
            pass
        ints, den = over_common_denominator(list(self.values.values()))
        form = (dict(zip(self.values, ints)), den)
        object.__setattr__(self, "_int_form", form)
        return form

    def moved(self, shift: Point) -> frozenset:
        """The points p with p + shift in the table.  Built once per shift
        and cached, so the operators on one table share it."""
        try:
            memo = self._moved
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_moved", memo)
        points = memo.get(shift)
        if points is None:
            points = memo[shift] = frozenset(zip(*[
                [c - s for c in column] for column, s in zip(zip(*self.values), shift)]))
        return points


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
    text.  An arity below 1 is a ValueError."""
    if not isinstance(data, dict) or "arity" not in data or "values" not in data:
        raise ValueError("table JSON must be an object with 'arity' and 'values'")
    arity = json_int(data["arity"])
    if arity < 1:
        raise ValueError(f"table arity must be at least 1, got {arity}")
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


def _horner(coeffs: Sequence[int], x: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _partial_ints(form: tuple, free: int, values: Sequence[int]) -> List[int]:
    """The ascending int coefficients in variable `free` of a polynomial's
    integer form (`Polynomial.int_form`), every other variable k fixed at
    values[k]; values[free], and the value of a variable that no monomial
    holds, is not read."""
    coeffs = {}
    for c, monomial in form:
        power = 0
        for i, e in monomial:
            if i == free:
                power = e
            else:
                c *= values[i] ** e
        coeffs[power] = coeffs.get(power, 0) + c
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


class RecurrenceOperator:
    """Shift operator, normalized by `make`: integer coefficients with overall
    content 1, and the graded-lex leading coefficient of the lexicographically
    largest shift positive.  Terms are sorted by shift."""

    # _on_line is kept by _line()
    __slots__ = ("variables", "terms", "_on_line")

    def __init__(self, variables: Tuple[str, ...], terms: Tuple[Tuple[Point, Polynomial], ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("RecurrenceOperator is immutable")

    def __eq__(self, other):
        if not isinstance(other, RecurrenceOperator):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

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
        if scale != 1:
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

    def _line(self, point: Point) -> List[Tuple[Point, Point, int, List[int]]]:
        """The terms on the line through `point` along the last variable,
        the points that differ from it in the last coordinate only: per
        term, its shift, the shifted point's other coordinates, the shift's
        last coordinate, and the coefficient's ascending int coefficients in
        the last variable, the others fixed at the line's values.  Built for
        one line at a time, and kept until a point of another line is asked
        for."""
        key = point[:-1]
        try:
            line, terms = self._on_line
            if line == key:
                return terms
        except AttributeError:
            pass
        last = len(key)
        terms = [(shift, tuple(map(operator.add, key, shift)), shift[-1],
                  _partial_ints(coeff.int_form(), last, key))
                 for shift, coeff in self.terms]
        object.__setattr__(self, "_on_line", (key, terms))
        return terms

    def _sum_at(self, value: Callable[[Point], Optional[Fraction]], point: Point,
                terms, den: Optional[int] = None) -> Optional[Fraction]:
        """Exact sum over `terms`, entries of `_line`, of coeff(point) *
        value(point + shift), or None when `value` gives None for a shifted
        point.  Each coefficient is its line's int coefficients by Horner in
        the last coordinate, and the values are summed as ints, over their
        common denominator or, when `den` is given, as the numerators of
        values over den, so one Fraction is built."""
        x = point[-1]
        shifted = [value((*moved, x + last)) for _, moved, last, _ in terms]
        if None in shifted:
            return None
        if den is None:
            shifted, den = over_common_denominator(shifted)
        total = 0
        for (_, _, _, coeffs), v in zip(terms, shifted):
            if v:
                total += _horner(coeffs, x) * v
        return Fraction(total, den)

    def residual_at(self, table: Table, point: Point) -> Optional[Fraction]:
        """Exact residual at `point`, or None when a shifted value is missing:
        one int sum over the table's integer form and one Fraction."""
        ints, den = table.int_form()
        return self._sum_at(ints.get, point, self._line(point), den)

    def solve_at(self, value: Callable[[Point], Optional[Fraction]], point: Point) -> Optional[Fraction]:
        """The value at `point` that makes the residual there vanish, solved
        for the term of shift zero: -(sum of the other terms) / its
        coefficient.  None when the operator has no such term, its
        coefficient vanishes at `point`, or `value` gives None for a shifted
        point."""
        terms = self._line(point)
        lead = next((c for s, _, _, c in terms if not any(s)), None)
        lead = lead and _horner(lead, point[-1])
        if not lead:
            return None
        rest = self._sum_at(value, point, [t for t in terms if any(t[0])])
        return None if rest is None else -rest / lead

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"shift": list(shift), "coeff": str(coeff)} for shift, coeff in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RecurrenceOperator":
        try:
            variables = tuple(str(v) for v in data["vars"])
            terms = [(tuple(t["shift"]), str(t["coeff"])) for t in data["terms"]]
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed operator object: {e}") from None
        return cls.make(variables, terms)

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
    first, *rest = map(table.moved, shifts)
    return sorted(first.intersection(*rest))


def apply_operator(operator: RecurrenceOperator, table: Table) -> Dict[Point, Fraction]:
    """Residuals of the operator at every admissible point of the table;
    CoverageError when there is none."""
    pts = _admissible(table, operator.shifts())
    if not pts:
        raise CoverageError("no point has full data coverage for this support")
    return {p: operator.residual_at(table, p) for p in pts}


# ---------------------------------------------------------------------------
# guessing


class GuessSpec:
    """Operator class bounds plus window policy.

    Exactly one of `support` (explicit shift vectors) or `orders` (rectangle:
    all shifts 0..orders[k] in variable k) must be given.  Usable (non-trivial)
    equations are sorted by base point; the data window takes the first
    min(#unknowns + extra_equations, 3/4 of them), which must be at least
    #unknowns + margin, and validation takes every remaining admissible point.
    """

    __slots__ = ("degree", "support", "orders", "margin", "extra_equations")

    def __init__(self, degree: int, support: Optional[Tuple[Point, ...]] = None,
                 orders: Optional[Tuple[int, ...]] = None, margin: int = 10,
                 extra_equations: int = 25):
        for name, value in (("degree", degree), ("margin", margin),
                            ("extra_equations", extra_equations)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if (support is None) == (orders is None):
            raise ValueError("exactly one of support/orders must be set")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "extra_equations", extra_equations)

    def __setattr__(self, *a):
        raise AttributeError("GuessSpec is immutable")

    def effective_support(self, arity: int, points: int) -> Tuple[Point, ...]:
        """The support's shifts, sorted.  UnderdeterminedData, with 0 usable
        equations, when there are more of them than `points`, the size of
        the table: no point is then admissible, since p + s is a distinct
        table point for each shift s, and a box that large is not listed."""
        if self.support is not None:
            supp = tuple(sorted(tuple(int(c) for c in s) for s in self.support))
            if any(len(s) != arity for s in supp):
                raise ValueError(f"support arity mismatch: {supp}")
            if len(set(supp)) != len(supp):
                raise ValueError("duplicate support shifts")
            if not supp:
                raise ValueError("empty support")
            count = len(supp)
        else:
            orders = tuple(int(o) for o in self.orders)
            if len(orders) != arity or any(o < 0 for o in orders):
                raise ValueError(f"bad orders {self.orders} for arity {arity}")
            count = prod(o + 1 for o in orders)
        if count > points:
            raise UnderdeterminedData(self.unknowns(arity, count) + self.margin, 0)
        if self.support is not None:
            return supp
        return tuple(sorted(product(*(range(o + 1) for o in orders))))

    def unknowns(self, arity: int, shifts: int) -> int:
        """One unknown per (shift, coefficient monomial)."""
        return shifts * comb(self.degree + arity, arity)


# The operator classes `pipeline.certify` guesses in: the smallest ones
# containing true operators for the built-in families (the ratio sequences
# satisfy first-order recurrences; the cofactor and orthogonality grids have
# small mixed operators).  On ranges too short to determine them the guesses
# degrade to recorded diagnostics without affecting the verdict.
R_SPEC = GuessSpec(degree=2, orders=(1,), margin=2, extra_equations=10)
C_SPEC = GuessSpec(degree=4, orders=(1, 2))
G_SPEC = GuessSpec(degree=2, orders=(0, 2))


class GuessResult:
    __slots__ = ("operators", "variables", "support", "degree", "unknowns", "data_window",
                 "validation_window", "margin", "rejected_by_validation", "reduced_away")

    def __init__(self, operators: Tuple[RecurrenceOperator, ...], variables: Tuple[str, ...],
                 support: Tuple[Point, ...], degree: int, unknowns: int,
                 data_window: Tuple[Point, ...], validation_window: Tuple[Point, ...],
                 margin: int, rejected_by_validation: int, reduced_away: int):
        self.operators = operators
        self.variables = variables
        self.support = support
        self.degree = degree
        self.unknowns = unknowns
        self.data_window = data_window
        self.validation_window = validation_window
        self.margin = margin
        self.rejected_by_validation = rejected_by_validation
        self.reduced_away = reduced_away

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


def _vector_terms(variables: Tuple[str, ...], support: Tuple[Point, ...],
                  monomials: List[Tuple[int, ...]], vec: Sequence[int]) -> List[Tuple[Point, Polynomial]]:
    """(shift, coefficient) per shift of the support whose coordinates in
    the int vector `vec`, one per (shift, monomial) pair, do not all
    vanish, in the support's order."""
    width = len(monomials)
    terms = []
    for k, s in enumerate(support):
        coeffs = {m: c for m, c in zip(monomials, vec[k * width:(k + 1) * width]) if c}
        if coeffs:
            terms.append((s, Polynomial._trusted(variables, coeffs)))
    return terms


def _operator_from_vector(
    variables: Tuple[str, ...],
    support: Tuple[Point, ...],
    monomials: List[Tuple[int, ...]],
    vec: Sequence[int],
) -> RecurrenceOperator:
    """The operator of a nonzero int vector with content 1, such as a
    `nullspace` vector, as `RecurrenceOperator.make` normalizes it: the
    support is sorted and the monomials are in graded-lex order, so the
    leading coefficient of the largest shift is the last nonzero
    coordinate, and the vector is negated when that is negative."""
    if next(c for c in reversed(vec) if c) < 0:
        vec = [-c for c in vec]
    return RecurrenceOperator(variables, tuple(_vector_terms(variables, support, monomials, vec)))


def _powers(p: Point, monomials: List[Tuple[int, ...]]) -> List[int]:
    """The value of each monomial at the point p."""
    powers = []
    for m in monomials:
        pm = 1
        for base, e in zip(p, m):
            if e:
                pm *= base ** e
        powers.append(pm)
    return powers


def _equation_row(
    table: Table, support: Tuple[Point, ...], monomials: List[Tuple[int, ...]], p: Point
) -> List[int]:
    """The equation at the admissible point p, scaled to integers by the
    table-wide denominator D of `Table.int_form`.  Its dot product with a
    kernel vector v is D times the residual at p of the operator of v, and
    `_operator_from_vector(v)` is that operator or its negative, so the two
    vanish together.  Scaled by the lcm of the row's own denominators
    instead, the row differs by a positive integer factor, which changes no
    kernel."""
    ints, _ = table.int_form()
    powers = _powers(p, monomials)
    row = []
    for s in support:
        v = ints[tuple(map(operator.add, p, s))]
        row.extend(pm * v for pm in powers)
    return row


def _packed_rejects(table: Table, support: Tuple[Point, ...], monomials: List[Tuple[int, ...]],
                    points: Sequence[Point], kernel: List[tuple]) -> bool:
    """True iff at one of `points` some kernel vector's equation does not
    vanish.  The kernel's packed columns are read as one operator, one
    coefficient per shift whose coordinates do not all vanish; its sum at a
    point over the table's integer form is the int sum_k dot_k * 2^(s*k),
    dot_k vector k's dot product with the equation there, whatever order
    evaluates it, and the slots hold each dot_k (`_packed_columns`): an
    equation row (in the table's integer form) has sum|a| at most
    |support| * max|value| * |monomials| * max|coordinate|^degree."""
    ints, den = table.int_form()
    reach = max([1] + [abs(c) for p in points for c in p])
    weight = (len(support) * max(map(abs, ints.values())) * len(monomials)
              * reach ** max(map(sum, monomials)))
    names = tuple(f"x{k}" for k in range(table.arity))
    op = RecurrenceOperator(names, tuple(
        _vector_terms(names, support, monomials, _packed_columns(kernel, weight))))
    return any(op._sum_at(ints.get, p, op._line(p), den) for p in points)


def guess_from_table(table: Table, spec: GuessSpec, variables: Sequence[str]) -> GuessResult:
    variables = tuple(variables)
    if len(variables) != table.arity:
        raise ValueError("variable count must match table arity")
    support = spec.effective_support(table.arity, len(table))
    unknowns = spec.unknowns(table.arity, len(support))

    admissible = _admissible(table, support)
    if not admissible:
        raise UnderdeterminedData(unknowns + spec.margin, 0)
    # an equation is non-trivial exactly when one of its shifted values is
    # nonzero (the constant monomial carries each), so the data are checked
    # against the class before any monomial or row is listed
    usable = [p for p in admissible
              if any(table.values[tuple(map(operator.add, p, s))] for s in support)]
    if not usable:
        raise DegenerateData()
    cap = min(unknowns + spec.extra_equations, (3 * len(usable)) // 4)
    if cap < unknowns + spec.margin:
        raise UnderdeterminedData(unknowns + spec.margin, cap)
    monomials = _monomials(table.arity, spec.degree)
    data_window = tuple(usable[:cap])
    matrix = [_equation_row(table, support, monomials, p) for p in data_window]
    # a trivial equation vanishes against every vector, so only the usable
    # points past the data window can reject
    taken = set(data_window)
    validation_window = tuple(p for p in admissible if p not in taken)

    kernel = nullspace(matrix)
    passed, rejected = kernel, 0
    # one packed sum per point tests every vector; only when one fails are
    # the check rows built, to count the rejected vectors
    if kernel and _packed_rejects(table, support, monomials, usable[cap:], kernel):
        checks = [_equation_row(table, support, monomials, p) for p in usable[cap:]]
        rejected = sum(any(sum(map(operator.mul, row, vec)) for row in checks) for vec in kernel)
        # fall back to the kernel of the full system: operators that vanish
        # on every admissible point, hence on both windows
        passed = nullspace(matrix + checks)
    validated = [_operator_from_vector(variables, support, monomials, vec) for vec in passed]

    validated.sort(key=_sort_key)
    reduced_away = 0
    if len(validated) > 1:
        kept: List[RecurrenceOperator] = []
        is_consequence = _Consequences(support, spec.degree, variables, monomials)
        for op in validated:
            if any(is_consequence(op, base) for base in kept):
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


class _Consequences:
    """The consequence test of one guess: is an operator a linear
    combination of the images q(vars) * S^v * base of a kept `base` that
    stay inside the support/degree bounds?

    Each image m * S^off * base, m a monomial, is written straight into the
    (shift, monomial) coordinates from base's shifted coefficients.  A
    base's images and an independent set of the rows of their matrix (one
    row per coordinate, one column per image) are built once, on the base's
    first test.  A candidate is then one solve of those rows against its
    own coordinates there, and it is a consequence exactly when that
    solution reproduces every coordinate: every other row is a combination
    of the chosen ones, so any solution of the chosen rows solves the whole
    system once the candidate lies in the images' span, and no solution
    does otherwise."""

    def __init__(self, support: Tuple[Point, ...], degree: int,
                 variables: Tuple[str, ...], monomials: List[Tuple[int, ...]]):
        self.support_set = set(support)
        self.degree = degree
        self.variables = variables
        self.index = {key: k for k, key in enumerate(product(sorted(support), monomials))}
        # id(base) -> (base, images, chosen rows); holding base keeps its id
        self.images = {}

    def _images_of(self, base: RecurrenceOperator) -> Tuple[List[Dict[int, int]], List[int]]:
        """The images of `base` as sparse coordinate vectors ({coordinate:
        nonzero int}), and `_independent_rows` of them."""
        cached = self.images.get(id(base))
        if cached is not None:
            return cached[1:]
        variables, index, support_set = self.variables, self.index, self.support_set
        base_shifts = base.shifts()
        multipliers = _monomials(len(variables), self.degree - base.coefficient_degree())
        offsets = {tuple(a - b for a, b in zip(s, base_shifts[0])) for s in support_set}
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
                v = {}
                for s, exp, q in shifted:
                    k = index.get((s, tuple(a + b for a, b in zip(exp, m))))
                    if k is None:
                        break
                    v[k] = q
                else:
                    gens.append(v)
        rows = _independent_rows(gens, len(index))
        self.images[id(base)] = (base, gens, rows)
        return gens, rows

    def __call__(self, op: RecurrenceOperator, base: RecurrenceOperator) -> bool:
        target = {}
        for shift, coeff in op.terms:
            for exp, q in coeff.with_variables(self.variables).terms.items():
                k = self.index.get((shift, exp))
                if k is None:
                    return False
                target[k] = q
        gens, rows = self._images_of(base)
        return bool(gens) and _in_span(target, gens, rows)


def _in_span(target: Dict[int, int], gens: List[Dict[int, int]], rows: List[int]) -> bool:
    """True iff the sparse vector `target` is a combination of the sparse
    vectors `gens`, given `rows`, coordinates at which their rows are
    independent and span every other row (`_independent_rows`): one solve
    of the system at `rows`, which has full row rank and so a solution,
    then an exact check of every coordinate of the combination it gives."""
    solution = solve_linear([[g.get(k, 0) for g in gens] for k in rows],
                            [target.get(k, 0) for k in rows])
    coefficients, den = over_common_denominator(solution.vector)
    combination = {}
    for c, g in zip(coefficients, gens):
        if c:
            for k, q in g.items():
                combination[k] = combination.get(k, 0) + c * q
    return ({k: v for k, v in combination.items() if v}
            == {k: q * den for k, q in target.items()})


def _independent_rows(gens: List[Dict[int, int]], size: int) -> List[int]:
    """The sorted coordinates k < size at which the rows [g[k] for g in
    gens] of the vectors' matrix are linearly independent and span every
    other row: the pivot columns of the vectors' echelon form."""
    dense = [[g.get(k, 0) for k in range(size)] for g in gens]
    return sorted(col for _, col in _int_echelon(dense, size))


# ---------------------------------------------------------------------------
# integer roots and leading-coefficient analysis


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
    return _integer_zeros(ints, -bound, bound)


def _integer_zeros(ints: Sequence[int], lo: int, hi: int) -> List[int]:
    """The sorted integers in [lo, hi] at which the polynomial with
    ascending integer coefficients `ints` (last one nonzero) vanishes: the
    two integers of each `_root_brackets` bracket, tested exactly."""
    candidates = {k + d for k in _root_brackets(ints, lo, hi) for d in (0, 1)}
    return sorted(x for x in candidates if lo <= x <= hi and not _horner(ints, x))


# parse order matters: a two-character relation is tried before its prefix
_RELATIONS = {
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
}


class Constraint:
    __slots__ = ("poly", "relation")

    def __init__(self, poly: Polynomial, relation: str):
        self.poly = poly  # lhs - rhs, compared against 0
        self.relation = relation

    def satisfied(self, point: Dict[str, int]) -> bool:
        return _RELATIONS[self.relation](self.poly.eval(point), 0)


class Region:
    """Conjunction of linear (or polynomial) inequality constraints."""

    __slots__ = ("constraints", "text")

    def __init__(self, constraints: Tuple[Constraint, ...], text: str):
        self.constraints = constraints
        self.text = text

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


class LeadingReport:
    """Where the leading coefficient of an operator vanishes on a region."""

    __slots__ = ("leading_shift", "leading_coefficient", "mode", "vanishing", "boundary",
                 "window", "region")

    def __init__(self, leading_shift: Point, leading_coefficient: str, mode: str,
                 vanishing: Tuple[Dict[str, int], ...], boundary: Tuple[dict, ...],
                 window: Optional[dict], region: str):
        self.leading_shift = leading_shift
        self.leading_coefficient = leading_coefficient
        self.mode = mode  # "exact" or "window"
        self.vanishing = vanishing
        self.boundary = boundary
        self.window = window
        self.region = region

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


def leading_nonvanishing(
    op: RecurrenceOperator,
    region: Region,
    window: Optional[Dict[str, Tuple[int, int]]] = None,
) -> LeadingReport:
    """Analyze where the leading coefficient vanishes inside the region.

    One effective variable: exact (integer roots filtered by the region).
    More: the integer zeros in the window box are found line by line, along
    the lead's effective variable of widest range with every other window
    variable fixed: the lead's ints in that variable (`_partial_ints`), and
    their zeros in the range (`_integer_zeros`), or the whole line when they
    all vanish.  A zero is a hit when the region holds there.  Beside that,
    exact root-finding runs on each region boundary line where a variable
    can be isolated with unit coefficient; the verdict is window-bounded.
    """
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
    ranges = {v: range(window[v][0], window[v][1] + 1) for v in names}
    hits = []
    if all(ranges.values()):
        unbound = [v for v in eff if v not in window]
        if unbound:
            raise PolynomialError(f"unbound variables {unbound} in evaluation")
        free = max(eff, key=lambda v: len(ranges[v]))
        span = ranges[free]
        fixed = [v for v in names if v != free]
        form, index = lead.int_form(), lead.variables.index(free)
        for combo in product(*(ranges[v] for v in fixed)):
            point = dict(zip(fixed, combo))
            # a lead variable outside the window is not effective, so its
            # placeholder is never read
            ints = _partial_ints(form, index, [point.get(v, 0) for v in lead.variables])
            while ints and not ints[-1]:
                ints.pop()
            for x in _integer_zeros(ints, span[0], span[-1]) if ints else span:
                point[free] = x
                if region.satisfied(point):
                    hits.append({v: point[v] for v in names})
        # reports list the hits in the product order of the sorted names
        hits.sort(key=lambda hit: list(hit.values()))
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
