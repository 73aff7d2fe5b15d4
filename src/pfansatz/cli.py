"""Command-line front end.

Every command produces a deterministic report (text or JSON) for a given
configuration: reports embed the package version and an echo of the inputs,
and never include timings, paths, or other run-dependent noise, so the same
invocation always yields byte-identical output.  Progress for long runs goes
to stderr only.

Exit status: 0 all checks pass / value computed, 1 refutation or empty result,
2 usage error, 3 diagnostic (singular system, underdetermined data, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional, Tuple

from ._version import __version__
from .guessing import (
    CoverageError,
    DegenerateData,
    GuessSpec,
    Table,
    UnderdeterminedData,
    apply_operator,
    guess_from_table,
    table_from_json_dict,
)
from .linalg import determinant
from .pfaffian import (
    ELIMINATE_DIMENSION_LIMIT,
    LAPLACE_DIMENSION_LIMIT,
    NAIVE_DIMENSION_LIMIT,
    SingularCofactorSystem,
    SkewMatrix,
    cofactor_vector,
    pf_eliminate,
    pf_laplace,
    pf_naive,
    permutation_sign,
)
from .pipeline import (
    CLOSED_FORM_NAMES,
    TABLE_VARIABLES,
    c_table,
    certify,
    check_conjecture1,
    closed_form_for,
    closed_form_from_text,
)
from .poly import entry_text, format_rational
from .minorsum import theorem4_terms, verify_msf, verify_okinawa
from .sequences import PLAIN_SEQUENCES, family_from_descriptor

OUT_DIR_ENV = "PFANSATZ_OUT_DIR"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIAGNOSTIC = 3


class UsageError(ValueError):
    pass


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _slug(text: str) -> str:
    out = "".join(ch if ch.isalnum() else "-" for ch in text)
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-") or "out"


def _emit(text: str, out: Optional[str], default_name: str) -> None:
    """Write to --out, else to $PFANSATZ_OUT_DIR/<default_name>, else stdout."""
    if out is None:
        directory = os.environ.get(OUT_DIR_ENV)
        if not directory:
            sys.stdout.write(text)
            return
        out = os.path.join(directory, default_name)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    _say(f"wrote {out}")


def _json_report(kind: str, config: dict, payload: dict) -> str:
    data = {"report": kind, "version": __version__, "config": config}
    data.update(payload)
    return json.dumps(data, indent=2) + "\n"


def _ext(fmt: str) -> str:
    return "json" if fmt == "json" else "txt"


# ---------------------------------------------------------------------------
# pfaffian


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON in {path}: {e}") from None


def _load_matrix_file(path: str) -> SkewMatrix:
    data = _read_json(path)
    try:
        if isinstance(data, dict):
            return SkewMatrix.from_json_dict(data)
        if isinstance(data, list):  # dense row-major form, entries numbers or text
            return SkewMatrix.from_json_rows(data)
    except (TypeError, KeyError) as e:
        # a field, triple, row or index of the wrong JSON type
        raise UsageError(f"malformed matrix in {path} ({type(e).__name__}: {e})") from None
    raise UsageError(f"matrix JSON must be an object or a dense array: {path}")


_ALGORITHMS = {"naive": pf_naive, "eliminate": pf_eliminate, "laplace": pf_laplace}
# exponential algorithms: (largest dimension, what to use instead)
_DIMENSION_LIMITS = {
    "naive": (NAIVE_DIMENSION_LIMIT, "eliminate or laplace"),
    "laplace": (LAPLACE_DIMENSION_LIMIT, "eliminate"),
}


def _check_dimension(dim: int) -> None:
    """Refuse a matrix no algorithm may take, before it is built or eliminated."""
    if dim > ELIMINATE_DIMENSION_LIMIT:
        raise UsageError(
            f"matrix dimension {dim} is above the cap of {ELIMINATE_DIMENSION_LIMIT}"
        )


def cmd_pfaffian(args) -> int:
    if bool(args.family) == bool(args.file):
        raise UsageError("exactly one of --family/--file is required")
    if args.family:
        if args.dim is None:
            raise UsageError("--dim is required with --family")
        if args.dim < 0 or args.dim % 2:
            raise UsageError(f"dimension must be even and non-negative, got {args.dim}")
        _check_dimension(args.dim)
        family = family_from_descriptor(args.family)
        A = SkewMatrix.from_family(family, args.dim)
        source = family.descriptor
    else:
        A = _load_matrix_file(args.file)
        _check_dimension(A.dim)
        source = os.path.basename(args.file)

    names = list(_ALGORITHMS) if args.all_algorithms else [args.algorithm]
    for name, (limit, instead) in _DIMENSION_LIMITS.items():
        if name in names and A.dim > limit:
            if args.all_algorithms:
                names.remove(name)
            else:
                raise UsageError(
                    f"the {name} expansion is capped at dimension {limit}; use {instead}"
                )
    values = {name: _ALGORITHMS[name](A) for name in names}
    first = values[names[0]]
    agree = all(v == first for v in values.values())

    config = {
        "family": args.family,
        "file": os.path.basename(args.file) if args.file else None,
        "dim": A.dim,
        "algorithms": names,
    }
    if args.format == "json":
        text = _json_report(
            "pfaffian",
            config,
            {
                "dim": A.dim,
                "value": entry_text(first),
                "by_algorithm": {name: entry_text(values[name]) for name in names},
                "agree": agree,
            },
        )
    else:
        lines = [entry_text(first)]
        if len(names) > 1:
            for name in names:
                lines.append(f"  {name}: {entry_text(values[name])}")
            lines.append("agreement: " + ("PASS" if agree else "FAIL"))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out, f"pfaffian-{_slug(source)}-dim{A.dim}.{_ext(args.format)}")
    return EXIT_PASS if agree else EXIT_FAIL


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    family = family_from_descriptor(args.family)
    # a built-in name, else closed-form text; the family's name by default
    name = args.closed_form or family.name
    try:
        if name in CLOSED_FORM_NAMES or not args.closed_form:
            closed_form = closed_form_for(name, x=family.x)
        else:
            closed_form = closed_form_from_text(name)
    except ValueError as e:
        raise UsageError(f"{e}; --closed-form takes a built-in name "
                         f"({', '.join(CLOSED_FORM_NAMES)}) or closed-form text") from None
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    _check_dimension(2 * args.n_max)  # the largest matrix

    report = certify(family, closed_form, args.n_max, progress=_say)
    text = report.to_json() if args.format == "json" else report.render_text()
    _emit(text, args.out, f"certify-{_slug(family.descriptor)}-n{args.n_max}.{_ext(args.format)}")
    if report.verdict == "certified-at-scale":
        return EXIT_PASS
    if report.verdict == "refuted":
        return EXIT_FAIL
    return EXIT_DIAGNOSTIC


# ---------------------------------------------------------------------------
# guess


# Default --n-max of a generated source.  A ratio source gives one point per
# n, and the default class (order 2, degree 2) needs 19 usable equations:
# r:motzkin first has them at n_max = 28.
_DEFAULT_BOUNDS = {"seq": 40, "c": 12, "g": 12, "r": 28}
# The largest --n-max of a seq: source; 10 000 terms guess in about 1.5 s
# (2-vCPU host, Python 3.11).
SEQUENCE_TERM_LIMIT = 10_000
# The arity of a generated source's table, known before it is built.
_SOURCE_ARITY = {"seq": 1, "c": 2, "g": 2, "r": 1}


def _guess_table(source: str, n_max: Optional[int]) -> Tuple[Table, Tuple[str, ...]]:
    """Resolve a --source string to (table, variable names).

    Sources: "c:<family>" cofactor table, "g:<family>" orthogonality grid,
    "r:<family>" ratio sequence, "seq:<name>" a built-in number sequence,
    anything else (or "file:<path>") a table JSON file."""
    kind, sep, rest = source.partition(":")
    if kind in _DEFAULT_BOUNDS and sep:
        bound = _DEFAULT_BOUNDS[kind] if n_max is None else n_max
        if bound < 1:
            raise UsageError("--n-max must be >= 1")
        if kind == "seq":
            if rest not in PLAIN_SEQUENCES:
                raise UsageError(
                    f"unknown sequence {rest!r}; choose from {sorted(PLAIN_SEQUENCES)}"
                )
            if bound > SEQUENCE_TERM_LIMIT:
                raise UsageError(
                    f"--n-max {bound} is above the cap of {SEQUENCE_TERM_LIMIT} for seq: sources"
                )
            sequence = PLAIN_SEQUENCES[rest][0]
            return Table.from_sequence([sequence(n) for n in range(bound + 1)]), ("n",)
        family = family_from_descriptor(rest)
        if family.symbolic:
            raise UsageError("guessing operates on rational tables only")
        _check_dimension(2 * bound)  # the largest matrix
        return c_table(family, bound, progress=_say).table(kind), TABLE_VARIABLES[kind]
    path = rest if kind == "file" and sep else source
    data = _read_json(path)
    try:
        table = table_from_json_dict(data)
        names = data.get("vars", ["n"] if table.arity == 1 else ["n", "i"])
        if (not isinstance(names, list) or len(names) != table.arity
                or not all(isinstance(v, str) for v in names)):
            raise TypeError(f"vars must be a list of {table.arity} strings, got {names!r}")
    except (TypeError, KeyError) as e:
        # a row that is not a point/value pair, an arity, point coordinate,
        # value or vars of the wrong JSON type
        raise UsageError(f"malformed table in {path} ({type(e).__name__}: {e})") from None
    return table, tuple(names)


def _parse_orders(text: str, arity: int) -> Tuple[int, ...]:
    try:
        orders = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--order expects comma-separated integers, got {text!r}") from None
    if len(orders) == 1 and arity > 1:
        orders = orders * arity
    if len(orders) != arity:
        raise UsageError(f"--order needs {arity} entries for this table, got {text!r}")
    return orders


def _parse_support(text: str, arity: int) -> Tuple[Tuple[int, ...], ...]:
    shifts = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            shift = tuple(int(p.strip()) for p in piece.split(","))
        except ValueError:
            raise UsageError(f"bad shift {piece!r} in --support") from None
        if len(shift) != arity:
            raise UsageError(f"shift {piece!r} needs {arity} entries for this table")
        shifts.append(shift)
    if not shifts:
        raise UsageError("--support is empty")
    return tuple(shifts)


def _with_shifts(spec: GuessSpec, args, arity: int) -> GuessSpec:
    """`spec` with the shifts of --order or --support for a table of `arity`."""
    if args.support:
        return replace(spec, support=_parse_support(args.support, arity))
    orders = _parse_orders(args.order, arity) if args.order else (2,) * arity
    return replace(spec, orders=orders)


def cmd_guess(args) -> int:
    if args.order and args.support:
        raise UsageError("give at most one of --order/--support")
    # the bounds, and a generated source's shifts, are checked here, before a
    # family source solves its cofactor systems; a file's arity is known once
    # it is read
    spec = GuessSpec(degree=args.degree, margin=args.margin)
    kind, sep, _ = args.source.partition(":")
    arity = _SOURCE_ARITY.get(kind) if sep else None
    if arity is not None:
        spec = _with_shifts(spec, args, arity)
    table, variables = _guess_table(args.source, args.n_max)
    if arity is None:
        spec = _with_shifts(spec, args, table.arity)

    config = {
        "source": args.source,
        "n_max": args.n_max,
        "degree": args.degree,
        "order": args.order,
        "support": args.support,
        "margin": args.margin,
    }
    name = f"guess-{_slug(args.source)}.{_ext(args.format)}"
    try:
        result = guess_from_table(table, spec, variables)
    except (UnderdeterminedData, DegenerateData, CoverageError) as e:
        payload = {"status": "diagnostic", "detail": str(e)}
        if args.format == "json":
            text = _json_report("guess", config, payload)
        else:
            text = f"diagnostic: {e}\n"
        _emit(text, args.out, name)
        return EXIT_DIAGNOSTIC

    if args.format == "json":
        text = _json_report("guess", config, {"status": "ok", **result.to_json_dict()})
    else:
        lines = [
            f"table: {len(table)} points, vars {'/'.join(variables)}",
            f"class: support {list(map(list, result.support))}, degree <= {result.degree}",
            f"windows: data {len(result.data_window)}, validation {len(result.validation_window)}",
        ]
        if result.operators:
            lines.append(f"operators ({len(result.operators)}):")
            lines.extend(f"  {op}" for op in result.operators)
        else:
            lines.append("no operator in this class fits the data")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out, name)
    return EXIT_PASS if result.operators else EXIT_FAIL


# ---------------------------------------------------------------------------
# minor-sum


# The largest minor-sum --n: the term count grows factorially, and --n 9
# takes about 18 s, 10 about 83 s (2-vCPU host, Python 3.11).
MINOR_SUM_N_LIMIT = 9


def cmd_minor_sum(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.n > MINOR_SUM_N_LIMIT:
        raise UsageError(f"--n {args.n} is above the cap of {MINOR_SUM_N_LIMIT}")
    terms = theorem4_terms(args.n)
    lhs = sum((t.minor for t in terms), Fraction(0))
    family = family_from_descriptor("motzkin")
    rhs = pf_eliminate(SkewMatrix.from_family(family, 2 * args.n))
    ok = lhs == rhs

    config = {"n": args.n}
    if args.format == "json":
        rows = []
        running = Fraction(0)
        for t in terms:
            running += t.minor
            rows.append(
                {
                    "partition": list(t.partition),
                    "columns": list(t.columns),
                    "minor": format_rational(t.minor),
                    "running_sum": format_rational(running),
                }
            )
        text = _json_report(
            "minor-sum",
            config,
            {
                "n": args.n,
                "terms": rows,
                "sum": format_rational(lhs),
                "pfaffian": format_rational(rhs),
                "equal": ok,
            },
        )
    else:
        text = f"{format_rational(lhs)} = {format_rational(rhs)}, {'PASS' if ok else 'FAIL'}\n"
    _emit(text, args.out, f"minor-sum-n{args.n}.{_ext(args.format)}")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# okinawa


# The largest okinawa --i-max/--j-max: a 40x40 grid takes about 8 s, 60x60
# about 42 s (2-vCPU host, Python 3.11).
OKINAWA_INDEX_LIMIT = 60


def cmd_okinawa(args) -> int:
    if args.i_max < 0 or args.j_max < 0:
        raise UsageError("--i-max/--j-max must be >= 0")
    if max(args.i_max, args.j_max) > OKINAWA_INDEX_LIMIT:
        raise UsageError(
            f"--i-max/--j-max {max(args.i_max, args.j_max)} is above the cap of "
            f"{OKINAWA_INDEX_LIMIT}"
        )
    report = verify_okinawa(args.i_max, args.j_max)
    good = report.checked - len(report.failures)
    config = {"i_max": args.i_max, "j_max": args.j_max}
    if args.format == "json":
        text = _json_report(
            "okinawa",
            config,
            {
                "checked": report.checked,
                "failures": [list(p) for p in report.failures],
                "all_equal": report.all_equal,
            },
        )
    else:
        text = f"{good}/{report.checked} {'PASS' if report.all_equal else 'FAIL'}\n"
    _emit(text, args.out, f"okinawa-i{args.i_max}-j{args.j_max}.{_ext(args.format)}")
    return EXIT_PASS if report.all_equal else EXIT_FAIL


# ---------------------------------------------------------------------------
# conjecture


def cmd_conjecture(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    _check_dimension(2 * args.n_max)  # the largest matrix
    report = check_conjecture1(args.k, args.n_max, variant=args.variant, progress=_say)
    text = report.to_json() if args.format == "json" else report.render_text()
    _emit(text, args.out,
          f"conjecture-k{args.k}-{args.variant}-n{args.n_max}.{_ext(args.format)}")
    return EXIT_PASS if report.all_match else EXIT_FAIL


# ---------------------------------------------------------------------------
# selftest


def _random_skew(rng: random.Random, dim: int) -> SkewMatrix:
    return SkewMatrix(
        dim,
        {
            (i, j): Fraction(rng.randint(-9, 9))
            for i in range(1, dim + 1)
            for j in range(i + 1, dim + 1)
        },
    )


def _suite_agreement(rng: random.Random):
    count = 0
    for dim in (2, 4, 6, 8):
        for _ in range(10):
            A = _random_skew(rng, dim)
            a, b, c = pf_naive(A), pf_eliminate(A), pf_laplace(A)
            if not (a == b == c):
                return False, f"algorithms disagree on a dim-{dim} matrix"
            count += 1
    return True, f"3 algorithms agree on {count} random matrices"


def _suite_square(rng: random.Random):
    count = 0
    for dim in (2, 4, 6, 8, 10):
        for _ in range(6):
            A = _random_skew(rng, dim)
            pf = pf_eliminate(A)
            if pf * pf != determinant(A.dense()):
                return False, f"Pf^2 != det on a dim-{dim} matrix"
            count += 1
    return True, f"Pf^2 == det on {count} random matrices"


def _suite_permutation(rng: random.Random):
    count = 0
    for dim in (4, 6):
        for _ in range(12):
            A = _random_skew(rng, dim)
            perm = list(range(1, dim + 1))
            rng.shuffle(perm)
            B = SkewMatrix.from_function(dim, lambda i, j: A.entry(perm[i - 1], perm[j - 1]))
            if pf_eliminate(B) != permutation_sign(perm) * pf_eliminate(A):
                return False, f"conjugation sign law fails on a dim-{dim} matrix"
            count += 1
    return True, f"relabeling sign law holds on {count} random matrices"


def _suite_cofactor(rng: random.Random):
    count = 0
    for dim in (4, 6):
        done = 0
        while done < 6:
            A = _random_skew(rng, dim)
            try:
                c, den = cofactor_vector(A)
            except SingularCofactorSystem:
                continue
            done += 1
            if c[-1] != den:
                return False, "normalization entry is not 1"
            for j in range(1, dim):
                total = sum((c[i - 1] * A.entry(i, j) for i in range(1, dim)), Fraction(0))
                if total != 0:
                    return False, f"cofactor contraction nonzero at j={j}, dim={dim}"
            count += 1
    return True, f"cofactor vectors annihilate all early columns on {count} matrices"


def _suite_guess_roundtrip(rng: random.Random):
    shift = rng.randint(1, 5)
    values = [Fraction(1)]
    for n in range(30):
        values.append(values[-1] * (n + shift))
    table = Table.from_sequence(values)
    spec = GuessSpec(degree=1, orders=(1,), margin=2, extra_equations=6)
    result = guess_from_table(table, spec, ("n",))
    if not result.operators:
        return False, "no operator recovered for a first-order factorial-type sequence"
    for op in result.operators:
        residuals = apply_operator(op, table)
        if any(v != 0 for v in residuals.values()):
            return False, "recovered operator has nonzero residuals"
    return True, f"recovered and re-verified an annihilator (shift parameter {shift})"


def _suite_msf(rng: random.Random):
    count = 0
    for rows, dim in ((2, 4), (2, 6), (4, 6)):
        for _ in range(3):
            T = [[Fraction(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(rows)]
            A = _random_skew(rng, dim)
            rep = verify_msf(T, A)
            if not rep.equal:
                return False, f"minor sum mismatch for a {rows}x{dim} instance"
            count += 1
    return True, f"minor summation matches the compressed Pfaffian on {count} instances"


_SELFTEST_SUITES = [
    ("pfaffian-agreement", _suite_agreement),
    ("pfaffian-square-is-determinant", _suite_square),
    ("relabeling-sign", _suite_permutation),
    ("cofactor-orthogonality", _suite_cofactor),
    ("guess-roundtrip", _suite_guess_roundtrip),
    ("minor-summation", _suite_msf),
]


def cmd_selftest(args) -> int:
    results = []
    for name, fn in _SELFTEST_SUITES:
        rng = random.Random(f"{args.seed}:{name}")
        ok, detail = fn(rng)
        results.append({"name": name, "ok": ok, "detail": detail})
    all_ok = all(r["ok"] for r in results)

    config = {"seed": args.seed}
    if args.format == "json":
        text = _json_report("selftest", config, {"results": results, "all_ok": all_ok})
    else:
        lines = [f"selftest seed={args.seed}"]
        for r in results:
            lines.append(f"[{'PASS' if r['ok'] else 'FAIL'}] {r['name']}: {r['detail']}")
        lines.append("all suites passed" if all_ok else "some suites FAILED")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out, f"selftest-seed{args.seed}.{_ext(args.format)}")
    return EXIT_PASS if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default: text)")
    p.add_argument("--out", metavar="PATH",
                   help=f"write the report to PATH (default: stdout, or ${OUT_DIR_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfansatz",
        description="Exact Pfaffian evaluation, cofactor recurrences, and "
                    "finite-scale certification of product closed forms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("pfaffian", help="evaluate the Pfaffian of a matrix")
    p.add_argument("--family", help="family descriptor, e.g. motzkin or narayana:x=1/2")
    p.add_argument("--dim", type=int, help="even matrix dimension (with --family)")
    p.add_argument("--file", help="matrix JSON file (dense array or dim/upper object)")
    p.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="eliminate")
    p.add_argument("--all-algorithms", action="store_true",
                   help="run every applicable algorithm and require agreement")
    _add_output_flags(p)
    p.set_defaults(func=cmd_pfaffian)

    p = sub.add_parser("certify", help="certify a Pfaffian closed form at finite scale")
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=int, default=12, help="largest half-dimension (default 12)")
    p.add_argument("--closed-form",
                   help=f"a built-in closed form ({', '.join(CLOSED_FORM_NAMES)}; default: "
                        "the family's) or closed-form text, e.g. \"prod(4*k+1)\" or "
                        "\"pow(2, n^2)*prod(4*k+1)\"")
    _add_output_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("guess", help="guess recurrence operators for a table")
    p.add_argument("--source", required=True,
                   help="c:<family> | g:<family> | r:<family> | seq:<name> | file:<path>")
    p.add_argument("--n-max", type=int,
                   help="table size for generated sources (default 40 for seq:, "
                        "28 for r:, 12 for c: and g:)")
    p.add_argument("--order", help="max shift per variable, comma-separated (default 2)")
    p.add_argument("--degree", type=int, default=2, help="max coefficient degree (default 2)")
    p.add_argument("--support", help="explicit shifts, e.g. \"0,0;1,0;0,1\"")
    p.add_argument("--margin", type=int, default=10,
                   help="extra admissible points required beyond the unknown count")
    _add_output_flags(p)
    p.set_defaults(func=cmd_guess)

    p = sub.add_parser("minor-sum", help="check the even-minor determinant sum against the Pfaffian")
    p.add_argument("--n", type=int, required=True, help="half-dimension of the triangle matrix")
    _add_output_flags(p)
    p.set_defaults(func=cmd_minor_sum)

    p = sub.add_parser("okinawa", help="check the Gauss-sum addition identity on a grid")
    p.add_argument("--i-max", type=int, default=12)
    p.add_argument("--j-max", type=int, default=12)
    _add_output_flags(p)
    p.set_defaults(func=cmd_okinawa)

    p = sub.add_parser("conjecture", help="compare scaled-family Pfaffians to predicted products")
    p.add_argument("--k", type=int, required=True, help="scale parameter")
    p.add_argument("--variant", choices=("i", "ii"), default="i")
    p.add_argument("--n-max", type=int, default=6)
    _add_output_flags(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("selftest", help="run seeded randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SingularCofactorSystem as e:
        print(f"diagnostic: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except (UnderdeterminedData, DegenerateData, CoverageError) as e:
        print(f"diagnostic: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except ValueError as e:
        # bad descriptors, malformed files, ill-posed operator classes
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
