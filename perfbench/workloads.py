"""Workloads: the CLI jobs each one runs, the seeded inputs they read, and
output checks that use reference values computed here, not by pfansatz."""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, Tuple

# A check takes (exit status, stdout text) and returns the problems found.
Check = Callable[[int, str], List[str]]


@dataclass(frozen=True)
class Job:
    argv: Tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    # span names that must fire on a traced run, and a prefix that must not
    expected_spans: frozenset
    forbidden_prefix: str
    build: Callable[[int, str], Tuple[List[Job], Dict]]


def motzkin_pfaffian(n: int) -> int:
    """Pf of the 2n x 2n motzkin matrix: prod_{k<n} (4k+1)."""
    out = 1
    for k in range(n):
        out *= 4 * k + 1
    return out


def _exit_zero(code: int) -> List[str]:
    return [] if code == 0 else [f"exit status {code}"]


def _load_json(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as e:
        return None, [f"report is not JSON: {e}"]


def _certify_check(n_max: int, expected: Callable[[int, str], bool]) -> Check:
    """Verdict certified-at-scale, and every reported b_{2n}, n = 0..n_max,
    equal to the reference closed form."""

    def check(code: int, out: str) -> List[str]:
        problems = _exit_zero(code)
        report, bad = _load_json(out)
        if report is None:
            return problems + bad
        if report.get("verdict") != "certified-at-scale":
            problems.append(f"verdict {report.get('verdict')!r}")
        pfs = report.get("pfaffians", [])
        if len(pfs) != n_max + 1:
            problems.append(f"{len(pfs)} pfaffians reported, expected {n_max + 1}")
        problems.extend(
            f"b_{2 * n} = {text} is not the closed form"
            for n, text in enumerate(pfs)
            if not expected(n, text)
        )
        return problems

    return check


def _rational_closed_form(x: Fraction) -> Callable[[int, str], bool]:
    return lambda n, text: Fraction(text) == x ** (n * n) * motzkin_pfaffian(n)


_MONOMIAL = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$")


def _symbolic_closed_form(n: int, text: str) -> bool:
    """b_{2n} == prod_{k<n}(4k+1) * x^(n^2), read from `c*x^e` text."""
    if n == 0:
        return text == "1"
    m = _MONOMIAL.match(text)
    if m is None:
        return False
    coeff, exp = int(m.group(1) or 1), int(m.group(2) or 1)
    return coeff == motzkin_pfaffian(n) and exp == n * n


def _pfaffian_check(value: int, algorithms: Tuple[str, ...]) -> Check:
    """JSON pfaffian report: every listed algorithm ran and gave `value`."""

    def check(code: int, out: str) -> List[str]:
        problems = _exit_zero(code)
        report, bad = _load_json(out)
        if report is None:
            return problems + bad
        by_alg = report.get("by_algorithm", {})
        if tuple(by_alg) != algorithms:
            problems.append(f"algorithms {list(by_alg)}, expected {list(algorithms)}")
        problems.extend(
            f"{name} gave {text}, expected {value}"
            for name, text in by_alg.items()
            if Fraction(text) != value
        )
        if report.get("agree") is not True:
            problems.append("algorithms disagree")
        return problems

    return check


def _conjecture_check(n_max: int) -> Check:
    def check(code: int, out: str) -> List[str]:
        problems = _exit_zero(code)
        passed = out.count("[PASS] n=")
        if passed != n_max or "FAIL" in out:
            problems.append(f"{passed}/{n_max} rows PASS")
        if "status: verified at scale" not in out:
            problems.append("status line missing")
        return problems

    return check


def _minor_sum_check(n: int) -> Check:
    """`lhs = rhs, PASS`, both sides the motzkin Pfaffian of dimension 2n."""
    expected = motzkin_pfaffian(n)

    def check(code: int, out: str) -> List[str]:
        problems = _exit_zero(code)
        if out != f"{expected} = {expected}, PASS\n":
            problems.append(f"minor-sum printed {out.strip()!r}, expected {expected} on both sides")
        return problems

    return check


def skew_product_matrix(rng: random.Random, dim: int) -> Tuple[dict, int]:
    """A = B^T J B for a random integer upper-triangular B and the canonical
    block matrix J = diag([[0, 1], [-1, 0]], ...).  Pf(A) = det(B) Pf(J) =
    prod B_ii.  Returns the `{dim, upper}` JSON object and that Pfaffian."""
    digits = [d for d in range(-9, 10) if d]
    B = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        B[i][i] = rng.choice(digits)
        for j in range(i + 1, dim):
            B[i][j] = rng.randint(-9, 9)
    upper = []
    for i in range(dim):
        for j in range(i + 1, dim):
            v = sum(B[2 * m][i] * B[2 * m + 1][j] - B[2 * m + 1][i] * B[2 * m][j]
                    for m in range(dim // 2))
            if v:
                upper.append([i + 1, j + 1, str(v)])
    pf = 1
    for i in range(dim):
        pf *= B[i][i]
    return {"dim": dim, "upper": upper}, pf


# Narayana weights x = p/q: p and q coprime, both in 2..9.
NARAYANA_WEIGHTS = tuple(
    Fraction(p, q) for p in range(2, 10) for q in range(2, 10) if gcd(p, q) == 1
)

CERTIFY_MOTZKIN_N = 20
CERTIFY_NARAYANA_N = 14
CERTIFY_SYMBOLIC_N = 7
FILE_MATRIX_DIM = 60
FILE_MATRICES = 2


def _certify_rational(seed: int, work: str):
    x = random.Random(seed).choice(NARAYANA_WEIGHTS)
    text = f"{x.numerator}/{x.denominator}"
    jobs = [
        Job(("certify", "--family", "motzkin", "--n-max", str(CERTIFY_MOTZKIN_N),
             "--format", "json"),
            _certify_check(CERTIFY_MOTZKIN_N, _rational_closed_form(Fraction(1)))),
        Job(("certify", "--family", f"narayana:x={text}", "--n-max", str(CERTIFY_NARAYANA_N),
             "--format", "json"),
            _certify_check(CERTIFY_NARAYANA_N, _rational_closed_form(x))),
    ]
    return jobs, {"narayana_x": text}


def _pfaffian_symbolic(seed: int, work: str):
    rng = random.Random(seed)
    jobs = [
        Job(("pfaffian", "--family", "motzkin", "--dim", "80", "--format", "json"),
            _pfaffian_check(motzkin_pfaffian(40), ("eliminate",))),
        Job(("pfaffian", "--family", "motzkin", "--dim", "18", "--all-algorithms",
             "--format", "json"),
            _pfaffian_check(motzkin_pfaffian(9), ("eliminate", "laplace"))),
        Job(("pfaffian", "--family", "motzkin", "--dim", "12", "--all-algorithms",
             "--format", "json"),
            _pfaffian_check(motzkin_pfaffian(6), ("naive", "eliminate", "laplace"))),
        Job(("conjecture", "--k", "3", "--n-max", "24"), _conjecture_check(24)),
        Job(("minor-sum", "--n", "6"), _minor_sum_check(6)),
        Job(("certify", "--family", "narayana:x=sym", "--n-max", str(CERTIFY_SYMBOLIC_N),
             "--format", "json"),
            _certify_check(CERTIFY_SYMBOLIC_N, _symbolic_closed_form)),
    ]
    inputs = {"narayana_x": "sym"}  # the symbolic family draws nothing
    for index in range(1, FILE_MATRICES + 1):
        matrix, pf = skew_product_matrix(rng, FILE_MATRIX_DIM)
        path = f"{work}/btjb-{index}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(matrix, fh)
        inputs[f"btjb-{index}"] = matrix
        jobs.append(Job(("pfaffian", "--file", path, "--format", "json"),
                        _pfaffian_check(pf, ("eliminate",))))
    return jobs, inputs


_CERTIFY_SPANS = {
    "sequences.from_family", "pfaffian.pf_eliminate", "pfaffian.cofactor_vector",
    "linalg.solve_linear", "pipeline.c_table", "pipeline.check_identity2",
    "pipeline.ratio_sequence", "pipeline.certify", "cli.main",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-rational",
            frozenset(_CERTIFY_SPANS | {
                "linalg.nullspace", "guessing.guess_from_table", "guessing.residual_at",
                "guessing.apply_operator", "guessing.consequence_solve",
                "guessing.leading_nonvanishing", "poly.eval",
            }),
            "",
            _certify_rational,
        ),
        Workload(
            "pfaffian-symbolic",
            frozenset(_CERTIFY_SPANS | {
                "pfaffian.pf_laplace", "pfaffian.pf_naive", "linalg.determinant",
                "pipeline.check_conjecture1", "minorsum.theorem4_terms", "poly.poly_gcd",
            }),
            "guessing.",
            _pfaffian_symbolic,
        ),
    )
}


def coverage_problems(workload: Workload, spans: dict) -> List[str]:
    """Spans that should have fired on this workload and did not, and spans
    of the forbidden layer that did."""
    fired = {name for name, s in spans.items() if s["calls"]}
    problems = [f"span {name} never fired" for name in sorted(workload.expected_spans - fired)]
    if workload.forbidden_prefix:
        problems.extend(
            f"span {name} fired" for name in sorted(fired)
            if name.startswith(workload.forbidden_prefix)
        )
    return problems
