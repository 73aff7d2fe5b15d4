"""The seeded property suites of the `selftest` command.

Each suite draws random matrices or sequences from its own generator,
seeded by "<seed>:<suite name>", and returns (ok, detail).  Only
`cmd_selftest` loads this module, so no other command compiles the suites
or the modules they check against each other.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .guessing import GuessSpec, Table, apply_operator, guess_from_table
from .linalg import determinant
from .minorsum import verify_msf
from .pfaffian import (
    SingularCofactorSystem,
    SkewMatrix,
    cofactor_vector,
    pf_eliminate,
    pf_laplace,
    pf_naive,
    permutation_sign,
)


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


def run_suites(seed: int) -> list:
    """[{"name", "ok", "detail"}] for every suite, in order, at `seed`."""
    results = []
    for name, fn in _SELFTEST_SUITES:
        ok, detail = fn(random.Random(f"{seed}:{name}"))
        results.append({"name": name, "ok": ok, "detail": detail})
    return results
