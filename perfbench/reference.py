"""A fixed exact-arithmetic computation that the benchmark times next to
every job, as a yardstick for the machine's speed at that moment.

    python3 perfbench/reference.py

It does the kind of work pfansatz does, in pure Python and without
importing pfansatz: Fraction Gaussian elimination on a seeded integer
matrix, and products of sparse bivariate polynomials with Fraction
coefficients held in dicts.  It prints a digest of its results, which
never changes, then the wall and CPU seconds the computation took.  They
leave out the interpreter's start-up, whose time depends more on the
file cache than on the processor.  Changing this file changes the unit
that the benchmark's `*_rel` metrics are measured in, so it must stay as
it is.
"""

import hashlib
import random
import time
from fractions import Fraction

DIM = 44
POLY_POWER = 6


def determinant(rows):
    n = len(rows)
    M = [list(row) for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        a = M[k][k]
        det *= a
        for i in range(k + 1, n):
            f = M[i][k] / a
            if f:
                row, top = M[i], M[k]
                for j in range(k, n):
                    row[j] = row[j] - f * top[j]
    return det


def poly_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def main() -> None:
    wall, cpu = time.monotonic(), time.process_time()
    rng = random.Random(12345)
    matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(DIM)] for _ in range(DIM)]
    det = determinant(matrix)
    p = {(i, j): Fraction(rng.randint(1, 9), rng.randint(1, 9)) for i in range(5) for j in range(5)}
    power = p
    for _ in range(POLY_POWER - 1):
        power = poly_mul(power, p)
    text = f"{det}|{sorted(power.items())}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(digest, time.monotonic() - wall, time.process_time() - cpu)


if __name__ == "__main__":
    main()
