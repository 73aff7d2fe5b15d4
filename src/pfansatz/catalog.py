"""Known holonomic operators for the built-in rational families.

Each entry pairs an operator with the table it annihilates ("c" for the
normalized cofactor grid, "g" for the orthogonality grid, "r" for the ratio
sequence).  The operators were originally produced by the guesser at larger
scale than the default pipeline runs; keeping them here lets `certify`
re-verify them against freshly computed tables on every run, and lets the
tests pin the guesser's output without re-deriving it.

The cofactor ("c") operators also generate rows: `pipeline.c_table` takes
row n of a family from them and keeps it only when it is normalized and
orthogonal to the family's raw moments, else it solves row n.  A wrong
operator here therefore costs only time, never a wrong table.

The module keeps each family's operators as Python expressions over
`Polynomial` variables, in the factored forms the guesser's output was
written in; `known_operators` builds one family's operators on that
family's first lookup and caches them, so importing the module builds
nothing, a family without entries builds nothing, and no operator goes
through the reader of polynomial text.

Residuals are checked on the zero-extended tables: cofactor rows are
extended by c(n, i) = 0 for i <= 0 and i >= 2n, which is compatible with all
cofactor operators below.  The orthogonality operators hold on the whole
grid, including at and above the diagonal j = 2n; at j = 2n the leading
coefficient of the pure-column operator vanishes, so it cannot be used to
deduce the diagonal value, but its residual is still zero there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .guessing import RecurrenceOperator
from .poly import Polynomial


class CatalogEntry:
    __slots__ = ("target", "name", "operator")

    def __init__(self, target: str, name: str, operator: RecurrenceOperator):
        object.__setattr__(self, "target", target)  # "c" | "g" | "r"
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "operator", operator)

    def __setattr__(self, *a):
        raise AttributeError("CatalogEntry is immutable")


def _variables(*names: str) -> Tuple[Polynomial, ...]:
    """Each of `names` as a polynomial over all of them."""
    return tuple(Polynomial.variable(v).with_variables(names) for v in names)


# each family's (target, name, variables, {shift: coefficient}), built by
# its function on the family's first lookup
def _motzkin():
    n, i = _variables("n", "i")
    # cofactor operators
    yield "c", "c-mixed-order-1", ("n", "i"), {
        (0, 0): (i-1)*(2*n-3)*(4*n-7),
        (-1, -1): (2*n+i-4)*(8*i*n-8*i-8*n**2+6*n+3),
        (-1, 0): -(i-1)*(16*i*n-16*i+8*n**2-34*n+27),
        (-1, 1): -24*i*(i-1)*(n-1),
        (0, -1): (2*n-3)*(4*n-7)*(2*n-i),
    }
    yield "c", "c-row-order-2", ("n", "i"), {
        (0, 0): (n-2)*(2*n-5)*(4*n-11)*(4*n-7)*(2*n-i-2)*(2*n-i-1),
        (-1, 0): -(2*n-5)*(4*n-11)*(8*i**2*n**2-24*i**2*n+17*i**2-16*i*n**2
                                    +48*i*n-33*i-16*n**4+108*n**3-258*n**2+258*n-92),
        (-2, 0): (n-1)*(4*n-7)*(2*n+i-5)*(32*i*n**2-122*i*n+117*i
                                          -32*n**3+168*n**2-280*n+144),
        (-2, 1): -6*i*(4*i+1)*(n-2)*(n-1)*(2*n-3)*(4*n-7),
        (-2, 2): -36*i*(i+1)*(n-2)*(n-1)*(2*n-3)*(4*n-7),
    }
    yield "c", "c-column-order-3", ("n", "i"), {
        (0, 0): 18*n*(i-3)*(i-2)*(i-1),
        (0, -3): -(2*n+i-4)*(10*i**2*n-24*i*n**2-63*i*n+i+16*n**3+76*n**2+97*n-3),
        (0, -2): 2*(i-3)*n*(7*i**2-12*i*n-46*i+33*n+73),
        (0, -1): 3*(i-3)*(i-2)*n*(14*i-12*n-39),
        (1, -3): (2*n-1)*(4*n-3)*(2*n-i+4)*(2*n-i+3),
    }
    # orthogonality-grid operators
    n, j = _variables("n", "j")
    yield "g", "g-mixed-order-1", ("n", "j"), {
        (0, 0): j*(4*n-7)*(2*n+j-2),
        (-1, 0): -j*(4*n-3)*(j-n+1),
        (-1, 1): -(n-1)*(4*n-3)*(2*n-j-3),
    }
    yield "g", "g-column-order-2", ("n", "j"), {
        (0, 0): (j-2*n)*(2*n+j-2),
        (0, -2): -3*(j-2)*(j-1),
        (0, -1): -(j-1)*(2*j-3),
    }
    # ratio operator
    n, = _variables("n")
    yield "r", "r-order-2", ("n",), {
        (0,): 2*(4*n-11)*(4*n-7)*(4*n-5)*(7*n-13),
        (-1,): -(4*n-11)*(350*n**3-1413*n**2+1798*n-714),
        (-2,): 9*(n-2)*(2*n-3)*(4*n-7)*(7*n-6),
    }


def _delannoy():
    n, i = _variables("n", "i")
    # cofactor operators
    yield "c", "c-column-order-4", ("n", "i"), {
        (0, 0): 2*(i-3)*(i-2)*(i-1),
        (0, -1): -3*(i-3)*(i-2)*(8*i-27),
        (0, -2): (i-3)*(76*i**2-589*i-8*n**2+16*n+1109),
        (0, -3): -3*(8*i**3-105*i**2-16*i*n**2+32*i*n+443*i+68*n**2-136*n-600),
        (0, -4): (2*i-11)*(i-2*n-3)*(i+2*n-7),
    }
    yield "c", "c-row-order-1", ("n", "i"), {
        (0, 0): 2*(n-2)*(2*n-3)*(4*n-9)*(i-2*n+1)*(i-2*n+2),
        (-1, 0): -(n-1)*(i+2*n-5)*(68*i**2*n-102*i**2-96*i*n**2+178*i*n
                                   -43*i+64*n**3-208*n**2+200*n-56),
        (-1, 1): 6*i*(n-1)*(2*n-3)*(35*i**2+4*i*n-66*i-n+14),
        (-1, 2): -i*(i+1)*(n-1)*(2*n-3)*(70*i+4*n-31),
        (-1, 3): 6*i*(i+1)*(i+2)*(n-1)*(2*n-3),
    }


_FAMILIES = {"motzkin": _motzkin, "delannoy": _delannoy}


@lru_cache(maxsize=None)
def known_operators(family_name: str) -> Tuple[CatalogEntry, ...]:
    """All cataloged operators for a family (empty tuple when none), built
    on the family's first lookup."""
    build = _FAMILIES.get(family_name)
    return () if build is None else tuple(
        CatalogEntry(target, name, RecurrenceOperator.make(variables, terms))
        for target, name, variables, terms in build()
    )
