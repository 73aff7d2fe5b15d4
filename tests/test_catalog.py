"""The catalog's operators against the term texts they were once kept as:
each entry, built from Polynomial expressions, equals the operator that
`RecurrenceOperator.make` reads from the text, and building them reads no
polynomial text."""

import pytest

from pfansatz import catalog, guessing
from pfansatz.guessing import RecurrenceOperator

# (target, name, variables, {shift: coefficient text}) by family, as the
# catalog kept them before it built its operators from Polynomials
CATALOG_TEXTS = {
    "motzkin": (
        # cofactor operators
        ("c", "c-mixed-order-1", ("n", "i"), {
            (0, 0): "(i-1)*(2*n-3)*(4*n-7)",
            (-1, -1): "(2*n+i-4)*(8*i*n-8*i-8*n^2+6*n+3)",
            (-1, 0): "-(i-1)*(16*i*n-16*i+8*n^2-34*n+27)",
            (-1, 1): "-24*i*(i-1)*(n-1)",
            (0, -1): "(2*n-3)*(4*n-7)*(2*n-i)",
        }),
        ("c", "c-row-order-2", ("n", "i"), {
            (0, 0): "(n-2)*(2*n-5)*(4*n-11)*(4*n-7)*(2*n-i-2)*(2*n-i-1)",
            (-1, 0): "-(2*n-5)*(4*n-11)*(8*i^2*n^2-24*i^2*n+17*i^2-16*i*n^2"
                     "+48*i*n-33*i-16*n^4+108*n^3-258*n^2+258*n-92)",
            (-2, 0): "(n-1)*(4*n-7)*(2*n+i-5)*(32*i*n^2-122*i*n+117*i"
                     "-32*n^3+168*n^2-280*n+144)",
            (-2, 1): "-6*i*(4*i+1)*(n-2)*(n-1)*(2*n-3)*(4*n-7)",
            (-2, 2): "-36*i*(i+1)*(n-2)*(n-1)*(2*n-3)*(4*n-7)",
        }),
        ("c", "c-column-order-3", ("n", "i"), {
            (0, 0): "18*n*(i-3)*(i-2)*(i-1)",
            (0, -3): "-(2*n+i-4)*(10*i^2*n-24*i*n^2-63*i*n+i+16*n^3+76*n^2+97*n-3)",
            (0, -2): "2*(i-3)*n*(7*i^2-12*i*n-46*i+33*n+73)",
            (0, -1): "3*(i-3)*(i-2)*n*(14*i-12*n-39)",
            (1, -3): "(2*n-1)*(4*n-3)*(2*n-i+4)*(2*n-i+3)",
        }),
        # orthogonality-grid operators
        ("g", "g-mixed-order-1", ("n", "j"), {
            (0, 0): "j*(4*n-7)*(2*n+j-2)",
            (-1, 0): "-j*(4*n-3)*(j-n+1)",
            (-1, 1): "-(n-1)*(4*n-3)*(2*n-j-3)",
        }),
        ("g", "g-column-order-2", ("n", "j"), {
            (0, 0): "(j-2*n)*(2*n+j-2)",
            (0, -2): "-3*(j-2)*(j-1)",
            (0, -1): "-(j-1)*(2*j-3)",
        }),
        # ratio operator
        ("r", "r-order-2", ("n",), {
            (0,): "2*(4*n-11)*(4*n-7)*(4*n-5)*(7*n-13)",
            (-1,): "-(4*n-11)*(350*n^3-1413*n^2+1798*n-714)",
            (-2,): "9*(n-2)*(2*n-3)*(4*n-7)*(7*n-6)",
        }),
    ),
    "delannoy": (
        # cofactor operators
        ("c", "c-column-order-4", ("n", "i"), {
            (0, 0): "2*(i-3)*(i-2)*(i-1)",
            (0, -1): "-3*(i-3)*(i-2)*(8*i-27)",
            (0, -2): "(i-3)*(76*i^2-589*i-8*n^2+16*n+1109)",
            (0, -3): "-3*(8*i^3-105*i^2-16*i*n^2+32*i*n+443*i+68*n^2-136*n-600)",
            (0, -4): "(2*i-11)*(i-2*n-3)*(i+2*n-7)",
        }),
        ("c", "c-row-order-1", ("n", "i"), {
            (0, 0): "2*(n-2)*(2*n-3)*(4*n-9)*(i-2*n+1)*(i-2*n+2)",
            (-1, 0): "-(n-1)*(i+2*n-5)*(68*i^2*n-102*i^2-96*i*n^2+178*i*n"
                     "-43*i+64*n^3-208*n^2+200*n-56)",
            (-1, 1): "6*i*(n-1)*(2*n-3)*(35*i^2+4*i*n-66*i-n+14)",
            (-1, 2): "-i*(i+1)*(n-1)*(2*n-3)*(70*i+4*n-31)",
            (-1, 3): "6*i*(i+1)*(i+2)*(n-1)*(2*n-3)",
        }),
    ),
}


@pytest.mark.parametrize("family", sorted(CATALOG_TEXTS))
def test_every_entry_equals_the_operator_of_its_text(family):
    entries = catalog.known_operators(family)
    assert len(entries) == len(CATALOG_TEXTS[family])
    for entry, (target, name, variables, texts) in zip(entries, CATALOG_TEXTS[family]):
        expected = RecurrenceOperator.make(variables, texts)
        assert (entry.target, entry.name) == (target, name)
        assert entry.operator == expected
        assert entry.operator.variables == expected.variables
        assert [(s, c.variables) for s, c in entry.operator.terms] == [
            (s, c.variables) for s, c in expected.terms]
        assert entry.operator.to_json_dict() == expected.to_json_dict()


def test_building_the_catalog_reads_no_polynomial_text(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the catalog read polynomial text")

    monkeypatch.setattr(guessing, "parse_poly", refuse)
    catalog.known_operators.cache_clear()
    try:
        assert [len(catalog.known_operators(f)) for f in sorted(CATALOG_TEXTS)] == [2, 6]
    finally:
        catalog.known_operators.cache_clear()
