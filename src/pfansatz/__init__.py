"""Exact linear algebra for skew-symmetric matrices: Pfaffians by three
independent algorithms, normalized cofactor vectors and their recurrences,
P-finite operator guessing over exact tables, minor-summation identities, and
finite-scale certification of product closed forms for structured families.

Everything computes in exact rational (or exact polynomial) arithmetic; no
check in this package ever compares floating-point approximations.

`import pfansatz` loads only the version: each exported name loads its
submodule on first use (PEP 562), so a program that evaluates Pfaffians never
compiles the guessing or certification code.
"""

import importlib

from ._version import __version__

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "guessing": (
        "CoverageError", "DegenerateData", "GuessingError", "GuessResult", "GuessSpec",
        "LeadingReport", "RecurrenceOperator", "Region", "Table", "UnderdeterminedData",
        "apply_operator", "guess_from_table", "integer_roots", "leading_nonvanishing",
        "table_from_json_dict", "table_to_json_dict",
    ),
    "linalg": ("determinant", "nullspace", "solve_linear"),
    "minorsum": (
        "MinorSumTerm", "MsfReport", "OkinawaReport", "canonical_block_skew", "conjugate",
        "enumerate_even_even", "index_set", "is_even_even", "msf_Q", "theorem4_lhs",
        "theorem4_terms", "verify_msf", "verify_okinawa",
    ),
    "pfaffian": (
        "ELIMINATE_DIMENSION_LIMIT", "LAPLACE_DIMENSION_LIMIT", "NAIVE_DIMENSION_LIMIT",
        "SingularCofactorSystem", "SkewMatrix", "cofactor_vector", "pf_eliminate",
        "pf_laplace", "pf_naive", "permutation_sign",
    ),
    "pipeline": (
        "CertificationReport", "ClosedForm", "CofactorRows", "ConjectureReport", "c_table",
        "certify", "check_conjecture1", "check_identity2", "closed_form_for",
        "closed_form_from_text", "conjecture_predicted", "ratio_sequence",
    ),
    "poly": (
        "Polynomial", "entry_text", "format_rational", "parse_entry", "parse_poly",
        "quotient_text",
    ),
    "sequences": (
        "MatrixFamily", "delannoy", "family_from_descriptor", "hyp2f1_terminating", "motzkin",
        "motzkin_column", "motzkin_triangle", "narayana", "narayana_value", "schroeder",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS]) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
