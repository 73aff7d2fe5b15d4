"""Exact linear algebra for skew-symmetric matrices: Pfaffians by three
independent algorithms, normalized cofactor vectors and their recurrences,
P-finite operator guessing over exact tables, minor-summation identities, and
finite-scale certification of product closed forms for structured families.

Everything computes in exact rational (or exact polynomial) arithmetic; no
check in this package ever compares floating-point approximations.
"""

from ._version import __version__
from .guessing import (
    CoverageError,
    DegenerateData,
    GuessingError,
    GuessResult,
    GuessSpec,
    LeadingReport,
    RecurrenceOperator,
    Region,
    Table,
    UnderdeterminedData,
    apply_operator,
    guess_from_table,
    guess_univariate,
    integer_roots,
    leading_nonvanishing,
    table_from_json_dict,
    table_to_json_dict,
)
from .linalg import determinant, nullspace, solve_linear
from .minorsum import (
    MinorSumTerm,
    MsfReport,
    OkinawaReport,
    canonical_block_skew,
    conjugate,
    enumerate_even_even,
    index_set,
    is_even_even,
    msf_Q,
    theorem4_lhs,
    theorem4_terms,
    verify_msf,
    verify_okinawa,
)
from .pfaffian import (
    ELIMINATE_DIMENSION_LIMIT,
    LAPLACE_DIMENSION_LIMIT,
    NAIVE_DIMENSION_LIMIT,
    PerfectMatching,
    SingularCofactorSystem,
    SkewMatrix,
    cofactor_vector,
    cofactor_vector_via_minors,
    gamma,
    pf_eliminate,
    pf_laplace,
    pf_minor,
    pf_naive,
    permutation_sign,
)
from .pipeline import (
    CertificationReport,
    ClosedForm,
    CofactorRows,
    ConjectureReport,
    c_table,
    certify,
    check_conjecture1,
    check_identity2,
    closed_form_for,
    closed_form_from_text,
    conjecture_predicted,
    ratio_sequence,
)
from .poly import Polynomial, entry_text, format_rational, parse_entry, parse_poly, quotient_text
from .sequences import (
    MatrixFamily,
    delannoy,
    family_from_descriptor,
    hyp2f1_terminating,
    motzkin,
    motzkin_column,
    motzkin_triangle,
    narayana,
    narayana_value,
    schroeder,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
