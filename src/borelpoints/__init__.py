"""Monomial ideals, Hilbert polynomials, and Borel-fixed points of Hilbert schemes.

Exact, dependency-free computation with admissible Hilbert polynomials
and monomial ideals; enumeration of all saturated Borel-fixed ideals
with a given Hilbert polynomial (strongly stable in characteristic 0) by
Reeves' walk, checked against an exhaustive search; and the closed-form
classification predicates for Hilbert schemes with one, two, or three
Borel-fixed points, verified against the enumeration.

Every value is immutable except a VerificationReport, whose lists
verify_classification appends to in place, and every operation is pure,
so the API is safe for concurrent use as long as no report is shared
while it is filled.
"""

from .errors import (
    NotAdmissibleError,
    OutOfScopeError,
    SearchBoundError,
)
from .hilbert_poly import (
    GotzmannPartition,
    MacaulayPartition,
    binomial,
    binomial_poly,
    peel_to_partition,
)
from .monomial_ideal import (
    HilbertData,
    MonomialIdeal,
    Monomial,
    format_monomial,
    hilbert_polynomial,
    monomials_of_degree,
    parse_monomial,
)
from .borel import (
    CHAR0,
    Characteristic,
    borel_closure,
    digitwise_leq,
    exchange_amounts,
    expand,
    expandable_generators,
    is_borel_fixed,
    is_strongly_stable,
)
from .lex import LexCounts, counts_for_partition, lex_ideal, lex_ideal_from_counts
from .reeves import (
    count_strongly_stable,
    enumerate_strongly_stable,
    enumeration_levels,
)
from .exhaustive import enumerate_borel_fixed, search_levels
from .classify import (
    ClassificationVerdict,
    SchemeCoordinates,
    TreeNode,
    VerificationReport,
    count_borel_fixed,
    default_grid,
    explore_tree,
    in_three_point_family,
    partitions_up_to,
    predicate_two,
    predicate_unique,
    predict,
    tree_children,
    two_point_clause,
    unique_point_clause,
    verify_classification,
)

__version__ = "0.1.0"
