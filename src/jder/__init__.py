"""jder: exact derivation and Jordan-derivation spaces of finite rings.

The package builds finite rings from structure constants over Z/m (including
incidence rings of finite preordered sets), solves for their full spaces of
derivations and Jordan derivations by exact linear algebra, and checks the
structural criteria under which every Jordan derivation is a derivation.
"""

from .analysis import (
    ALL_JORDAN_ARE_DERIVATIONS,
    CONDITIONAL_ON_COEFFICIENT_RING,
    UNKNOWN,
    bimodule_faithful,
    construct_dprime,
    cross_check,
    extend_isolated,
    identity_suite,
    identity_suites,
    restrict_corner,
    restrict_to_class,
    theorem_verdict,
)
from .incidence import IncidenceRing, fi_ring, verify_family_conditions
from .preorders import ClosureError, Preorder, QuotientPoset
from .rings import (
    AssociativityError,
    Bimodule,
    RingConstructionError,
    RingElement,
    StructureRing,
    build_ring,
    corner_of,
    direct_product,
    dual_numbers,
    matrix_bimodule,
    matrix_ring,
    regular_bimodule,
    triangular_ring,
    zmod,
)
from .solver import (
    DERIVATION,
    JORDAN,
    AdditiveMap,
    SizeBudgetError,
    check_map,
    compare_spaces,
    inner_derivation,
    solve_derivations,
    solve_jordan_derivations,
)
from .zmodlin import SubgroupBasis, ZmMatrix

__version__ = "0.1.0"

__all__ = [
    "ALL_JORDAN_ARE_DERIVATIONS",
    "CONDITIONAL_ON_COEFFICIENT_RING",
    "DERIVATION",
    "JORDAN",
    "UNKNOWN",
    "AdditiveMap",
    "AssociativityError",
    "Bimodule",
    "ClosureError",
    "IncidenceRing",
    "Preorder",
    "QuotientPoset",
    "RingConstructionError",
    "RingElement",
    "SizeBudgetError",
    "StructureRing",
    "SubgroupBasis",
    "ZmMatrix",
    "bimodule_faithful",
    "build_ring",
    "check_map",
    "compare_spaces",
    "construct_dprime",
    "corner_of",
    "cross_check",
    "direct_product",
    "dual_numbers",
    "extend_isolated",
    "fi_ring",
    "identity_suite",
    "identity_suites",
    "inner_derivation",
    "matrix_bimodule",
    "matrix_ring",
    "regular_bimodule",
    "restrict_corner",
    "restrict_to_class",
    "solve_derivations",
    "solve_jordan_derivations",
    "theorem_verdict",
    "triangular_ring",
    "verify_family_conditions",
    "zmod",
]
