"""retractrat: exact computation with integral representations of finite groups.

The package decides retract-rationality questions by computing with
G-lattices: Tate cohomology, flabby resolutions, a complete invertibility
decision, and a rule engine producing cited verdicts for Noether's problem,
algebraic tori, multiplicative invariant fields, and monomial actions.
"""

from .zlinalg import AbelianInvariants, Mat, SmithDecomposition
from .groups import FiniteGroup, Subgroup, ZGroupPresentation, catalog_group, parse_group
from .lattices import (
    GLattice,
    LatticeMap,
    LenstraData,
    action_kernel,
    augmentation_kernel,
    direct_sum,
    dual,
    lattice_document,
    lenstra_lattice,
    parse_lattice,
    permutation_lattice,
    regular_lattice,
    restrict,
    trivial_lattice,
)
from .cohomology import CohomologyProfile, h1, profile, tate_minus1, tate_zero
from .resolutions import (
    FixedPointCover,
    FlabbyResolution,
    InvertibilityDecision,
    class_fingerprint,
    cover_kernel,
    fixed_point_cover,
    flabby_resolution,
    is_invertible,
    verify_refutation,
)
from .monomial import ExtensionClass, MonomialAction, extension_class, parse_monomial_action
from .verdict import (
    COMPLEX,
    RATIONALS,
    FieldDescriptor,
    Verdict,
    monomial_instance_verdict,
    monomial_universal_verdict,
    multiplicative_verdict,
    noether_verdict,
    replay_trace,
    torus_verdict,
)

__all__ = [
    "AbelianInvariants",
    "Mat",
    "SmithDecomposition",
    "FiniteGroup",
    "Subgroup",
    "ZGroupPresentation",
    "catalog_group",
    "parse_group",
    "GLattice",
    "LatticeMap",
    "LenstraData",
    "action_kernel",
    "augmentation_kernel",
    "direct_sum",
    "dual",
    "lattice_document",
    "lenstra_lattice",
    "parse_lattice",
    "permutation_lattice",
    "regular_lattice",
    "restrict",
    "trivial_lattice",
    "CohomologyProfile",
    "h1",
    "profile",
    "tate_minus1",
    "tate_zero",
    "FixedPointCover",
    "FlabbyResolution",
    "InvertibilityDecision",
    "class_fingerprint",
    "cover_kernel",
    "fixed_point_cover",
    "flabby_resolution",
    "is_invertible",
    "verify_refutation",
    "ExtensionClass",
    "MonomialAction",
    "extension_class",
    "parse_monomial_action",
    "COMPLEX",
    "RATIONALS",
    "FieldDescriptor",
    "Verdict",
    "monomial_instance_verdict",
    "monomial_universal_verdict",
    "multiplicative_verdict",
    "noether_verdict",
    "replay_trace",
    "torus_verdict",
]
