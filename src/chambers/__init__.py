"""Exact region counting for arrangements in projective spaces and flat tori.

The package counts connected components of complements: hyperplane
arrangements in RP^d by a deletion-restriction sweep, cross-checked by a
sign-vector feasibility oracle and, in the tests, by the intersection poset
and Zaslavsky's theorem, and codimension-one subtorus arrangements in T^d
by a deletion-restriction sweep of the same shape, cross-checked by a
fundamental-domain decomposition with facet gluing.  The engines use exact
integer arithmetic below the input boundary.
"""

from .bounds import (
    BoundValue,
    bound_homological,
    bound_mcmullen,
    bound_multiplicity_product,
    bound_multiplicity_sum,
    bound_quadratic,
    first_four_counts,
    low_counts_3d,
    martinov_subset,
    toric_spectrum_contains,
)
from .generators import (
    Recipe,
    cone,
    double_pencil,
    general_position,
    near_pencil,
    pencil_with_extras,
    three_extra_planes,
    toric_construction_a,
    toric_construction_b,
    two_extra_planes,
)
from .oracle import count_regions_oracle, sign_vector_feasible
from .projective import (
    IntersectionPoset,
    ProjArrangement,
    build_intersection_poset,
    characteristic_polynomial,
    count_regions_projective,
    max_point_multiplicity,
    restrict_to_flat,
    validate,
)
from .spectrum import (
    SpectrumReport,
    search_projective,
    search_toric,
    verify_bounds_batch,
)
from .toric import (
    Subtorus,
    ToricArrangement,
    count_regions_toric,
    lift_to_cube,
)

__version__ = "0.1.0"

__all__ = [
    "BoundValue",
    "IntersectionPoset",
    "ProjArrangement",
    "Recipe",
    "SpectrumReport",
    "Subtorus",
    "ToricArrangement",
    "bound_homological",
    "bound_mcmullen",
    "bound_multiplicity_product",
    "bound_multiplicity_sum",
    "bound_quadratic",
    "build_intersection_poset",
    "characteristic_polynomial",
    "cone",
    "count_regions_oracle",
    "count_regions_projective",
    "count_regions_toric",
    "double_pencil",
    "first_four_counts",
    "general_position",
    "lift_to_cube",
    "low_counts_3d",
    "martinov_subset",
    "max_point_multiplicity",
    "near_pencil",
    "pencil_with_extras",
    "restrict_to_flat",
    "search_projective",
    "search_toric",
    "sign_vector_feasible",
    "three_extra_planes",
    "toric_construction_a",
    "toric_construction_b",
    "toric_spectrum_contains",
    "two_extra_planes",
    "validate",
    "verify_bounds_batch",
]
