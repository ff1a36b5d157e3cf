"""Exact lattice invariants of finite symplectic group actions on K3 surfaces.

The package computes, in exact integer and rational arithmetic, the rank
and discriminant chain attached to a finite group acting symplectically on
a K3 surface (through its quotient-singularity data), the finite quadratic
forms that control glue groups and overlattices, a degree-3 integral
cohomology oracle for small groups, and the classification of rank <= 3
definite even lattices by determinant and discriminant form.
"""

__version__ = "0.1.0"

from .discforms import (
    FiniteQuadraticForm,
    are_isomorphic,
    disc_form,
    element_fingerprint,
    isotropic_subgroups,
    negate,
    orthogonal_sum,
    overlattice_disc,
    p_primary_parts,
)
from .genus import (
    GenusSpec,
    ReducedForm,
    enumerate_reduced,
    genus_class_count,
    is_isometric,
    short_vectors,
)
from .groups import FiniteGroup, h3_bar_resolution, order_census
from .intmat import (
    IntMatrix,
    SmithForm,
    det_exact,
    invariant_factors,
    smith_normal_form,
)
from .lattices import (
    ADEConfig,
    GramLattice,
    RootComponent,
    ade_lattice,
    config_lattice,
    det_sign,
    direct_sum,
    disc_group,
    is_negative_definite,
    is_positive_definite,
    rescale,
    stabilizer_order,
)
from .pipeline import (
    DEFAULT_FIXED_POINT_PROFILE,
    ActionRecord,
    InvariantReport,
    derive_fixed_point_profile,
    discriminant_chain,
    glue_quotient_order,
    rank_from_config,
    rank_from_group,
    records_to_json,
    shipped_records,
    tables_disjoint,
    torus_quotient_tables,
    xiao_consistency,
)
