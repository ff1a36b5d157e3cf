"""Exact lattice invariants of finite symplectic group actions on K3 surfaces.

The package computes, in exact integer and rational arithmetic, the rank
and discriminant chain attached to a finite group acting symplectically on
a K3 surface (through its quotient-singularity data), the finite quadratic
forms that control glue groups and overlattices, a degree-3 integral
cohomology oracle for small groups, and the classification of rank <= 3
definite even lattices by determinant and discriminant form.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  Names resolve on first use
# (PEP 562), so a process loads only the submodules it touches: the
# ``tables``, ``invariants`` and ``verify`` commands never compile
# ``discforms``, ``genus`` or ``groups``.
_EXPORTS = {
    "FiniteQuadraticForm": "discforms",
    "are_isomorphic": "discforms",
    "disc_form": "discforms",
    "element_fingerprint": "discforms",
    "isotropic_subgroups": "discforms",
    "negate": "discforms",
    "orthogonal_sum": "discforms",
    "overlattice_disc": "discforms",
    "p_primary_parts": "discforms",
    "GenusSpec": "genus",
    "ReducedForm": "genus",
    "enumerate_reduced": "genus",
    "genus_class_count": "genus",
    "is_isometric": "genus",
    "short_vectors": "genus",
    "FiniteGroup": "groups",
    "h3_bar_resolution": "groups",
    "order_census": "groups",
    "IntMatrix": "intmat",
    "SmithForm": "intmat",
    "det_exact": "intmat",
    "invariant_factors": "intmat",
    "smith_normal_form": "intmat",
    "ADEConfig": "lattices",
    "GramLattice": "lattices",
    "RootComponent": "lattices",
    "ade_lattice": "lattices",
    "config_lattice": "lattices",
    "config_det": "lattices",
    "det_sign": "lattices",
    "direct_sum": "lattices",
    "disc_group": "lattices",
    "is_negative_definite": "lattices",
    "is_positive_definite": "lattices",
    "rescale": "lattices",
    "stabilizer_order": "lattices",
    "DEFAULT_FIXED_POINT_PROFILE": "pipeline",
    "ActionRecord": "pipeline",
    "InvariantReport": "pipeline",
    "derive_fixed_point_profile": "pipeline",
    "discriminant_chain": "pipeline",
    "rank_from_config": "pipeline",
    "rank_from_group": "pipeline",
    "records_to_json": "pipeline",
    "shipped_records": "pipeline",
    "tables_disjoint": "pipeline",
    "torus_quotient_tables": "pipeline",
    "xiao_consistency": "pipeline",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # a submodule name is not in the table, so ``from . import pipeline``
    # falls through to the import system
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
