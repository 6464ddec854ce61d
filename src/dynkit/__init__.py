"""dynkit: set-oriented computation for discrete-time dynamical systems.

Chain recurrent sets, chain components, weak attractors and basins,
pseudo-orbits and shadowing certificates, invariant manifolds and
homoclinic points, at desk scale on concrete maps.
"""

__version__ = "0.1.0"

from .phase_space import Domain, Grid, BoxSet
from .system import MapSpec, make_map, polynomial_map
from .chain_graph import (
    build_graph, chain_recurrent_boxes, chain_components,
    is_chain_transitive, nonwandering_probe,
    strong_chain_search, ConstantEps, RadialEps,
)
from .conley import (
    find_attractor_blocks, attractor_from_block, basin,
    verify_conley_decomposition, attractor_invariance_check,
    escape_fraction,
)
from .shadowing import (
    random_pseudo_orbit, splice_pseudo_orbit, shadow_search,
    linear_stable_check, shadowing_profile,
)
from .manifolds import (
    find_periodic_points, grow_manifold, homoclinic_points,
    is_recurrent, accumulation_check,
)

__all__ = [
    "Domain", "Grid", "BoxSet", "MapSpec", "make_map", "polynomial_map",
    "build_graph", "chain_recurrent_boxes", "chain_components",
    "is_chain_transitive", "nonwandering_probe",
    "strong_chain_search", "ConstantEps", "RadialEps",
    "find_attractor_blocks", "attractor_from_block", "basin",
    "verify_conley_decomposition", "attractor_invariance_check",
    "escape_fraction",
    "random_pseudo_orbit", "splice_pseudo_orbit", "shadow_search",
    "linear_stable_check", "shadowing_profile",
    "find_periodic_points", "grow_manifold", "homoclinic_points",
    "is_recurrent", "accumulation_check",
]
