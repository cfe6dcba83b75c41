"""orbicount: exact bounded-height point counts on two vector-group
compactifications, with local height integrals and leading-constant
verification against the counting asymptotic c/(a (b-1)!) B^a (log B)^(b-1).
"""

from .arith import INFINITY, factorize, primitive_coords, valuation
from .orbifold import (
    OrbifoldModel,
    PlaceSet,
    a_invariant,
    b_invariant,
    blowup_p2,
    critical_set,
    projective_space,
)
from .geometry import (
    ProjectivePoint,
    global_height,
    is_campana,
    is_darmon,
    local_height,
    multiplicities,
    parse_point,
)
from .enumeration import count_points, count_series
from .constants import leading_constant, riemann_zeta
from .fitting import fit_counts, zeta_partial_sum

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "factorize",
    "primitive_coords",
    "valuation",
    "OrbifoldModel",
    "PlaceSet",
    "a_invariant",
    "b_invariant",
    "blowup_p2",
    "critical_set",
    "projective_space",
    "ProjectivePoint",
    "global_height",
    "is_campana",
    "is_darmon",
    "local_height",
    "multiplicities",
    "parse_point",
    "count_points",
    "count_series",
    "leading_constant",
    "riemann_zeta",
    "fit_counts",
    "zeta_partial_sum",
    "__version__",
]
