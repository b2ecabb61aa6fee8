"""Lattice polygons with primitive-vector edges, their limit curves, and
the exact Farey/continued-fraction analysis of their local curvature."""

from .analysis import (
    ConvergenceRecord,
    convergence_table,
    distance_to_curve,
    expected_curve,
    lemma_check,
)
from .curvature import (
    CurvatureBounds,
    CurvatureSample,
    circumradius_squared,
    curvature_trace,
    limit_curve_radius,
    limsup_liminf_estimate,
    local_radius,
    predicted_radius,
)
from .domains import (
    DomainSpec,
    MomentPair,
    ball,
    contains,
    diamond,
    moment_integrals,
    octagon,
    parse_domain,
    square,
)
from .limit_curves import (
    LimitCurve,
    curve_C,
    curve_C1,
    curve_Cdelta,
    curve_Cp,
    parse_curve,
    reg_inc_beta,
)
from .number_theory import (
    ContinuedFraction,
    FareyNeighbors,
    QuadraticSurd,
    RationalReal,
    RealSpec,
    cf_expand,
    convergents,
    farey_neighbor_walk,
    farey_neighbors,
    farey_neighbors_sided,
    farey_sequence,
    moebius_sieve,
    parse_real,
)
from .polygon import (
    LatticePolygon,
    PrimitiveVector,
    ScaledPolygon,
    build_polygon,
    fundamental_vertex,
    fundamental_vertices,
    primitive_vectors,
    scale_polygon,
)

__version__ = "0.1.0"
