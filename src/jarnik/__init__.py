"""Lattice polygons with primitive-vector edges, their limit curves, and
the exact Farey/continued-fraction analysis of their local curvature.

`__all__` is the public API, and the one place where it is decided: each
name in it is reached by a command of `jarnik.cli` or by its selftest.
"""

from .analysis import ConvergenceRecord, convergence_table, expected_curve
from .curvature import CurvatureBounds, limit_curve_radius, trace_lines
from .domains import DomainSpec, ball, diamond, octagon, parse_domain, square
from .limit_curves import LimitCurve, parse_curve
from .number_theory import (
    QuadraticSurd,
    RealSpec,
    farey_neighbor_runs,
    parse_real,
)
from .polygon import LatticePolygon, PrimitiveVector, ScaledPolygon, build_polygon, scale_polygon

__all__ = [
    # regions
    "DomainSpec", "ball", "diamond", "octagon", "parse_domain", "square",
    # polygons
    "LatticePolygon", "PrimitiveVector", "ScaledPolygon", "build_polygon", "scale_polygon",
    # limit curves and convergence
    "LimitCurve", "parse_curve", "ConvergenceRecord", "convergence_table", "expected_curve",
    # exact slopes and their Farey neighbors
    "RealSpec", "QuadraticSurd", "parse_real", "farey_neighbor_runs",
    # local curvature
    "CurvatureBounds", "limit_curve_radius", "trace_lines",
]

__version__ = "0.1.0"
