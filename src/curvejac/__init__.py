"""Exact intersection calculus on the product of a curve with its Jacobian.

Rank-3 Neron-Severi coordinates, the top intersection form, positivity-cone
classification, height functionals, and closed-form successive minima with
an exact audit of the two successive-minima inequalities.
"""

from .cones import (
    ConeVerdict,
    NefDecomposition,
    Region,
    SqrtWitness,
    boundary_witness,
    classify,
    nef_decomposition,
    rational_sqrt,
)
from .heights import (
    HeightReport,
    PointClass,
    height_curve,
    height_point,
    standard_polarization,
)
from .lattice import (
    MIN_GENUS,
    NSClass,
    alpha1,
    as_fraction,
    pair_theta_power,
    poincare,
    pullback_theta,
    restrict_to_C_fiber,
    theta2,
    top_intersect,
    zero_class,
)
from .minima import (
    MinimaReport,
    ZhangAudit,
    cone_minimum,
    witness_sequence,
    zhang_audit,
)

__version__ = "0.1.0"

__all__ = [
    "MIN_GENUS",
    "ConeVerdict",
    "HeightReport",
    "MinimaReport",
    "NSClass",
    "NefDecomposition",
    "PointClass",
    "Region",
    "SqrtWitness",
    "ZhangAudit",
    "alpha1",
    "as_fraction",
    "boundary_witness",
    "classify",
    "cone_minimum",
    "height_curve",
    "height_point",
    "nef_decomposition",
    "pair_theta_power",
    "poincare",
    "pullback_theta",
    "rational_sqrt",
    "restrict_to_C_fiber",
    "standard_polarization",
    "theta2",
    "top_intersect",
    "witness_sequence",
    "zero_class",
    "zhang_audit",
]
