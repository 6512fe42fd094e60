"""Positivity cones in the rank-3 lattice.

The four standard cones collapse pairwise on this surface: ample = big
(open condition) and nef = pseudo-effective (its closure), both cut out by

    a >= 0,  b >= 0,  a b >= g c^2

with strict inequalities for the open pair.  ``defect`` always means
a b - g c^2, reported raw so callers can see how far a class sits from the
quadric wall.

``classify`` runs on the coefficients' integers and reduces the defect once,
into the ``Fraction`` it returns.
"""

from enum import Enum
from fractions import Fraction

from .lattice import NSClass, _Frozen, _integer_ratios, zero_class

__all__ = [
    "ConeVerdict",
    "NefDecomposition",
    "Region",
    "classify",
    "nef_decomposition",
]


class Region(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class ConeVerdict(_Frozen):
    """Cone membership report: ``region`` decides all four flags, with
    is_ample == is_big and is_nef == is_psef."""

    __slots__ = ("region", "defect")

    def __init__(self, region: Region, defect: Fraction) -> None:
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "defect", defect)

    @property
    def is_ample(self) -> bool:
        return self.region is Region.INTERIOR

    @property
    def is_nef(self) -> bool:
        return self.region is not Region.OUTSIDE

    is_big, is_psef = is_ample, is_nef


def classify(x: NSClass) -> ConeVerdict:
    """Locate a class relative to the nested ample/nef cone pair."""
    an, ad, bn, bd, cn, cd = _integer_ratios(x)
    num = an * bn * cd * cd - x.genus * cn * cn * ad * bd
    if an > 0 and bn > 0 and num > 0:
        region = Region.INTERIOR
    elif an >= 0 and bn >= 0 and num >= 0:
        region = Region.BOUNDARY
    else:
        region = Region.OUTSIDE
    return ConeVerdict(region, Fraction(num, ad * bd * cd * cd))


class NefDecomposition(_Frozen):
    """A nef class as ``boundary_part`` + ``alpha_excess`` * alpha1."""

    __slots__ = ("boundary_part", "alpha_excess")

    def __init__(self, boundary_part: NSClass, alpha_excess: Fraction) -> None:
        object.__setattr__(self, "boundary_part", boundary_part)
        object.__setattr__(self, "alpha_excess", alpha_excess)

    @property
    def degenerate(self) -> bool:
        """True on the b = 0 branch, where the boundary part collapses to 0."""
        return self.boundary_part.is_zero


def nef_decomposition(x: NSClass) -> NefDecomposition:
    """Split a nef class as (class on the quadric wall) + excess * alpha1.

    For b > 0 the wall part is (g c^2 / b, b, c) and the excess is
    a - g c^2 / b >= 0.  Nefness with b = 0 forces c = 0, so such a class is
    a multiple of alpha1; that branch returns a zero boundary part and is
    flagged degenerate rather than raising.
    """
    verdict = classify(x)
    if not verdict.is_nef:
        raise ValueError(
            f"nef_decomposition needs a nef class, got {x} with defect {verdict.defect}"
        )
    if x.b == 0:
        return NefDecomposition(zero_class(x.genus), x.a)
    wall_a = x.genus * x.c * x.c / x.b
    wall = NSClass(x.genus, wall_a, x.b, x.c)
    return NefDecomposition(wall, x.a - wall_a)
