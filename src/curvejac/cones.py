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

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

from .lattice import NSClass, _Frozen, _integer_ratios, as_fraction, zero_class

__all__ = [
    "ConeVerdict",
    "NefDecomposition",
    "Region",
    "SqrtWitness",
    "boundary_witness",
    "classify",
    "nef_decomposition",
    "rational_sqrt",
]


class Region(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class ConeVerdict(_Frozen):
    """Cone membership report.  is_ample == is_big and is_nef == is_psef."""

    __slots__ = ("region", "is_ample", "is_nef", "is_big", "is_psef", "defect")

    def __init__(self, region: Region, is_ample: bool, is_nef: bool, is_big: bool,
                 is_psef: bool, defect: Fraction) -> None:
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "is_ample", is_ample)
        object.__setattr__(self, "is_nef", is_nef)
        object.__setattr__(self, "is_big", is_big)
        object.__setattr__(self, "is_psef", is_psef)
        object.__setattr__(self, "defect", defect)


def classify(x: NSClass) -> ConeVerdict:
    """Locate a class relative to the nested ample/nef cone pair."""
    an, ad, bn, bd, cn, cd = _integer_ratios(x)
    num = an * bn * cd * cd - x.genus * cn * cn * ad * bd
    nef = an >= 0 and bn >= 0 and num >= 0
    ample = an > 0 and bn > 0 and num > 0
    if ample:
        region = Region.INTERIOR
    elif nef:
        region = Region.BOUNDARY
    else:
        region = Region.OUTSIDE
    return ConeVerdict(region=region, is_ample=ample, is_nef=nef, is_big=ample,
                       is_psef=nef, defect=Fraction(num, ad * bd * cd * cd))


class NefDecomposition(NamedTuple):
    boundary_part: NSClass
    alpha_excess: Fraction

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


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of q, or None if q is not a rational square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class SqrtWitness(_Frozen):
    """Exact stand-in for a possibly irrational real: sign * sqrt(square)."""

    __slots__ = ("square", "sign")

    def __init__(self, square: Fraction, sign: int) -> None:
        square = as_fraction(square)
        if square < 0:
            raise ValueError(f"square must be nonnegative, got {square}")
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or 1, got {sign}")
        if (sign == 0) != (square == 0):
            raise ValueError("sign is 0 exactly when square is 0")
        object.__setattr__(self, "square", square)
        object.__setattr__(self, "sign", sign)

    @property
    def exact_root(self) -> Optional[Fraction]:
        """The represented value as an exact rational, when one exists."""
        root = rational_sqrt(self.square)
        return None if root is None else self.sign * root


def boundary_witness(x: NSClass) -> tuple[SqrtWitness, SqrtWitness]:
    """Recover (m, n) with x = (g m^2, n^2, m n) from a nef-boundary class.

    Every nef-boundary class is a pullback class for real (m, n) with
    m^2 = a/g and n^2 = b.  Signs are normalized so n >= 0 and the
    represented product m n carries the sign of c.  When a/g or b happens to
    be a rational square the corresponding witness also reports its exact
    root.  Raises for classes not on the nef boundary; in particular b = 0
    with c != 0 is rejected, since then ab = 0 < g c^2.
    """
    verdict = classify(x)
    if verdict.region is not Region.BOUNDARY:
        raise ValueError(
            f"boundary_witness needs a nef-boundary class (ab = g c^2, a, b >= 0), "
            f"got {x} in region {verdict.region.value}"
        )
    m_sq = x.a / x.genus
    n_sq = x.b
    if m_sq == 0:
        m_sign = 0
    elif n_sq == 0:
        m_sign = 1  # alpha1 ray: c = 0, pick the positive root
    else:
        m_sign = 1 if x.c > 0 else -1  # n is the positive root, so m carries sign(c)
    n_sign = 1 if n_sq > 0 else 0
    return SqrtWitness(m_sq, m_sign), SqrtWitness(n_sq, n_sign)
