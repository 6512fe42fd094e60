"""Height functionals for the fibration C x J -> J polarized by theta.

A line bundle class L with positive degree on the curve fibers defines a
height on points of the generic fiber; the class of a point's closure pairs
against L through theta powers.  Both the point height and the self-height
of the total space come out as exact rationals.

Whether a given pseudo-effective class is actually realized by a point of
the generic fiber is the caller's concern; this module validates only the
numerical conditions.

Both heights run on the integers of the pairing (``lattice._pair_ratio``),
the base multiple and the degree, and reduce once, into their ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Union

from .cones import classify
from .lattice import (
    NSClass,
    RationalLike,
    _Frozen,
    _pair_ratio,
    as_fraction,
    pullback_theta,
    restrict_to_C_fiber,
)

__all__ = [
    "HeightReport",
    "PointClass",
    "height_curve",
    "height_point",
    "standard_polarization",
]


class PointClass(_Frozen):
    """Numerical class of the closure of a point of the generic fiber.

    Requires positive degree (the alpha1 coefficient) and pseudo-effectivity;
    both are validated at construction, not assumed.
    """

    __slots__ = ("cls",)

    def __init__(self, cls: NSClass) -> None:
        if cls.a <= 0:
            raise ValueError(f"point class needs positive degree, got a = {cls.a}")
        if not classify(cls).is_psef:
            raise ValueError(f"point class must be pseudo-effective, got {cls}")
        object.__setattr__(self, "cls", cls)

    @property
    def degree(self) -> Fraction:
        return self.cls.a


class HeightReport(_Frozen):
    __slots__ = ("height", "degree")

    def __init__(self, height: Fraction, degree: Fraction) -> None:
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "degree", degree)


def standard_polarization(g: int) -> NSClass:
    """The class (g, 1, 1): theta pulled back along (x, y) -> (x - base) + y.

    Sits on the nef boundary and has fiber degree g; the default polarization
    for heights and audits throughout.
    """
    return pullback_theta(g, 1, 1)


def _height_r(x: NSClass, L: NSClass, base_multiple: RationalLike, k: int) -> Fraction:
    """lam^(g-1) (x . L . theta2^(g-1)) / (k deg x g!) for lam = base_multiple:
    rescaling theta -> lam theta scales the theta^(g-1) factor by lam^(g-1).
    deg x's denominator divides x's share of the pairing's scale."""
    lam = as_fraction(base_multiple)
    if lam <= 0:
        raise ValueError(f"base polarization multiple must be positive, got {lam}")
    num, scale = _pair_ratio(x, L)
    dn, dd = x.a.as_integer_ratio()
    return Fraction(lam.numerator ** (L.genus - 1) * num,
                    lam.denominator ** (L.genus - 1) * (scale // dd) * k * dn)


def height_point(
    L: NSClass,
    point: Union[PointClass, NSClass],
    base_multiple: RationalLike = 1,
) -> HeightReport:
    """Height of a point class against L, normalized by the point's degree.

    height = (point . L . theta2^(g-1)) / deg(point), computed through the
    intersection engine.
    """
    if isinstance(point, NSClass):
        point = PointClass(point)
    height = _height_point_r(L, point, base_multiple) * factorial(L.genus)
    return HeightReport(height=height, degree=point.degree)


def _height_point_r(L: NSClass, point: PointClass,
                    base_multiple: RationalLike = 1) -> Fraction:
    """``height_point``'s height divided by g!."""
    return _height_r(point.cls, L, base_multiple, 1)


def height_curve(L: NSClass, base_multiple: RationalLike = 1) -> Fraction:
    """Self-height of the total space: L . L . theta2^(g-1) / (2 deg L)."""
    return _height_curve_r(L, base_multiple) * factorial(L.genus)


def _height_curve_r(L: NSClass, base_multiple: RationalLike = 1) -> Fraction:
    """``height_curve(L)`` divided by g!."""
    deg = restrict_to_C_fiber(L)
    if deg <= 0:
        raise ValueError(f"curve height needs positive generic degree, got {deg}")
    return _height_r(L, L, base_multiple, 2)
