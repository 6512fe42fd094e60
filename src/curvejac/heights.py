"""Height functionals for the fibration C x J -> J polarized by theta.

A line bundle class L with positive degree on the curve fibers defines a
height on points of the generic fiber; the class of a point's closure pairs
against L through theta powers.  Both the point height and the self-height
of the total space come out as exact rationals.

Heights are taken against theta itself.  Against lam theta, lam > 0, they
scale as h_{lam theta} = lam^(g-1) h_theta: multiply once by lam^(g-1).

Each height has a ``_coeff`` form, its value divided by g!, that does the
work: it runs on the integers of the pairing (``lattice._pair_ratio``) and
the degree, and reduces once, into its ``Fraction``.
"""

from fractions import Fraction
from math import factorial
from typing import Union

from .cones import classify
from .lattice import NSClass, _Frozen, _pair_ratio, restrict_to_C_fiber

__all__ = [
    "PointClass",
    "height_curve",
    "height_curve_coeff",
    "height_point",
    "height_point_coeff",
    "standard_polarization",
]


class PointClass(_Frozen):
    """Numerical class of the closure of a point of the generic fiber.

    Construction validates positive degree (the alpha1 coefficient) and
    pseudo-effectivity, the numerical conditions only: whether a point of the
    generic fiber realizes the class is the caller's concern.
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


def standard_polarization(g: int) -> NSClass:
    """The class (g, 1, 1): theta pulled back along (x, y) -> (x - base) + y,
    so it equals ``pullback_theta(g, 1, 1)``, built here directly.

    Sits on the nef boundary and has fiber degree g; the default polarization
    for heights and audits throughout.
    """
    return NSClass(g, g, 1, 1)


def _height_r(x: NSClass, L: NSClass, k: int) -> Fraction:
    """(x . L . theta2^(g-1)) / (k deg x g!); deg x's denominator divides x's
    share of the pairing's scale."""
    num, scale = _pair_ratio(x, L)
    dn, dd = x.a.as_integer_ratio()
    return Fraction(num, (scale // dd) * k * dn)


def height_point(L: NSClass, point: Union[PointClass, NSClass]) -> Fraction:
    """Height of a point class against L, normalized by the point's degree."""
    return height_point_coeff(L, point) * factorial(L.genus)


def height_point_coeff(L: NSClass, point: Union[PointClass, NSClass]) -> Fraction:
    """Height of a point class against L, normalized by the point's degree,
    divided by g!: (point . L . theta2^(g-1)) / (deg(point) g!), computed
    through the intersection engine.  An ``NSClass`` is validated as a
    ``PointClass``.  Cost: O(1) integer operations at any genus.
    """
    if isinstance(point, NSClass):
        point = PointClass(point)
    return _height_r(point.cls, L, 1)


def height_curve(L: NSClass) -> Fraction:
    """Self-height of the total space: L . L . theta2^(g-1) / (2 deg L)."""
    return height_curve_coeff(L) * factorial(L.genus)


def height_curve_coeff(L: NSClass) -> Fraction:
    """Self-height of the total space divided by g!, L . L . theta2^(g-1) /
    (2 deg L g!).  Cost as ``height_point_coeff``'s: O(1) in g."""
    deg = restrict_to_C_fiber(L)
    if deg <= 0:
        raise ValueError(f"curve height needs positive generic degree, got {deg}")
    return _height_r(L, L, 2)
