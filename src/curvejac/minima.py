"""Successive minima of the height over the pseudo-effective cone.

Fix a nef class L = (A, B, C) with A > 0.  A point class of degree a
normalizes to (1, s, t) with pseudo-effectivity reading s >= g t^2, and its
height against L is the linear functional

    g! (B + s A - 2 t C).

Minimizing over the cone slice activates the constraint s = g t^2 and leaves
a one-variable quadratic.  ``cone_minimum`` solves it in closed form (the
test suite cross-checks it against a brute-force grid oracle),
``witness_sequence`` produces an unbounded-degree family of point classes
attaining the minimum for the standard polarization, and ``zhang_audit``
compares the minima against the curve height, evaluating both
successive-minima inequalities with exact margins.

The kernels run on the coefficients' integers and build one ``Fraction``
per returned value.  Its reduction is a gcd, quadratic in the length of its
terms, so they cancel the common factors they know of first: the ray's cross
factors and the margin's shared denominator (README: cost on huge classes).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Optional

from .cones import classify
from .heights import PointClass, _height_curve_r, _height_point_r
from .lattice import NSClass, _Frozen, _integer_ratios, pullback_theta

__all__ = [
    "MinimaReport",
    "ZhangAudit",
    "cone_minimum",
    "witness_sequence",
    "zhang_audit",
]


class MinimaReport(_Frozen):
    """Closed-form cone minimum with its minimizer and attainment status.

    ``s_star = g * t_star**2`` always: the constraint is active at the
    optimum (or the minimizer is the apex s = t = 0 when C = 0).
    """

    __slots__ = ("infimum", "s_star", "t_star", "attained_by_witness", "witness")

    def __init__(self, infimum: Fraction, s_star: Fraction, t_star: Fraction,
                 attained_by_witness: bool,
                 witness: Optional[PointClass] = None) -> None:
        object.__setattr__(self, "infimum", infimum)
        object.__setattr__(self, "s_star", s_star)
        object.__setattr__(self, "t_star", t_star)
        object.__setattr__(self, "attained_by_witness", attained_by_witness)
        object.__setattr__(self, "witness", witness)


class ZhangAudit(_Frozen):
    """Exact evaluation of the two successive-minima inequalities for L.

    The first inequality is e1 >= h, the second is h >= (e1 + e2) / 2;
    ``violation_margin`` is the signed quantity (e1 + e2) / 2 - h, positive
    exactly when the second inequality fails.  When ``minima_attained`` is
    False the reported e1, e2 are certified lower bounds only.
    """

    __slots__ = ("e1", "e2", "h_curve", "first_inequality_holds",
                 "second_inequality_holds", "violation_margin", "minima_attained")

    def __init__(self, e1: Fraction, e2: Fraction, h_curve: Fraction,
                 first_inequality_holds: bool, second_inequality_holds: bool,
                 violation_margin: Fraction, minima_attained: bool) -> None:
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "h_curve", h_curve)
        object.__setattr__(self, "first_inequality_holds", first_inequality_holds)
        object.__setattr__(self, "second_inequality_holds", second_inequality_holds)
        object.__setattr__(self, "violation_margin", violation_margin)
        object.__setattr__(self, "minima_attained", minima_attained)


def cone_minimum(L: NSClass) -> MinimaReport:
    """Exact infimum of the normalized height of point classes against L.

    With A > 0 the active-constraint quadratic bottoms out at
    t* = C / (g A), s* = C^2 / (g A^2), with value g! (g A B - C^2) / (g A).
    The degenerate case A = 0 (nefness then forces C = 0) has constant
    objective g! B.  Attainment is certified, not assumed: the witness on
    the minimizing ray is rebuilt and its height recomputed through the
    intersection engine before the flag is set.
    """
    r = _cone_minimum_r(L)
    return MinimaReport(r.infimum * factorial(L.genus), r.s_star, r.t_star,
                        r.attained_by_witness, r.witness)


def _cone_minimum_r(L: NSClass) -> MinimaReport:
    """``cone_minimum(L)`` with the infimum divided by g!, as is the witness
    height that the attainment check compares it with."""
    verdict = classify(L)
    if not verdict.is_nef:
        raise ValueError(
            f"cone_minimum needs a nef class, got {L} with defect {verdict.defect}"
        )
    g = L.genus
    an, ad, bn, bd, cn, cd = _integer_ratios(L)
    # A pullback class (g m^2, n^2, m n) normalizes to t = n / (g m): the ray
    # is n/m = g t* = C/A, in lowest terms by cancelling cross factors.  With
    # A = 0 nefness forces -g C^2 >= 0, so C = 0 and t* = 0.
    k, j = gcd(cn, an), gcd(ad, cd)
    n, m = ((cn // k) * (ad // j), (an // k) * (cd // j)) if an else (0, 1)
    t_star = Fraction(n, g * m)
    s_star = Fraction(n * n, g * m * m)
    # B - A s* = B - C n / (g m), which is (g A B - C^2) / (g A) when A > 0.
    infimum = Fraction(bn * cd * g * m - cn * n * bd, bd * cd * g * m)
    witness = PointClass(pullback_theta(g, m, n))
    attained = _height_point_r(L, witness) == infimum
    return MinimaReport(infimum=infimum, s_star=s_star, t_star=t_star,
                        attained_by_witness=attained,
                        witness=witness if attained else None)


def witness_sequence(g: int, n: int) -> PointClass:
    """The degree-(g^3 n) point class (g^3 n, n, g n) on the minimizing ray.

    The n-th multiple of the pullback class with (m, n) = (g, 1).  Each
    member sits on the nef boundary, and its height against the standard
    polarization equals the cone minimum (g - 1/g) (g-1)! exactly, so the
    infimum is attained at every degree scale.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"witness index must be a positive integer, got {n!r}")
    return PointClass(n * pullback_theta(g, g, 1))


def zhang_audit(L: NSClass) -> ZhangAudit:
    """Evaluate both successive-minima inequalities for L, exactly.

    e1 and e2 coincide here: the cone minimum bounds every successive
    minimum from below, and the witness family realizes arbitrarily large
    degrees on the minimizing ray, pinning them both.  ``minima_attained``
    records whether that certification went through; if not, the values
    stand as lower bounds.
    """
    r = _zhang_audit_r(L)
    gf = factorial(L.genus)
    return ZhangAudit(r.e1 * gf, r.e2 * gf, r.h_curve * gf,
                      r.first_inequality_holds, r.second_inequality_holds,
                      r.violation_margin * gf, r.minima_attained)


def _zhang_audit_r(L: NSClass) -> ZhangAudit:
    """``zhang_audit(L)`` with e1, e2, the curve height and the margin
    divided by g!.  g! > 0, so the inequalities read the same."""
    report = _cone_minimum_r(L)
    h = _height_curve_r(L)
    e = report.infimum
    (en, ed), (hn, hd) = e.as_integer_ratio(), h.as_integer_ratio()
    # e1 = e2 = mean = e, so e1 - h and the margin mean - h are num / lcm(ed, hd).
    d = gcd(ed, hd)
    num = en * (hd // d) - hn * (ed // d)
    return ZhangAudit(e, e, h, num >= 0, num <= 0, Fraction(num, ed // d * hd),
                      report.attained_by_witness)
