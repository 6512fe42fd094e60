"""Successive minima of the height over the pseudo-effective cone.

Fix a nef class L = (A, B, C) with A > 0.  A point class of degree a
normalizes to (1, s, t) with pseudo-effectivity reading s >= g t^2, and its
height against L is the linear functional

    g! (B + s A - 2 t C).

Minimizing over the cone slice activates the constraint s = g t^2 and leaves
a one-variable quadratic.  ``cone_minimum`` solves it in closed form (the
test suite cross-checks it against a brute-force grid oracle) and returns
a witness that attains it by construction (proved in the tests),
``witness_sequence`` produces an unbounded-degree family of point classes
attaining the minimum for the standard polarization, and ``zhang_audit``
compares the minima against the curve height, evaluating both
successive-minima inequalities with exact margins.  The audit takes the cone
minimum's value alone and builds no witness.

Both work in ``_coeff`` forms (g!-sized values divided by g!) on the
coefficients' integers and build one ``Fraction`` per returned value.  Its
reduction is a gcd, quadratic in the length of its terms, so they cancel the
common factors they know of first: the ray's cross factors and the margin's
shared denominator (README: cost on huge classes).
"""

from fractions import Fraction
from math import factorial, gcd

from .cones import classify
from .heights import PointClass, height_curve_coeff
from .lattice import NSClass, _Frozen, _integer_ratios, pullback_theta

__all__ = [
    "MinimaReport",
    "ZhangAudit",
    "cone_minimum",
    "cone_minimum_coeff",
    "witness_sequence",
    "zhang_audit",
    "zhang_audit_coeff",
]


class MinimaReport(_Frozen):
    """Closed-form cone minimum with its minimizer and attaining witness.

    ``s_star = g * t_star**2`` always: the constraint is active at the
    optimum (or the minimizer is the apex s = t = 0 when C = 0).  The
    witness attains the infimum by construction (proved in the tests), so
    ``attained_by_witness`` is a class constant, True.
    ``cone_minimum_coeff`` gives ``infimum`` divided by g!.
    """

    __slots__ = ("infimum", "s_star", "t_star", "witness")
    attained_by_witness = True

    def __init__(self, infimum: Fraction, s_star: Fraction, t_star: Fraction,
                 witness: PointClass) -> None:
        object.__setattr__(self, "infimum", infimum)
        object.__setattr__(self, "s_star", s_star)
        object.__setattr__(self, "t_star", t_star)
        object.__setattr__(self, "witness", witness)


class ZhangAudit(_Frozen):
    """Exact evaluation of the two successive-minima inequalities for L.

    The first inequality is e1 >= h, the second is h >= (e1 + e2) / 2;
    ``violation_margin`` is the signed quantity (e1 + e2) / 2 - h, positive
    exactly when the second inequality fails.  Here e2 = e1, so the margin
    is e1 - h and its sign gives both flags.  ``minima_attained`` is a class
    constant, True: e1 and e2 are attained by the cone minimum's witnesses,
    which the audit does not build.  ``zhang_audit_coeff`` gives e1, h_curve
    and the margin divided by g!.
    """

    __slots__ = ("e1", "h_curve", "violation_margin")
    minima_attained = True

    def __init__(self, e1: Fraction, h_curve: Fraction,
                 violation_margin: Fraction) -> None:
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "h_curve", h_curve)
        object.__setattr__(self, "violation_margin", violation_margin)

    @property
    def e2(self) -> Fraction:
        return self.e1

    @property
    def first_inequality_holds(self) -> bool:
        return self.violation_margin >= 0

    @property
    def second_inequality_holds(self) -> bool:
        return self.violation_margin <= 0


def cone_minimum(L: NSClass) -> MinimaReport:
    """Exact infimum of the normalized height of point classes against L."""
    r = cone_minimum_coeff(L)
    return MinimaReport(r.infimum * factorial(L.genus), r.s_star, r.t_star, r.witness)


def _infimum_ray(L: NSClass) -> tuple:
    """(infimum / g!, m, n) for a nef class L: the cone minimum's coefficient
    and the coprime minimizing ray n/m = C/A, (m, n) = (1, 0) when A = 0.
    A class that is not nef gets the cone minimum's diagnostic."""
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
    # B - A s* = B - C n / (g m), which is (g A B - C^2) / (g A) when A > 0.
    infimum = Fraction(bn * cd * g * m - cn * n * bd, bd * cd * g * m)
    return infimum, m, n


def cone_minimum_coeff(L: NSClass) -> MinimaReport:
    """Exact infimum of the normalized height of point classes against L,
    divided by g!.  With A > 0 the active-constraint quadratic bottoms out at
    t* = C / (g A), s* = C^2 / (g A^2), with value g! (g A B - C^2) / (g A).
    The degenerate case A = 0 (nefness then forces C = 0) has constant
    objective g! B.  The witness (g m^2, n^2, m n) on the ray n/m = C/A
    attains the infimum by construction (``tests/test_symbolic.py`` proves
    it), so its height is not recomputed.
    """
    infimum, m, n = _infimum_ray(L)
    g = L.genus
    t_star = Fraction(n, g * m)
    s_star = Fraction(n * n, g * m * m)
    return MinimaReport(infimum=infimum, s_star=s_star, t_star=t_star,
                        witness=PointClass(pullback_theta(g, m, n)))


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
    """Evaluate both successive-minima inequalities for L, exactly."""
    r = zhang_audit_coeff(L)
    gf = factorial(L.genus)
    return ZhangAudit(r.e1 * gf, r.h_curve * gf, r.violation_margin * gf)


def zhang_audit_coeff(L: NSClass) -> ZhangAudit:
    """Evaluate both successive-minima inequalities for L, exactly, with
    e1, the curve height and the margin divided by g! (g! > 0, so the
    inequalities read the same): O(1) integer operations at any genus for
    classes of bounded size.

    e1 and e2 coincide here: the cone minimum bounds every successive
    minimum from below, and the witness family realizes arbitrarily large
    degrees on the minimizing ray, pinning them both.  The audit stores e1,
    h_curve and the margin; it takes the cone minimum's value alone and
    builds no witness.  A class that is not nef gets the cone minimum's
    diagnostic before the curve height's degree check.
    """
    e = _infimum_ray(L)[0]
    h = height_curve_coeff(L)
    (en, ed), (hn, hd) = e.as_integer_ratio(), h.as_integer_ratio()
    # e1 = e2 = mean = e, so e1 - h and the margin mean - h are num / lcm(ed, hd).
    d = gcd(ed, hd)
    num = en * (hd // d) - hn * (ed // d)
    return ZhangAudit(e, h, Fraction(num, ed // d * hd))
