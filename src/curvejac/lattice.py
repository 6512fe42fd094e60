"""Exact rational calculus on the rank-3 Neron-Severi lattice of C x J.

For a smooth projective curve C of genus g >= 2 with Jacobian J, the product
C x J in the minimal-Picard-number case has Neron-Severi rank 3, spanned by

* ``alpha1``, the class of a curve fiber {point} x J,
* ``theta2``, the theta polarization pulled back from J,
* ``poincare`` (written Q below), the universal bundle class.

An ``NSClass`` is a rational coordinate triple (a, b, c) on that basis,
tagged with its genus.  Everything is exact: coefficients live in
``fractions.Fraction`` and no code path touches floating point.  All values
are immutable and all functions pure, so the module is safe to share across
threads without synchronization.

The top intersection form on (g+1)-fold products of basis classes is
concentrated in two monomials,

    alpha1 . theta2^g      =  g!
    Q^2 . theta2^(g-1)     = -2 g!

and every other degree-(g+1) monomial vanishes.  The full table of
monomials is a test-suite specification, not runtime code: the tests
contract expanded products against it and compare with the engine.
``top_intersect`` evaluates an arbitrary product of g+1 classes by a linear
recurrence on the few expansion coefficients that can meet those two
monomials, in O(g) integer operations.  A ``theta2`` factor maps that
recurrence state to itself, so ``pair_theta_power`` runs it on its two
classes alone, in O(1) integer operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Sequence, Union

__all__ = [
    "MIN_GENUS",
    "POINCARE_SQUARE_COEFF",
    "NSClass",
    "RationalLike",
    "alpha1",
    "as_fraction",
    "pair_theta_power",
    "poincare",
    "pullback_theta",
    "restrict_to_C_fiber",
    "theta2",
    "top_intersect",
    "zero_class",
]

MIN_GENUS = 2

RationalLike = Union[int, str, Fraction]

# Self-intersection coefficient of the universal class against theta powers:
# Q^2 . theta2^(g-1) = -2 g!.  The -2 is pinned by vanishing of the (g+1)st
# power of every pullback class (g m^2, n^2, m n), checked symbolically in
# the test suite, and is consistent with the closed pairing form
# (a + g b - 2 c) g!.
POINCARE_SQUARE_COEFF = -2


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational input to ``Fraction``.

    Accepts ints, ``Fraction``s and strings like ``"3/4"``.  Floats are
    refused: a float's binary expansion is almost never the rational the
    caller meant, and this module promises exactness.  A plain ``Fraction``
    is immutable and comes back as it is; a subclass is converted.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "inexact float rejected; pass an int, Fraction, or 'p/q' string"
        )
    return Fraction(value)


def _check_genus(g: int) -> None:
    if not isinstance(g, int) or isinstance(g, bool):
        raise TypeError(f"genus must be an int, got {type(g).__name__}")
    if g < MIN_GENUS:
        raise ValueError(f"genus must be >= {MIN_GENUS}, got {g}")


def _check_same_genus(x: "NSClass", y: "NSClass") -> None:
    if x.genus != y.genus:
        raise ValueError(f"genus mismatch: {x.genus} vs {y.genus}")


class _Frozen:
    """Base of the immutable value classes: each subclass lists its fields in
    ``__slots__`` and sets them in its ``__init__`` by ``object.__setattr__``.
    Equal only to the same class with equal fields; copied and pickled
    through the constructor, which validates again."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of an immutable value")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class NSClass(_Frozen):
    """A divisor class a*alpha1 + b*theta2 + c*Q in genus-g coordinates.

    Construction imposes no positivity: any rational triple is a valid
    lattice point.  Cone membership is a separate question (see the cones
    module).
    """

    __slots__ = ("genus", "a", "b", "c")

    def __init__(self, genus: int, a: RationalLike, b: RationalLike,
                 c: RationalLike) -> None:
        _check_genus(genus)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "a", as_fraction(a))
        object.__setattr__(self, "b", as_fraction(b))
        object.__setattr__(self, "c", as_fraction(c))

    @property
    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c)

    def __add__(self, other: "NSClass") -> "NSClass":
        if not isinstance(other, NSClass):
            return NotImplemented
        _check_same_genus(self, other)
        return NSClass(self.genus, self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "NSClass") -> "NSClass":
        if not isinstance(other, NSClass):
            return NotImplemented
        _check_same_genus(self, other)
        return NSClass(self.genus, self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self) -> "NSClass":
        return NSClass(self.genus, -self.a, -self.b, -self.c)

    def __mul__(self, scalar: RationalLike) -> "NSClass":
        if isinstance(scalar, float):
            raise TypeError("inexact float scalar rejected")
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = Fraction(scalar)
        return NSClass(self.genus, s * self.a, s * self.b, s * self.c)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"

    def __repr__(self) -> str:
        return f"NSClass(genus={self.genus}, a={self.a}, b={self.b}, c={self.c})"


def zero_class(g: int) -> NSClass:
    return NSClass(g, 0, 0, 0)


def alpha1(g: int) -> NSClass:
    """Class of a curve fiber {point} x J."""
    return NSClass(g, 1, 0, 0)


def theta2(g: int) -> NSClass:
    """Theta polarization pulled back from the Jacobian factor."""
    return NSClass(g, 0, 1, 0)


def poincare(g: int) -> NSClass:
    """Universal bundle class Q, normalized along a base point of the curve."""
    return NSClass(g, 0, 0, 1)


def top_intersect(classes: Sequence[NSClass]) -> Fraction:
    """Exact top intersection number of g+1 classes of common genus g.

    Only ``alpha1 . theta2^g`` and ``Q^2 . theta2^(g-1)`` are nonzero, so
    the product is expanded only up to the six coefficients ``s_ik`` of
    ``alpha1^i Q^k`` with i <= 1 and k <= 2; the theta2 exponent is fixed by
    the degree.  Each factor (a, b, c) updates them as
    ``s_ik <- b s_ik + a s_(i-1)k + c s_i(k-1)``, dropping a term whose
    index falls below zero.  ``s_11`` and ``s_12`` feed neither result
    monomial nor any coefficient that does, so only the other four are kept.
    Symmetric and multilinear in its arguments.

    Cost: a fixed handful of integer operations per factor, so O(g) of them
    per call, plus one product with g!.  The integers grow to the summed
    length of the factors' cleared numerators and denominators as handed to
    the recurrence: lowest terms here, but the command line hands over its
    literals as written, unreduced.  For g+1 classes of bounded size the
    digit work is O(g^2).
    """
    classes = list(classes)  # checked by _top_intersect_r before classes[0] is read
    return _top_intersect_r(classes) * factorial(classes[0].genus)


def _top_intersect_r(classes: Sequence[NSClass]) -> Fraction:
    """``top_intersect(classes)`` divided by g!, with its argument checks."""
    if not classes:
        raise ValueError("top_intersect needs g+1 classes, got none")
    g = classes[0].genus
    for cls in classes[1:]:
        _check_same_genus(classes[0], cls)
    return _top_intersect_ints(g, list(map(_integer_ratios, classes)))


def _top_intersect_ints(g: int, factors: list, later: Iterable[tuple] = ()) -> Fraction:
    """``top_intersect`` divided by g! of factors given as ``_recurrence``
    takes them, with the genus check and the g+1 count check.

    ``factors`` is extended in place by ``later``, which is drawn after the
    genus check: a caller that reads its inputs as they are drawn reports a
    bad first input, then a bad genus, then a bad later input.
    """
    _check_genus(g)
    factors.extend(later)
    if len(factors) != g + 1:
        raise ValueError(
            f"top_intersect at genus {g} needs exactly {g + 1} classes, "
            f"got {len(factors)}"
        )
    return Fraction(*_recurrence(factors))


def _integer_ratios(cls: NSClass) -> tuple:
    """The six integers (an, ad, bn, bd, cn, cd) of a class's coefficients."""
    return (*cls.a.as_integer_ratio(), *cls.b.as_integer_ratio(),
            *cls.c.as_integer_ratio())


def _recurrence(factors: Iterable[tuple]) -> tuple:
    """Unreduced (num, scale), scale > 0, with num/scale = ``top_intersect`` / g!.

    Each factor is six integers (an, ad, bn, bd, cn, cd), the class
    (an/ad, bn/bd, cn/cd) with positive denominators, in any terms: the
    recurrence is multilinear, and the caller reduces once, when it builds
    the value it returns.  No argument checks: the callers make them.
    """
    # Clear each factor's denominators so the recurrence runs on plain ints;
    # multilinearity restores the combined scale at the end.
    scale = 1
    s00, s01, s02, s10 = 1, 0, 0, 0
    for an, ad, bn, bd, cn, cd in factors:
        den = lcm(ad, bd, cd)
        scale *= den
        xa = an * (den // ad)
        xb = bn * (den // bd)
        xc = cn * (den // cd)
        s00, s01, s02, s10 = (
            xb * s00,
            xb * s01 + xc * s00,
            xb * s02 + xc * s01,
            xb * s10 + xa * s00,
        )
    return s10 + POINCARE_SQUARE_COEFF * s02, scale


def pair_theta_power(x: NSClass, y: NSClass) -> Fraction:
    """The pairing X . Y . theta2^(g-1), by the ``top_intersect`` recurrence.

    A theta2 factor (0, 1, 0) clears no denominator and maps every
    recurrence coefficient to itself, so the g-1 of them are left out and
    the recurrence runs on x and y alone: O(1) integer operations.
    """
    return _pair_r(x, y) * factorial(x.genus)


def _pair_r(x: NSClass, y: NSClass) -> Fraction:
    """``pair_theta_power(x, y)`` divided by g!."""
    return Fraction(*_pair_ratio(x, y))


def _pair_ratio(x: NSClass, y: NSClass) -> tuple:
    """``_pair_r(x, y)`` as the recurrence's unreduced (num, scale), with the
    genus check: the one route from two classes to their pairing."""
    _check_same_genus(x, y)
    return _recurrence((_integer_ratios(x), _integer_ratios(y)))


def pullback_theta(g: int, m: RationalLike, n: RationalLike) -> NSClass:
    """Pullback of theta along (x, y) -> m(x - base) + n y, as a class.

    Equals (g m^2, n^2, m n), which always sits on the nef boundary:
    a, b >= 0 with ab = g c^2 exactly.
    """
    _check_genus(g)
    (mn, md), (nn, nd) = as_fraction(m).as_integer_ratio(), as_fraction(n).as_integer_ratio()
    return NSClass(g, Fraction(g * mn * mn, md * md), Fraction(nn * nn, nd * nd),
                   Fraction(mn * nn, md * nd))


def restrict_to_C_fiber(x: NSClass) -> Fraction:
    """Degree on a curve fiber C x {y}; only the alpha1 coefficient survives."""
    return x.a
