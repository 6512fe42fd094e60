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
``top_intersect_coeff``, the top intersection of g+1 classes divided by g!,
is a linear recurrence on the few expansion coefficients that can meet
those two monomials, in O(g) integer operations, evaluated as a product
tree over the factors.  A ``theta2`` factor maps that recurrence state to
itself, so ``pair_theta_power_coeff`` runs it on its two classes alone, in
O(1) integer operations.
"""

import re
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence, Union

__all__ = [
    "MIN_GENUS",
    "POINCARE_SQUARE_COEFF",
    "NSClass",
    "RationalLike",
    "alpha1",
    "as_fraction",
    "pair_theta_power",
    "pair_theta_power_coeff",
    "poincare",
    "pullback_theta",
    "restrict_to_C_fiber",
    "theta2",
    "top_intersect",
    "top_intersect_coeff",
    "zero_class",
]

MIN_GENUS = 2

RationalLike = Union[int, str, Fraction]

# A rational's text, for the library and the command line: 'p' or 'p/q' in
# ASCII digits (\d alone takes any script's), only the numerator signed.
_NUMERATOR = r"[+-]?\d+"
_RATIONAL_RE = re.compile(rf"({_NUMERATOR})(?:/(\d+))?", re.ASCII)

# Self-intersection coefficient of the universal class against theta powers:
# Q^2 . theta2^(g-1) = -2 g!.  The -2 is pinned by vanishing of the (g+1)st
# power of every pullback class (g m^2, n^2, m n), checked symbolically in
# the test suite, and is consistent with the closed pairing form
# (a + g b - 2 c) g!.
POINCARE_SQUARE_COEFF = -2


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational input to ``Fraction``.

    Accepts ints, ``Fraction``s and strings 'p' or 'p/q' (``_RATIONAL_RE``);
    another string raises ``ValueError`` after one match, linear in its length.
    Floats are refused: a float's binary expansion is almost never the
    rational the caller meant, and this module promises exactness.  A plain
    ``Fraction`` is immutable and comes back as it is; a subclass is converted.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if match is None:
            raise ValueError(f"malformed rational literal {value!r} (want 'p' or 'p/q')")
        num, den = map(int, match.groups("1"))
        if den == 0:
            raise ValueError(f"zero denominator in rational literal {value!r}")
        return Fraction(num, den)
    if isinstance(value, float):
        raise TypeError("inexact float rejected; pass an int, Fraction, or 'p/q' string")
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


def _triple_text(a, b, c) -> str:
    """A class's text '(a,b,c)' from its three components or their texts:
    the one writer of that format, for ``str(NSClass)`` and the CLI."""
    return f"({a},{b},{c})"


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
        return _triple_text(self.a, self.b, self.c)

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
    """Exact top intersection number of g+1 classes of common genus g."""
    classes = list(classes)  # checked by top_intersect_coeff before classes[0] is read
    return top_intersect_coeff(classes) * factorial(classes[0].genus)


def top_intersect_coeff(classes: Sequence[NSClass]) -> Fraction:
    """Top intersection number of g+1 classes of common genus g, divided by g!.

    Only ``alpha1 . theta2^g`` and ``Q^2 . theta2^(g-1)`` are nonzero, so
    the product is expanded only up to the six coefficients ``s_ik`` of
    ``alpha1^i Q^k`` with i <= 1 and k <= 2; the theta2 exponent is fixed by
    the degree.  Each factor (a, b, c) updates them as
    ``s_ik <- b s_ik + a s_(i-1)k + c s_i(k-1)``, dropping a term whose
    index falls below zero.  ``s_11`` and ``s_12`` feed neither result
    monomial nor any coefficient that does, so only the other four are kept.
    Symmetric and multilinear in its arguments.

    Cost: a fixed handful of integer operations per factor, so O(g) of them
    per call; ``top_intersect`` adds one product with g!.  The integers grow
    to the summed length of the factors' cleared numerators and denominators
    as handed to the recurrence: lowest terms here, but the command line
    hands over its literals as written, unreduced.  Runs of more than 64
    factors are multiplied as a balanced product tree, so for g+1 classes
    of bounded size the digit work is that of multiplying two halves of
    about g/2 factors each, at every level: subquadratic under CPython's
    Karatsuba multiplication.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("top_intersect needs g+1 classes, got none")
    g = classes[0].genus
    for cls in classes[1:]:
        _check_same_genus(classes[0], cls)
    return _top_intersect_ints(g, list(map(_integer_ratios, classes)))


def _top_intersect_ints(g: int, factors: Sequence[tuple]) -> Fraction:
    """``top_intersect`` divided by g! of factors given as ``_recurrence``
    takes them, with the genus check and the g+1 count check."""
    _check_genus(g)
    if len(factors) != g + 1:
        raise ValueError(
            f"top_intersect at genus {g} needs exactly {g + 1} classes, "
            f"got {len(factors)}"
        )
    return Fraction(*_recurrence(factors))


# The most factors ``_recurrence`` folds in one loop; a longer run is split
# in two.  Every pairing and every small product is one loop.
_LEAF_FACTORS = 64


def _integer_ratios(cls: NSClass) -> tuple:
    """The six integers (an, ad, bn, bd, cn, cd) of a class's coefficients."""
    return (*cls.a.as_integer_ratio(), *cls.b.as_integer_ratio(),
            *cls.c.as_integer_ratio())


def _recurrence(factors: Sequence[tuple], state: bool = False) -> tuple:
    """Unreduced (num, scale), scale > 0, with num/scale = ``top_intersect`` / g!.

    Each factor is six integers (an, ad, bn, bd, cn, cd), the class
    (an/ad, bn/bd, cn/cd) with positive denominators, in any terms: the
    recurrence is multilinear, and the caller reduces once, when it builds
    the value it returns.  No argument checks: the callers make them.  With
    ``state``, the product's (s00, s01, s02, s10, scale) instead, as the
    tree below merges it.

    The state is the product, truncated as ``top_intersect_coeff`` says, of
    the cleared factors ``xb + xa alpha1 + xc Q``.  That product is
    associative, so past ``_LEAF_FACTORS`` factors it is a balanced tree:
    two halves, each a smaller tree, merged by eight multiplies of their
    states and one of their scales.  At or below it, one loop.  Both give
    the same integers, not only the same ratio.
    """
    if len(factors) > _LEAF_FACTORS:
        mid = len(factors) // 2
        p0, p1, p2, pa, ps = _recurrence(factors[:mid], True)
        q0, q1, q2, qa, qs = _recurrence(factors[mid:], True)
        s00, s01, s02 = p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0
        s10, scale = p0 * qa + pa * q0, ps * qs
    else:
        # Clear each factor's denominators so the recurrence runs on plain
        # ints; multilinearity restores the combined scale at the end.  Each
        # coefficient is updated before any coefficient that it reads.
        scale = 1
        s00, s01, s02, s10 = 1, 0, 0, 0
        for an, ad, bn, bd, cn, cd in factors:
            den = lcm(ad, bd, cd)
            scale *= den
            xb = bn * (den // bd)
            xc = cn * (den // cd)
            s10 = xb * s10 + an * (den // ad) * s00
            s02 = xb * s02 + xc * s01
            s01 = xb * s01 + xc * s00
            s00 = xb * s00
    if state:
        return s00, s01, s02, s10, scale
    return s10 + POINCARE_SQUARE_COEFF * s02, scale


def pair_theta_power(x: NSClass, y: NSClass) -> Fraction:
    """The pairing X . Y . theta2^(g-1)."""
    return pair_theta_power_coeff(x, y) * factorial(x.genus)


def pair_theta_power_coeff(x: NSClass, y: NSClass) -> Fraction:
    """X . Y . theta2^(g-1) / g!, by the ``top_intersect`` recurrence.

    A theta2 factor (0, 1, 0) clears no denominator and maps every
    recurrence coefficient to itself, so the g-1 of them are left out and
    the recurrence runs on x and y alone: O(1) integer operations.
    """
    return Fraction(*_pair_ratio(x, y))


def _pair_ratio(x: NSClass, y: NSClass) -> tuple:
    """``pair_theta_power_coeff`` as the recurrence's unreduced (num, scale),
    with the genus check: the one route from two classes to their pairing."""
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
