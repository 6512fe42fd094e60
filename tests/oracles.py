"""Independent second routes to the quantities curvejac computes.

None of these is on a runtime path: the tests compare the package against
them.

* ``MonomialTable`` / ``monomial_table`` - the specification of the top
  intersection form, every degree-(g+1) basis monomial with its value.
* ``naive_top_intersect`` and ``dict_top_intersect`` - two reference engines
  that contract an expanded product against the table.
* ``pair_theta_power_closed`` - the closed form of the theta-power pairing.
* ``grid_oracle`` - a brute-force minimum of the cone-slice objective.
* ``defect``, ``cone_minimum_closed``, ``height_point_closed``,
  ``height_curve_closed`` and ``audit_closed`` - the cone, minimum, height
  and audit kernels as ``Fraction`` formulas on the coefficients.
* ``split_parse_rational`` / ``split_parse_class`` - the command line's
  literal parsers as one match per component after a split at commas.
* ``half_even_decimal`` - the six-place decimal annotation by an int divmod.
* ``reference_intersect`` - the ``intersect`` command's exit status, stdout
  and stderr, from ``split_parse_class`` and ``top_intersect``.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm
from typing import Iterator, Optional

from curvejac.cli import CLIError
from curvejac.cones import classify
from curvejac.lattice import (
    POINCARE_SQUARE_COEFF,
    NSClass,
    RationalLike,
    _check_genus,
    _check_same_genus,
    as_fraction,
    top_intersect,
)


@dataclass(frozen=True)
class MonomialTable:
    """Top intersection numbers alpha1^i . theta2^j . Q^k for i+j+k = g+1."""

    genus: int
    g_factorial: int

    def value(self, i: int, j: int, k: int) -> Fraction:
        """Intersection number of the (i, j, k) basis monomial."""
        return Fraction(self._int_value(i, j, k))

    def _int_value(self, i: int, j: int, k: int) -> int:
        g = self.genus
        if min(i, j, k) < 0 or i + j + k != g + 1:
            raise ValueError(
                f"monomial index ({i},{j},{k}) is not a degree-{g + 1} triple"
            )
        if i >= 2:
            # alpha1 is a fiber of the projection to C: squares to zero.
            return 0
        if i == 1:
            # On {x} x J only theta survives; Q restricts into Pic^0.
            return self.g_factorial if k == 0 else 0
        if k == 2:
            return POINCARE_SQUARE_COEFF * self.g_factorial
        # k = 0: theta2^(g+1) = 0 on a g-dimensional fiber direction.
        # k = 1: Q is numerically trivial against theta powers alone.
        # k >= 3: forced by vanishing of all pullback-class top powers.
        return 0

    def entries(self) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
        """Enumerate all (g+2)(g+3)/2 index triples with their values."""
        top = self.genus + 1
        for i in range(top + 1):
            for j in range(top + 1 - i):
                k = top - i - j
                yield (i, j, k), self.value(i, j, k)


@lru_cache(maxsize=None)
def monomial_table(g: int) -> MonomialTable:
    """Monomial table for genus g, with g! computed once and cached."""
    _check_genus(g)
    return MonomialTable(genus=g, g_factorial=factorial(g))


def naive_top_intersect(classes):
    # Independent oracle: expand the product over all 3^(g+1) basis choices,
    # no truncation, then contract each monomial against the table.
    g = classes[0].genus
    table = monomial_table(g)
    total = Fraction(0)
    for choice in product(range(3), repeat=g + 1):
        coeff = Fraction(1)
        counts = [0, 0, 0]
        for cls, which in zip(classes, choice):
            coeff *= cls.coefficients[which]
            counts[which] += 1
        if coeff:
            total += coeff * table.value(*counts)
    return total


def dict_top_intersect(classes):
    # Reference engine: iterated truncated polynomial multiplication in the
    # three basis symbols, dropping every term whose alpha1 exponent reaches
    # 2 or whose total degree exceeds g+1, then contraction against the
    # table.  O(g) terms per factor, so O(g^2) per call.
    g = classes[0].genus
    top = g + 1
    scale = 1
    factors = []
    for cls in classes:
        den = lcm(cls.a.denominator, cls.b.denominator, cls.c.denominator)
        scale *= den
        factors.append((int(cls.a * den), int(cls.b * den), int(cls.c * den)))
    poly = {(0, 0, 0): 1}
    for xa, xb, xc in factors:
        expanded = {}
        for (i, j, k), coeff in poly.items():
            if i + j + k >= top:
                continue
            if xa and i == 0:
                key = (1, j, k)
                expanded[key] = expanded.get(key, 0) + coeff * xa
            if xb:
                key = (i, j + 1, k)
                expanded[key] = expanded.get(key, 0) + coeff * xb
            if xc:
                key = (i, j, k + 1)
                expanded[key] = expanded.get(key, 0) + coeff * xc
        poly = {key: coeff for key, coeff in expanded.items() if coeff}
    table = monomial_table(g)
    total = sum(
        coeff * table.value(i, j, k)
        for (i, j, k), coeff in poly.items()
        if i + j + k == top
    )
    return Fraction(total) / scale


def pair_theta_power_closed(x: NSClass, y: NSClass) -> Fraction:
    """Closed form g! (x_a y_b + x_b y_a - 2 x_c y_c) of the same pairing.

    Kept as an independent cross-check on ``pair_theta_power``; the two are
    proved equal by the test suite, not assumed.
    """
    _check_same_genus(x, y)
    return monomial_table(x.genus).g_factorial * _pair_closed_r(x, y)


def _pair_closed_r(x: NSClass, y: NSClass) -> Fraction:
    return x.a * y.b + x.b * y.a - 2 * x.c * y.c


def defect(x: NSClass) -> Fraction:
    """The cone defect a b - g c^2 of ``classify``."""
    return x.a * x.b - x.genus * x.c * x.c


def cone_minimum_closed(L: NSClass) -> tuple[Fraction, Fraction, Fraction]:
    """(t*, s*, infimum / g!) of ``cone_minimum`` for a nef L:
    t* = C / (g A), or 0 when A = 0, s* = g t*^2 and B - A s*."""
    g, A, B, C = L.genus, L.a, L.b, L.c
    t_star = C / (g * A) if A else Fraction(0)
    s_star = g * t_star * t_star
    return t_star, s_star, B - A * s_star


def _base_factor(g: int, base_multiple: RationalLike) -> Fraction:
    return as_fraction(base_multiple) ** (g - 1)


def height_point_closed(L: NSClass, x: NSClass, base_multiple: RationalLike = 1) -> Fraction:
    """``height_point`` divided by g!: factor * pair / degree, with the
    closed pairing and factor = base_multiple^(g-1)."""
    return _base_factor(L.genus, base_multiple) * _pair_closed_r(x, L) / x.a


def height_curve_closed(L: NSClass, base_multiple: RationalLike = 1) -> Fraction:
    """``height_curve`` divided by g!: factor * pair(L, L) / (2 deg L)."""
    return _base_factor(L.genus, base_multiple) * _pair_closed_r(L, L) / (2 * L.a)


def audit_closed(L: NSClass) -> tuple:
    """(e1, e2, h, e1 >= h, h >= mean, (e1 + e2)/2 - h) of ``zhang_audit``,
    the values divided by g!."""
    e1 = e2 = cone_minimum_closed(L)[2]
    h = height_curve_closed(L)
    mean = (e1 + e2) / 2
    return e1, e2, h, e1 >= h, h >= mean, mean - h


def grid_oracle(
    L: NSClass, t_lo: RationalLike, t_hi: RationalLike, steps: int
) -> Fraction:
    """Brute-force minimum of the slice objective over a rational t-grid.

    Evaluates g! (B + g A t^2 - 2 t C) at the steps+1 points
    t_lo + i (t_hi - t_lo) / steps and returns the exact minimum.  Serves as
    an independent check on ``cone_minimum``: never below the closed-form
    infimum, and equal to it exactly when t* lies on the grid.  The result
    depends only on the grid point set, so chunked or reordered evaluation
    combines to the same minimum.
    """
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ValueError(f"grid needs an integer steps >= 1, got {steps!r}")
    t_lo = as_fraction(t_lo)
    t_hi = as_fraction(t_hi)
    if t_lo > t_hi:
        raise ValueError(f"empty grid: t_lo = {t_lo} > t_hi = {t_hi}")
    verdict = classify(L)
    if not verdict.is_nef or L.a <= 0:
        raise ValueError(
            f"grid_oracle needs a nef class with positive generic degree, got {L}"
        )

    g = L.genus
    gf = monomial_table(g).g_factorial
    # Put the whole grid over one denominator q; the objective values then
    # share the denominator den * q^2 and compare as plain integers.
    step = (t_hi - t_lo) / steps
    q = lcm(t_lo.denominator, step.denominator)
    p0 = int(t_lo * q)
    dp = int(step * q)
    den = lcm(L.a.denominator, L.b.denominator, L.c.denominator)
    A, B, C = int(L.a * den), int(L.b * den), int(L.c * den)
    gA = g * A
    base = B * q * q
    slope = 2 * q * C
    best: Optional[int] = None
    for i in range(steps + 1):
        p = p0 + i * dp
        val = base + gA * p * p - slope * p
        if best is None or val < best:
            best = val
    assert best is not None
    return Fraction(gf * best, den * q * q)


_SPLIT_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def split_parse_rational(text: str) -> Fraction:
    """``cli.parse_rational`` by a match, a split at '/' and ``int``s."""
    if not _SPLIT_RATIONAL_RE.fullmatch(text):
        raise CLIError(f"malformed rational literal {text!r} (want 'p' or 'p/q')")
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise CLIError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def split_parse_class(text: str, genus: int) -> NSClass:
    """``cli.parse_class`` by a split at commas and one parse per component."""
    parts = text.split(",")
    if len(parts) != 3:
        raise CLIError(f"malformed class literal {text!r} (want 'a,b,c')")
    a, b, c = (split_parse_rational(part) for part in parts)
    return NSClass(genus, a, b, c)


def half_even_decimal(x: Fraction) -> str:
    """Six-place half-even decimal of ``x`` by an exact int ``divmod``."""
    quo, rem = divmod(x.numerator * 10**6, x.denominator)
    double = 2 * rem
    if double > x.denominator or (double == x.denominator and quo % 2 == 1):
        quo += 1
    sign = "-" if quo < 0 else ""
    whole, frac = divmod(abs(quo), 10**6)
    return f"{sign}{whole}.{frac:06d}"


def reference_intersect(genus: int, literals: list, fmt: str) -> tuple:
    """(exit status, stdout, stderr) of ``curvejac intersect -g genus
    --format fmt -- *literals``, for fmt "text" or "json".

    Each literal becomes a class in turn, so the first bad literal or a bad
    genus (found with the first class built) words the diagnostic, and the
    class count is checked last.  Call it with the int/str digit limit
    lifted, as ``main`` runs: literals may pass 4300 digits.
    """
    try:
        classes = [split_parse_class(text, genus) for text in literals]
        value = top_intersect(classes)
    except (CLIError, ValueError) as err:
        return 2, "", f"error: {err}\n"
    text, decimal = str(value), half_even_decimal(value)
    if fmt == "json":
        record = {"genus": genus, "classes": [str(cls) for cls in classes],
                  "value": text, "decimal": decimal}
        return 0, json.dumps(record) + "\n", ""
    return 0, f"{text} (~{decimal})\n", ""
