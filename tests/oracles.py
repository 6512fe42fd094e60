"""Independent second routes to the quantities curvejac computes.

None of these is on a runtime path: the tests compare the package against
them.

* ``MonomialTable`` / ``monomial_table`` - the specification of the top
  intersection form, every degree-(g+1) basis monomial with its value.
* ``naive_top_intersect`` and ``dict_top_intersect`` - two reference engines
  that contract an expanded product against the table.
* ``fold_state`` - the engine's truncated product as one plain fold over the
  factors, the route that its product tree must match integer for integer.
* ``pair_theta_power_closed`` - the closed form of the theta-power pairing.
* ``repeated_intersect_coeff`` - the top intersection of g+1 copies of one
  class, divided by g!, in closed form.
* ``grid_oracle`` - a brute-force minimum of the cone-slice objective.
* ``defect``, ``cone_minimum_closed``, ``height_point_closed``,
  ``height_curve_closed`` and ``audit_closed`` - the cone, minimum, height
  and audit kernels as ``Fraction`` formulas on the coefficients.
* ``split_parse_rational`` / ``split_parse_class`` - ``as_fraction``'s
  string grammar by a match and a split at '/', and the command line's
  class literal reader as one such parse per component after a split at
  commas.
* ``half_even_decimal`` - the six-place decimal annotation by an int divmod.
* ``residue`` and ``factorial_mod`` - a decimal text and g! modulo a prime,
  in time linear in their size, for output too long to convert to an int.
* ``reference_intersect`` - the ``intersect`` command's exit status, stdout
  and stderr, from ``split_parse_class`` and ``top_intersect``.
* ``stdlib_json_line`` - a JSON output line as the standard library's
  encoder writes it; ``bad_record_strings`` - the string values of a record
  that the CLI's JSON writer, which escapes nothing, may not hold.
* ``reference_read_plain`` - the plain-line reader as a first scan for the
  leading run, then a loop over the options, then a scan of the trailing
  run, with its own ``reference_is_value`` and ``reference_typed``; the
  command line's one-pass ``_read_plain`` must give the same result.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm
from types import SimpleNamespace
from typing import Iterator, Optional

from curvejac.cli import _NEGATIVE_NUMBER, _PLAIN, CLIError
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


def fold_state(factors) -> tuple:
    """(s00, s01, s02, s10, scale) of ``lattice._recurrence``: the factors'
    cleared denominators multiplied into ``scale``, and the product of the
    cleared factors ``xb + xa alpha1 + xc Q`` truncated to 1, Q, Q^2 and
    alpha1, folded one factor at a time."""
    scale = 1
    s00, s01, s02, s10 = 1, 0, 0, 0
    for an, ad, bn, bd, cn, cd in factors:
        den = lcm(ad, bd, cd)
        scale *= den
        xa, xb, xc = an * (den // ad), bn * (den // bd), cn * (den // cd)
        s00, s01, s02, s10 = (xb * s00, xb * s01 + xc * s00,
                              xb * s02 + xc * s01, xb * s10 + xa * s00)
    return s00, s01, s02, s10, scale


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


def repeated_intersect_coeff(x: NSClass) -> Fraction:
    """``top_intersect_coeff`` of g+1 copies of x = (a, b, c):
    (g+1) b^(g-1) (ab - g c^2).  Of (b theta2 + a alpha1 + c Q)^(g+1), only
    (g+1) a b^g alpha1 theta2^g and C(g+1, 2) c^2 b^(g-1) Q^2 theta2^(g-1)
    meet the two nonzero monomials."""
    g = x.genus
    return (g + 1) * x.b ** (g - 1) * defect(x)


def cone_minimum_closed(L: NSClass) -> tuple[Fraction, Fraction, Fraction]:
    """(t*, s*, infimum / g!) of ``cone_minimum`` for a nef L:
    t* = C / (g A), or 0 when A = 0, s* = g t*^2 and B - A s*."""
    g, A, B, C = L.genus, L.a, L.b, L.c
    t_star = C / (g * A) if A else Fraction(0)
    s_star = g * t_star * t_star
    return t_star, s_star, B - A * s_star


def height_point_closed(L: NSClass, x: NSClass) -> Fraction:
    """``height_point`` divided by g!: pair / degree, with the closed pairing."""
    return _pair_closed_r(x, L) / x.a


def height_curve_closed(L: NSClass) -> Fraction:
    """``height_curve`` divided by g!: pair(L, L) / (2 deg L)."""
    return _pair_closed_r(L, L) / (2 * L.a)


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
    """``lattice.as_fraction`` of a string by a match, a split at '/' and
    ``int``s."""
    if not _SPLIT_RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational literal {text!r} (want 'p' or 'p/q')")
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
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


def residue(digits: str, p: int) -> int:
    """The integer that ``digits`` (an optional sign, then ASCII digits)
    writes, modulo p.  Horner's rule over chunks of at most 4,000 digits,
    each below the default int/str digit limit."""
    sign = -1 if digits.startswith("-") else 1
    if digits.startswith(("+", "-")):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {digits[:20]!r}")
    r = 0
    for start in range(0, len(digits), 4000):
        chunk = digits[start:start + 4000]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return sign * r % p


def factorial_mod(g: int, p: int) -> int:
    """g! modulo p, one small multiply per factor."""
    r = 1
    for k in range(2, g + 1):
        r = r * k % p
    return r


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


def stdlib_json_line(out: str) -> str:
    """``out``, one JSON line, parsed and written again by ``json.dumps``."""
    return json.dumps(json.loads(out)) + "\n"


# What a record's string value may hold: no character that JSON escapes.
_RECORD_STRING = re.compile(r"[0-9a-z/.,()+-]*")


def bad_record_strings(value) -> list:
    """The string values in the parsed record ``value``, keys left out, that
    hold a character outside ``_RECORD_STRING``."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [s for v in value for s in bad_record_strings(v)]
    return [value] if isinstance(value, str) and not _RECORD_STRING.fullmatch(value) else []


def reference_is_value(token: str) -> bool:
    """Whether ``token`` is not option-like: argparse reads it as a value."""
    return not token.startswith("-") or _NEGATIVE_NUMBER.match(token) is not None


def reference_typed(options: dict, text: str):
    """``text`` through an argument's type and choices; ValueError if refused."""
    value = options.get("type", str)(text)
    if value not in options.get("choices", [value]):
        raise ValueError(text)
    return value


def reference_read_plain(name: str, argv: list) -> Optional[SimpleNamespace]:
    """``cli._read_plain``'s result for ``[name, *argv]``: the full parser's
    namespace for a plain line, else None, read from the same specs."""
    flags, positionals, defaults, required, optional_run = _PLAIN[name]
    found = dict(defaults)
    lead = next((i for i, token in enumerate(argv) if not reference_is_value(token)), len(argv))
    i, given = lead, set()
    try:
        while i < len(argv) and argv[i] != "--" and not reference_is_value(argv[i]):
            flag, eq, value = argv[i].partition("=")
            if not eq and i + 1 < len(argv):
                value = argv[i + 1]
            options = flags.get(flag)
            if (options is None or options["dest"] in given or not value
                    or not reference_is_value(value) or eq and not flag.startswith("--")):
                return None
            given.add(options["dest"])
            found[options["dest"]] = reference_typed(options, value)
            i += 1 if eq else 2
        dashed = argv[i:i + 1] == ["--"]
        run = argv[i + dashed:]
        if "--" in run or not (run if dashed else all(map(reference_is_value, run))):
            return None
        if run and (lead or optional_run):
            return None
        run = run or argv[:lead]
        for dest, options in positionals:
            if run and options.get("nargs") == "+":
                # '+' runs take no type, as argparse returns them.
                found[dest], run = run, []
            elif run:
                found[dest], run = reference_typed(options, run[0]), run[1:]
            elif options.get("nargs") == "?":
                found[dest] = options["default"]
            else:
                return None
    except ValueError:
        return None
    if run or not given >= required:
        return None
    return SimpleNamespace(**found)
