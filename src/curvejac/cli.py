"""Command-line surface for the exact lattice calculator.

Subcommands mirror the library: classify, pair, intersect, pullback,
decompose, height, curve-height, minima, witness, audit, table.  Each is one
compute function in ``_COMMANDS`` that turns parsed arguments into a record
(the JSON output) and its text lines.  Each rule is stated on the function
that holds it:

- ``main`` runs one command, picks the format and prints; exit statuses.
- ``_read_plain`` reads a plain command line without argparse;
  ``build_parser``'s parser reads every other line.
- The lattice's ``as_fraction`` reads every rational 'p' or 'p/q';
  ``_ascii_int`` reads integer arguments as its numerators.
- ``_read_classes`` is the one reader of class literals 'a,b,c';
  ``_factors`` and ``_class_texts`` give what it read as the recurrence's
  integers and as lowest-terms class texts.
- ``_Scale`` is the one writer of g!-sized values, g! * r for the rationals r
  of the library's ``_coeff`` functions; no compute function handles g!.
- ``_json_text`` writes a record as ``json.dumps`` would; the CLI imports no
  json.
- The lattice's ``_triple_text`` writes every class '(a,b,c)';
  ``_ratio_text`` and ``_exact_text`` write every rational "p/q" (p when
  q = 1).

Identical invocations produce identical bytes.
"""

import os
import re
import sys
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero,
                     Inexact, InvalidOperation, Rounded)
from fractions import Fraction
from functools import cache
from math import gcd, lcm, perm
from types import SimpleNamespace
from typing import Optional, Sequence

from .cones import Region, classify, nef_decomposition
from .heights import PointClass, height_curve_coeff, height_point_coeff, standard_polarization
from .lattice import (_NUMERATOR, MIN_GENUS, NSClass, _check_genus, _top_intersect_ints,
                      _triple_text, as_fraction, pair_theta_power_coeff, pullback_theta)
from .minima import cone_minimum_coeff, witness_sequence, zhang_audit_coeff

__all__ = ["main"]

DEFAULT_TABLE_RANGE = (2, 12)

# An integer argument: a rational's numerator (``lattice._NUMERATOR``).
_INTEGER_RE = re.compile(_NUMERATOR, re.ASCII)
# A class literal's shape: three parts of ASCII digits, signs and slashes.
# ``_read_classes`` checks the rest of a part's grammar without a regex.
_BARE_CLASS = ",".join(["[0-9+/-]+"] * 3)
# A value, not an option, to argparse and ``_read_plain``: no option starts with a digit.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class CLIError(Exception):
    """User-facing error: one-line diagnostic, nonzero exit."""


@cache
def _run_re() -> re.Pattern:
    """Class literals joined by newlines, each of ``_BARE_CLASS``'s shape;
    compiled on first use, as many command lines read no literal."""
    return re.compile(rf"{_BARE_CLASS}(?:\n{_BARE_CLASS})*")


def _read_classes(texts: list) -> tuple:
    """The one reader of class literals 'a,b,c': (parts, keys, ints) of
    the run ``texts``, or the first bad literal's diagnostic.

    ``parts`` lists the literals' parts in order, three per literal.
    ``keys`` is ``parts`` itself, or the set of part texts when the run has
    more than one literal and at least half of its parts repeat an earlier
    one.  ``ints`` holds each key's numerator and denominator as written
    (unreduced, an absent '/q' read as 1), in the order of ``keys``.

    A good run takes no per-rational regex.  One match checks the shape of
    the literals joined by newlines, and the count of parts, three per
    literal, refuses a literal that itself holds a newline.  No '/+' or '/-'
    refuses a signed denominator, and two integers per key a second '/'.
    On the shape's characters ``int`` takes exactly '[+-]?[0-9]+', so it
    refuses the rest: an empty integer or a misplaced sign.  Time linear in
    the run's length on top of one ``int`` per integer of ``keys``
    (quadratic in its digits on Python 3.10 and 3.11).
    """
    run = "\n".join(texts)
    parts = run.replace("\n", ",").split(",")
    # Where fewer than half the parts repeat, looking each part up costs
    # more than the parses it saves; a lone literal has too few to gain.
    keys = set(parts) if len(texts) > 1 else parts
    if 2 * len(keys) > len(parts):
        keys = parts
    # 'p' is read as 'p/1', so the integers alternate numerator, denominator.
    tokens = "/".join([p if "/" in p else p + "/1" for p in keys]).split("/")
    if (_run_re().fullmatch(run) and "/+" not in run and "/-" not in run
            and len(parts) == 3 * len(texts) and len(tokens) == 2 * len(keys)):
        try:
            ints = list(map(int, tokens))
            if all(ints[1::2]):  # else a zero denominator
                return parts, keys, ints
        except ValueError:  # an empty integer, a misplaced sign, or past the digit limit
            pass
    # Only to word the diagnostic, as a split into components does: the
    # first bad literal's wrong comma count, else its first bad component's
    # message.  Some literal is bad, so this raises.
    for text in texts:
        if text.count(",") != 2:
            raise CLIError(f"malformed class literal {text!r} (want 'a,b,c')")
        for part in text.split(","):
            as_fraction(part)


def _factors(parts: list, keys, ints: list) -> list:
    """The six integers (an, ad, bn, bd, cn, cd) of each literal of a run
    that ``_read_classes`` read, as written: in run order, or each part's
    pair looked up by its text when ``keys`` is the set of texts."""
    if len(keys) == len(parts):
        return list(zip(*[iter(ints)] * 6))
    it = iter(ints)
    pairs = map(dict(zip(keys, zip(it, it))).__getitem__, parts)
    return [a + b + c for a, b, c in zip(*[pairs] * 3)]


def _class_integers(texts: list) -> list:
    """The six integers of each class literal of ``texts``, as written, or
    the first bad literal's diagnostic (``_read_classes``)."""
    return _factors(*_read_classes(texts))


def parse_class(text: str, genus: int) -> NSClass:
    """The class of a literal 'a,b,c' from ``_class_integers``' integers, or
    its diagnostic; each component is reduced by its gcd."""
    [(an, ad, bn, bd, cn, cd)] = _class_integers([text])
    return NSClass(genus, Fraction(an, ad), Fraction(bn, bd), Fraction(cn, cd))


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, from the integers."""
    d = gcd(num, den)
    return str(num // d) if den == d else f"{num // d}/{den // d}"


def _class_texts(parts: list, keys, ints: list) -> list:
    """``str(NSClass)`` of each literal of a run that ``_read_classes``
    read, in lowest terms: one ``_ratio_text`` per key, in run order, or
    looked up by its text when ``keys`` is the set of texts."""
    it = iter(ints)
    if len(keys) == len(parts):
        return [_triple_text(_ratio_text(an, ad), _ratio_text(bn, bd), _ratio_text(cn, cd))
                for an, ad, bn, bd, cn, cd in zip(*[it] * 6)]
    text = dict(zip(keys, [_ratio_text(num, den) for num, den in zip(it, it)]))
    return [_triple_text(text[a], text[b], text[c]) for a, b, c in zip(*[iter(parts)] * 3)]


def _ascii_int(text: str) -> int:
    # int() alone would also take '1_0', ' 3' and other scripts' digits.
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(text)  # argparse words it as "invalid int value"
    return int(text)


_ascii_int.__name__ = "int"  # argparse names the type in its diagnostic


# Every step of the g! route and of ``decimal_str`` is exact at any length;
# one that is not raises instead of rounding.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation, DivisionByZero])


def _decimal_product(lo: int, hi: int) -> Decimal:
    """(lo + 1)(lo + 2)...hi as an exact ``Decimal``; hi! when lo = 0.

    A product tree: each leaf, of at most ~1000 bits, is converted from one
    int, and libmpdec multiplies the large halves in subquadratic time, so
    no conversion grows with the product.  Each leaf is normalized: its
    trailing zeros go into the exponent, so every multiply above it works on
    a shorter coefficient, and the product has exponent >= 0.
    """
    if (hi - lo) * hi.bit_length() <= 1000:
        return _EXACT.normalize(Decimal(perm(hi, hi - lo)))
    mid = (lo + hi) // 2
    return _EXACT.multiply(_decimal_product(lo, mid), _decimal_product(mid, hi))


def _exact_text(num: Decimal, den: Decimal) -> str:
    """``str(Fraction(num, den))`` of a pair in lowest terms."""
    return str(num) if den == 1 else f"{num}/{den}"


def decimal_str(num: Decimal, den: Decimal) -> str:
    """Six-place decimal, rounded half-even, of num/den for integral
    ``Decimal``s num and den > 0.

    Display only.  Worked out on the decimal digits of num, in time linear
    in their number, so nothing is converted from binary or parsed again.
    """
    quo, rem = _EXACT.divmod(_EXACT.scaleb(num.copy_abs(), 6), den)
    double = _EXACT.multiply(rem, 2)
    if double > den or (double == den and _EXACT.remainder(quo, 2)):
        quo = _EXACT.add(quo, 1)
    digits = str(quo).rjust(7, "0")
    sign = "-" if num < 0 and digits.strip("0") else ""
    return f"{sign}{digits[:-6]}.{digits[-6:]}"


class _Scale:
    """The one writer of a command's g!-sized values, g! * r for small
    rationals r; ``main`` hands one to each compute function.  ``pair``
    holds the whole route: g! is built in decimal at the first genus asked
    for, after the kernel has run, so a refused input gets the kernel's
    diagnostic at any genus, and carried up one genus at a time after that,
    as ``table``'s rows ask.  ``gf`` keeps g!'s trailing zeros in its
    exponent; its readers (the carry's multiply, ``remainder`` and
    ``divide_int``) are exact on it, and ``divide_int`` returns exponent 0,
    so no printed value shows an exponent.  The values of one record share
    one remainder and one division of g! (``pair``'s q), so an audit row
    reads g!'s digits five times, not nine.  Both the exact text and the
    annotation are formatted from the pair (``printed``), so no g!-sized int
    is converted."""

    genus = gf = None
    q = 0  # the common denominator whose division of g! is kept, 0 for none

    def pair(self, g: int, r: Fraction, q: int = 0) -> tuple:
        """g! * r as (numerator, denominator) in lowest terms, two exact
        integral ``Decimal``s.

        A genus that ``math.factorial`` would refuse gets its diagnostic
        before any work on g!.  For r = p/b in lowest terms and ``q`` a
        multiple of b (b itself when 0), d = gcd(g!, q) is gcd(g! mod q, q),
        so no binary g! is needed.  d and g!/d are kept for the genus: the
        values of a record, given their common multiple, share one remainder
        and one division of g!.  As b divides q, k = gcd(d, b) is
        gcd(g!, b), so g! r in lowest terms has numerator (g!/d) (d/k) p,
        one more pass over g!'s digits, and denominator b/k, divided out of
        q in decimal, so no denominator is converted twice.
        """
        if self.genus != g:
            if self.genus == g - 1:
                self.genus, self.gf = g, _EXACT.multiply(self.gf, g)
            elif g > sys.maxsize:
                raise OverflowError(f"factorial() argument should not exceed {sys.maxsize}")
            else:
                self.genus, self.gf = g, _decimal_product(0, g)
            self.q = 0  # a kept division is of the old g!
        b = r.denominator
        q = q or b
        if q != self.q:
            q_dec = Decimal(q)
            d = gcd(int(_EXACT.remainder(self.gf, q_dec)), q)
            self.q, self.q_dec, self.d = q, q_dec, d
            self.part = _EXACT.divide_int(self.gf, d)
        k = gcd(self.d, b)
        return (_EXACT.multiply(self.part, self.d // k * r.numerator),
                _EXACT.divide_int(self.q_dec, q // b * k))

    def printed(self, g: int, r: Fraction, q: int = 0) -> tuple:
        """The exact text and the six-place annotation of g! * r, with
        ``pair``'s q.  An integral value's annotation is its text plus
        '.000000', so its digits are formatted once."""
        num, den = self.pair(g, r, q)
        text = _exact_text(num, den)
        return text, text + ".000000" if den == 1 else decimal_str(num, den)


@cache
def _parser_class() -> type:
    """``_Parser``, argparse's parser with the CLI's diagnostics; defined,
    and argparse imported, on first use, so a plain line loads neither."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            # argparse takes only '-<digits>' and '-<decimal>' for negative
            # numbers and any other leading '-' for an option, which would
            # swallow '-1/2' and '-1,1,0'.
            self._negative_number_matcher = _NEGATIVE_NUMBER

        # argparse's default error handler prints usage plus the message;
        # fold everything into the single-line diagnostic channel instead.
        # argparse echoes some tokens as they are ("unrecognized arguments: 3\n").
        def error(self, message: str):  # noqa: D102
            raise CLIError(message.replace("\n", "\\n"))

        # After -h: a reader of the help that has gone is met in ``main``.
        def exit(self, status: int = 0, message: Optional[str] = None):  # noqa: D102
            sys.stdout.flush()
            super().exit(status, message)

    return _Parser


def _json_text(value) -> str:
    """``json.dumps(value)``'s exact text, default settings, for the types a
    record holds: ``dict`` with ``str`` keys, ``list``, ``str``, ``bool`` and
    ``int``; any other type raises ``TypeError``.

    No string is escaped, by design.  Every key is a literal of this
    module, and every string value is built here from ASCII digits, signs,
    '/', '.', ',', '(' and ')', or is a ``Region`` value; no record holds
    user text verbatim, so no string holds a quote, a backslash, a control
    or a non-ASCII character.  A g!-sized value is copied once, not scanned.
    """
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):  # before int: bool is an int
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join([f'"{k}": {_json_text(v)}' for k, v in value.items()]) + "}"
    if isinstance(value, list):
        return "[" + ", ".join([_json_text(v) for v in value]) + "]"
    raise TypeError(f"no JSON text for a record value of type {type(value).__name__}")


def _point_texts(point: PointClass) -> tuple:
    """The text of a point's class and of its degree, the class's first
    component: each component is converted to decimal once."""
    a, b, c = map(str, point.cls.coefficients)
    return _triple_text(a, b, c), a


def _bundle_from(args: SimpleNamespace) -> NSClass:
    if args.bundle is None:
        return standard_polarization(args.genus)
    return parse_class(args.bundle, args.genus)


def _class_from_coeffs(args: SimpleNamespace) -> NSClass:
    # Each coefficient is read before NSClass checks the genus.
    return NSClass(args.genus, *map(as_fraction, (args.a, args.b, args.c)))


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_GENUS = _arg("-g", "--genus", dest="genus", type=_ascii_int, required=True,
              help="curve genus (>= 2)")
_COEFFS = [
    _arg(f"-{x}", f"--{x}", dest=x, required=True, metavar="RAT",
         help=f"{role} coefficient")
    for x, role in (("a", "alpha1"), ("b", "theta2"), ("c", "universal-class"))
]
_BUNDLE = _arg("-L", "--bundle", dest="bundle", metavar="CLASS", default=None,
               help="polarizing class 'a,b,c' (default: standard polarization)")
_FORMAT = _arg("--format", dest="format", choices=("text", "csv", "json"), default="text",
               help="output format (csv is table-only)")

# name -> (help, compute, arguments before --format), filled in --help order
# by ``_command``.  Each compute maps parsed arguments to (record, text lines),
# writing every g!-sized value through the ``_Scale`` it is handed.
_COMMANDS: dict = {}
# name -> what ``_read_plain`` reads a line of that command with: flag ->
# options, the positionals, the namespace's defaults, the required flags'
# dests and whether a positional is optional; derived from the command's
# entry of ``_COMMANDS`` by ``_command``.
_PLAIN: dict = {}


def _command(name: str, help_text: str, *arguments: tuple):
    def register(compute):
        _COMMANDS[name] = (help_text, compute, arguments)
        flags = {flag: o for names, o in [*arguments, _FORMAT] if "dest" in o for flag in names}
        positionals = [(names[0], o) for names, o in arguments if "dest" not in o]
        defaults = {o["dest"]: o.get("default") for o in flags.values()}
        defaults.update(compute=compute, command=name)
        required = {o["dest"] for o in flags.values() if o.get("required")}
        optional_run = any(o.get("nargs") == "?" for _, o in positionals)
        _PLAIN[name] = (flags, positionals, defaults, required, optional_run)
        return compute

    return register


@_command("classify", "locate a class in the positivity cones", _GENUS, *_COEFFS)
def _classify(args: SimpleNamespace, scale: _Scale) -> tuple:
    cls = _class_from_coeffs(args)
    verdict = classify(cls)
    record = {
        "genus": cls.genus,
        "class": str(cls),
        "region": verdict.region.value,
        "apex": cls.is_zero,
        "is_ample": verdict.is_ample,
        "is_nef": verdict.is_nef,
        "is_big": verdict.is_big,
        "is_psef": verdict.is_psef,
        "defect": str(verdict.defect),
    }
    if verdict.region is Region.INTERIOR:
        line = f"interior (ample and big), defect {record['defect']}"
    elif verdict.region is Region.BOUNDARY:
        line = "boundary (apex)" if cls.is_zero else (
            f"boundary (nef, not ample), defect {record['defect']}"
        )
    else:
        line = f"outside (defect {record['defect']})"
    return record, [line]


def _value(scale: _Scale, genus: int, r: Fraction, **inputs) -> tuple:
    """Record and line of a command whose result is one rational, g! * r."""
    record = {"genus": genus, **inputs}
    record["value"], record["decimal"] = scale.printed(genus, r)
    return record, ["{value} (~{decimal})".format_map(record)]


@_command("pair", "pair two classes against theta powers", _GENUS,
          _arg("x", metavar="CLASS", help="first class 'a,b,c'"),
          _arg("y", metavar="CLASS", help="second class 'a,b,c'"))
def _pair(args: SimpleNamespace, scale: _Scale) -> tuple:
    x, y = parse_class(args.x, args.genus), parse_class(args.y, args.genus)
    return _value(scale, args.genus, pair_theta_power_coeff(x, y), x=str(x), y=str(y))


@_command("intersect", "top intersection of g+1 classes", _GENUS,
          _arg("classes", nargs="+", metavar="CLASS", help="class 'a,b,c'"))
def _intersect(args: SimpleNamespace, scale: _Scale) -> tuple:
    # The literals go straight to the recurrence's integers, all in one
    # pass.  Of a bad first literal, a bad genus and a bad later literal,
    # the first in that order is reported.
    try:
        run = _read_classes(args.classes)
    except (CLIError, ValueError):
        _read_classes(args.classes[:1])
        _check_genus(args.genus)
        raise
    r = _top_intersect_ints(args.genus, _factors(*run))
    # Only the JSON record shows the inputs; text output skips rendering them.
    inputs = {"classes": _class_texts(*run)} if args.format == "json" else {}
    return _value(scale, args.genus, r, **inputs)


@_command("pullback", "theta pullback class for rational (m, n)", _GENUS,
          _arg("-m", "--m", dest="m", required=True, metavar="RAT"),
          _arg("-n", "--n", dest="n", required=True, metavar="RAT"))
def _pullback(args: SimpleNamespace, scale: _Scale) -> tuple:
    m, n = as_fraction(args.m), as_fraction(args.n)
    cls = pullback_theta(args.genus, m, n)
    record = {
        "genus": args.genus,
        "m": str(m),
        "n": str(n),
        "class": str(cls),
        **{key: str(x) for key, x in zip("abc", cls.coefficients)},
    }
    return record, [record["class"]]


@_command("decompose", "split a nef class off the boundary wall", _GENUS, *_COEFFS)
def _decompose(args: SimpleNamespace, scale: _Scale) -> tuple:
    cls = _class_from_coeffs(args)
    part = nef_decomposition(cls)
    record = {
        "genus": cls.genus,
        "class": str(cls),
        "boundary_part": str(part.boundary_part),
        "alpha_excess": str(part.alpha_excess),
        "degenerate": part.degenerate,
    }
    prefix = "degenerate (b = 0): " if part.degenerate else ""
    line = "boundary part {boundary_part}, alpha1 excess {alpha_excess}"
    return record, [prefix + line.format_map(record)]


@_command("height", "height of a point class against a bundle", _GENUS, _BUNDLE,
          _arg("point", metavar="CLASS", help="point class 'a,b,c'"))
def _height(args: SimpleNamespace, scale: _Scale) -> tuple:
    L = _bundle_from(args)
    point = PointClass(parse_class(args.point, args.genus))
    height, height_dec = scale.printed(args.genus, height_point_coeff(L, point))
    point_text, degree = _point_texts(point)
    record = {
        "genus": args.genus,
        "bundle": str(L),
        "point": point_text,
        "height": height,
        "height_dec": height_dec,
        "degree": degree,
    }
    line = "height {height} (~{height_dec}), degree {degree}".format_map(record)
    return record, [line]


@_command("curve-height", "self-height of the total space", _GENUS, _BUNDLE)
def _curve_height(args: SimpleNamespace, scale: _Scale) -> tuple:
    L = _bundle_from(args)
    record = {"genus": args.genus, "bundle": str(L)}
    record["height"], record["height_dec"] = scale.printed(args.genus, height_curve_coeff(L))
    return record, ["curve height {height} (~{height_dec})".format_map(record)]


@_command("minima", "closed-form cone minimum and minimizer", _GENUS, _BUNDLE)
def _minima(args: SimpleNamespace, scale: _Scale) -> tuple:
    L = _bundle_from(args)
    report = cone_minimum_coeff(L)
    infimum, infimum_dec = scale.printed(args.genus, report.infimum)
    witness, degree = _point_texts(report.witness)
    record = {
        "genus": args.genus,
        "bundle": str(L),
        "infimum": infimum,
        "infimum_dec": infimum_dec,
        "s_star": str(report.s_star),
        "t_star": str(report.t_star),
        "attained_by_witness": report.attained_by_witness,
        "witness": witness,
    }
    return record, [
        f"infimum {record['infimum']} (~{record['infimum_dec']})",
        f"t_star {record['t_star']}, s_star {record['s_star']}",
        f"attained by witness {record['witness']}, degree {degree}",
    ]


@_command("witness", "n-th attaining point class for the minimum", _GENUS,
          _arg("-n", "--index", dest="index", type=_ascii_int, required=True,
               help="witness index (>= 1)"))
def _witness(args: SimpleNamespace, scale: _Scale) -> tuple:
    point = witness_sequence(args.genus, args.index)
    r = height_point_coeff(standard_polarization(args.genus), point)
    point_text, degree = _point_texts(point)
    record = {
        "genus": args.genus,
        "n": args.index,
        "class": point_text,
        "degree": degree,
        "height": _exact_text(*scale.pair(args.genus, r)),
    }
    return record, ["{class}, degree {degree}, height {height}".format_map(record)]


def _audit_record(scale: _Scale, L: NSClass) -> dict:
    """Values of the audit of L (``zhang_audit_coeff``).

    ``ZhangAudit.e2`` is e1 by definition, so e2 and the mean print e1's
    strings.  The three values share one division of g! (``_Scale.pair``).
    """
    g, audit = L.genus, zhang_audit_coeff(L)
    # The margin e1 - h has a denominator that divides q.
    q = lcm(audit.e1.denominator, audit.h_curve.denominator)
    e1, e1_dec = scale.printed(g, audit.e1, q)
    h, h_dec = scale.printed(g, audit.h_curve, q)
    return {
        "e1": e1,
        "e2": e1,
        "h": h,
        "mean": e1,
        "margin": _exact_text(*scale.pair(g, audit.violation_margin, q)),
        "e1_dec": e1_dec,
        "h_dec": h_dec,
        "first_inequality_holds": audit.first_inequality_holds,
        "second_inequality_holds": audit.second_inequality_holds,
        "minima_attained": audit.minima_attained,
    }


@_command("audit", "evaluate both successive-minima inequalities", _GENUS, _BUNDLE)
def _audit(args: SimpleNamespace, scale: _Scale) -> tuple:
    L = _bundle_from(args)
    record = {"genus": args.genus, "bundle": str(L), **_audit_record(scale, L)}
    lines = [
        f"class {record['bundle']}, genus {record['genus']}",
        f"e1 = {record['e1']} (~{record['e1_dec']})",
        f"e2 = {record['e2']} (~{record['e1_dec']})",
        f"curve height = {record['h']} (~{record['h_dec']})",
        f"mean of minima = {record['mean']}",
    ]
    if record["first_inequality_holds"]:
        lines.append("first inequality holds (e1 >= curve height)")
    else:
        lines.append("first inequality VIOLATED")
    if record["second_inequality_holds"]:
        lines.append(f"second inequality holds (margin {record['margin']})")
    else:
        lines.append(f"second inequality VIOLATED by {record['margin']}")
    return record, lines


_TABLE_COLUMNS = ["g", "e1", "e2", "h", "mean", "margin", "e1_dec", "h_dec"]


@_command("table", "audit table over a genus range",
          _arg("g_min", nargs="?", type=_ascii_int, default=DEFAULT_TABLE_RANGE[0]),
          _arg("g_max", nargs="?", type=_ascii_int, default=DEFAULT_TABLE_RANGE[1]))
def _table(args: SimpleNamespace, scale: _Scale) -> tuple:
    g_min, g_max = args.g_min, args.g_max
    if g_min < MIN_GENUS:
        raise CLIError(f"table range must start at genus >= {MIN_GENUS}, got {g_min}")
    if g_min > g_max:
        raise CLIError(f"empty table range: {g_min} > {g_max}")
    rows = []
    for g in range(g_min, g_max + 1):
        values = _audit_record(scale, standard_polarization(g))
        rows.append({"g": g, **{col: values[col] for col in _TABLE_COLUMNS[1:]}})
    cells = [_TABLE_COLUMNS]
    cells += ([str(row[col]) for col in _TABLE_COLUMNS] for row in rows)
    if args.format == "csv":
        return rows, [",".join(line) for line in cells]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return rows, [
        "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        for line in cells
    ]


def _is_value(token: str) -> bool:
    """Whether ``token`` is not option-like: argparse reads it as a value."""
    return token[:1] != "-" or _NEGATIVE_NUMBER.match(token) is not None


def _typed(options: dict, text: str):
    """``text`` through an argument's type and choices; ValueError if refused."""
    kind, choices = options.get("type"), options.get("choices")
    value = text if kind is None else kind(text)
    if choices is not None and value not in choices:
        raise ValueError(text)
    return value


def _read_plain(name: str, argv: list) -> Optional[SimpleNamespace]:
    """The full parser's namespace for a plain line ``[name, *argv]``, read
    from the same specs (``_PLAIN``); else None.  It imports no argparse.

    Plain: options spelled exactly as declared ('-g V', '--genus V' or
    '--genus=V', V non-empty and not option-like), each at most once, and
    one run of positionals that opens the line, follows every option, or
    follows a single '--' with tokens after it (``table``'s optional bounds
    only in a run that opens the line), each value of its type and choices.
    Any other line, -h, abbreviations, '-g3' and every diagnostic included,
    is left to ``build_parser``'s parser.  One pass, left to right: each
    token is tested for option-likeness once and each flag looked up once.
    """
    flags, positionals, defaults, required, optional_run = _PLAIN[name]
    found, given, end = defaults.copy(), set(), len(argv)
    lead = 0
    while lead < end and _is_value(argv[lead]):
        lead += 1
    run, i = argv[:lead], lead
    try:
        while i < end:  # argv[i] is option-like
            if argv[i] == "--":
                run = argv[i + 1:]
                if not run or lead or optional_run or "--" in run:
                    return None
                break
            flag, eq, value = argv[i].partition("=")
            options = flags.get(flag)
            if options is None:
                return None
            if eq:
                if not flag.startswith("--"):  # '-g=3'
                    return None
                i += 1
            elif i + 1 < end:
                value = argv[i + 1]
                i += 2
            dest = options["dest"]
            if dest in given or not value or not _is_value(value):
                return None
            given.add(dest)
            found[dest] = _typed(options, value)
            if i < end and _is_value(argv[i]):  # the run after the options
                if lead or optional_run or not all(map(_is_value, argv[i + 1:])):
                    return None
                run = argv[i:]
                break
        for dest, options in positionals:
            if run and options.get("nargs") == "+":
                # '+' runs take no type, as argparse returns them.
                found[dest], run = run, []
            elif run:
                found[dest], run = _typed(options, run[0]), run[1:]
            elif options.get("nargs") == "?":
                found[dest] = options["default"]
            else:
                return None
    except ValueError:
        return None
    if run or not given >= required:
        return None
    return SimpleNamespace(**found)


def build_parser():
    """Parser with every subcommand, its arguments and ``--format``; each
    subcommand's defaults name its compute function.

    ``main`` uses it for every command line that ``_read_plain`` leaves:
    help, abbreviations, attached values and every usage diagnostic.  The
    first call imports argparse.
    """
    parser = _parser_class()(
        prog="curvejac",
        description="Exact Neron-Severi calculator for a curve times its Jacobian.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, compute, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, options in [*arguments, _FORMAT]:
            command.add_argument(*flags, **options)
        command.set_defaults(compute=compute)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; return its exit status: 0, 2 after a diagnostic, or 1
    with nothing more written when stdout's reader has gone (``| head -1``).

    ``_read_plain`` reads a plain command line and ``build_parser``'s parser
    any other; ``--format json`` writes the record with ``_json_text``.
    Every result is computed before anything is printed, so an error never
    leaves partial output.  Output is exact at every genus: CPython's digit
    limit on int/str conversion is lifted while the command runs, so input
    literals of any length are accepted too, and the caller's limit is
    restored on return.  The limit is process-wide, so concurrent calls from
    several threads would see each other's setting.  A genus past
    ``sys.maxsize`` gets ``math.factorial``'s one-line diagnostic before any
    work on g!.  A genus just under 2^63 passes that check and builds g!
    until it is killed: no digit budget bounds the work yet (ROADMAP item 3).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _read_plain(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
        if args is None:
            args = build_parser().parse_args(argv)
        if args.format == "csv" and args.command != "table":
            raise CLIError("csv output is only available for the 'table' command")
        record, lines = args.compute(args, _Scale())
        if args.format == "json":
            lines = [_json_text(record)]
        print("\n".join(lines))
        sys.stdout.flush()  # a reader that has gone is met here, not at exit
        return 0
    except (CLIError, ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE does: fd 1 goes to devnull,
        # so the interpreter's last flush of stdout cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
