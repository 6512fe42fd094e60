"""Command-line surface for the exact lattice calculator.

Subcommands mirror the library: classify, pair, intersect, pullback,
decompose, height, curve-height, minima, witness, audit, table.  Every
rational is printed exactly as "p/q" (plain integer when q = 1); decimal
columns are display-only annotations rounded half-even at six places.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .cones import Region, classify, nef_decomposition
from .heights import height_curve, height_point, standard_polarization
from .lattice import NSClass, pair_theta_power, pullback_theta, top_intersect
from .minima import ZhangAudit, cone_minimum, witness_sequence, zhang_audit

__all__ = ["main"]

DEFAULT_TABLE_RANGE = (2, 12)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class CLIError(Exception):
    """User-facing error: one-line diagnostic, nonzero exit."""


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with optional leading sign, no whitespace."""
    if not _RATIONAL_RE.match(text):
        raise CLIError(f"malformed rational literal {text!r} (want 'p' or 'p/q')")
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise CLIError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def parse_class(text: str, genus: int) -> NSClass:
    """Parse a class literal 'a,b,c' of rational components."""
    parts = text.split(",")
    if len(parts) != 3:
        raise CLIError(f"malformed class literal {text!r} (want 'a,b,c')")
    a, b, c = (parse_rational(part) for part in parts)
    return NSClass(genus, a, b, c)


def fmt_rat(x: Fraction) -> str:
    return str(x)


def decimal_str(x: Fraction, places: int = 6) -> str:
    """Fixed-point decimal of a rational, rounded half-even.  Display only."""
    shift = 10**places
    quo, rem = divmod(x.numerator * shift, x.denominator)
    double = 2 * rem
    if double > x.denominator or (double == x.denominator and quo % 2 == 1):
        quo += 1
    sign = "-" if quo < 0 else ""
    whole, frac = divmod(abs(quo), shift)
    return f"{sign}{whole}.{frac:0{places}d}"


def _annotated(x: Fraction) -> str:
    return f"{fmt_rat(x)} (~{decimal_str(x)})"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes only '-<digits>' and '-<decimal>' for negative
        # numbers and any other leading '-' for an option, which would
        # swallow '-1/2' and '-1,1,0'.  No option here starts with a digit,
        # so every '-<digit>' token is a value.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse's default error handler prints usage plus the message; fold
    # everything into the single-line diagnostic channel instead.
    def error(self, message: str):  # noqa: D102
        raise CLIError(message)


def _emit(args: argparse.Namespace, record: dict, text_lines: list[str]) -> int:
    if args.format == "csv":
        raise CLIError("csv output is only available for the 'table' command")
    if args.format == "json":
        print(json.dumps(record))
    else:
        for line in text_lines:
            print(line)
    return 0


def _bundle_from(args: argparse.Namespace) -> NSClass:
    if args.bundle is None:
        return standard_polarization(args.genus)
    return parse_class(args.bundle, args.genus)


def _class_from_coeffs(args: argparse.Namespace) -> NSClass:
    return NSClass(
        args.genus,
        parse_rational(args.a),
        parse_rational(args.b),
        parse_rational(args.c),
    )


def _cmd_classify(args: argparse.Namespace) -> int:
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
        "defect": fmt_rat(verdict.defect),
    }
    if verdict.region is Region.INTERIOR:
        line = f"interior (ample and big), defect {record['defect']}"
    elif verdict.region is Region.BOUNDARY:
        line = "boundary (apex)" if cls.is_zero else (
            f"boundary (nef, not ample), defect {record['defect']}"
        )
    else:
        line = f"outside (defect {record['defect']})"
    return _emit(args, record, [line])


def _cmd_pair(args: argparse.Namespace) -> int:
    x = parse_class(args.x, args.genus)
    y = parse_class(args.y, args.genus)
    value = pair_theta_power(x, y)
    record = {
        "genus": args.genus,
        "x": str(x),
        "y": str(y),
        "value": fmt_rat(value),
        "decimal": decimal_str(value),
    }
    return _emit(args, record, [_annotated(value)])


def _cmd_intersect(args: argparse.Namespace) -> int:
    classes = [parse_class(text, args.genus) for text in args.classes]
    value = top_intersect(classes)
    record = {
        "genus": args.genus,
        "classes": [str(cls) for cls in classes],
        "value": fmt_rat(value),
        "decimal": decimal_str(value),
    }
    return _emit(args, record, [_annotated(value)])


def _cmd_pullback(args: argparse.Namespace) -> int:
    m = parse_rational(args.m)
    n = parse_rational(args.n)
    cls = pullback_theta(args.genus, m, n)
    record = {
        "genus": args.genus,
        "m": fmt_rat(m),
        "n": fmt_rat(n),
        "class": str(cls),
        "a": fmt_rat(cls.a),
        "b": fmt_rat(cls.b),
        "c": fmt_rat(cls.c),
    }
    return _emit(args, record, [str(cls)])


def _cmd_decompose(args: argparse.Namespace) -> int:
    cls = _class_from_coeffs(args)
    part = nef_decomposition(cls)
    record = {
        "genus": cls.genus,
        "class": str(cls),
        "boundary_part": str(part.boundary_part),
        "alpha_excess": fmt_rat(part.alpha_excess),
        "degenerate": part.degenerate,
    }
    if part.degenerate:
        line = (
            f"degenerate (b = 0): boundary part {part.boundary_part}, "
            f"alpha1 excess {fmt_rat(part.alpha_excess)}"
        )
    else:
        line = (
            f"boundary part {part.boundary_part}, "
            f"alpha1 excess {fmt_rat(part.alpha_excess)}"
        )
    return _emit(args, record, [line])


def _cmd_height(args: argparse.Namespace) -> int:
    L = _bundle_from(args)
    point = parse_class(args.point, args.genus)
    report = height_point(L, point)
    record = {
        "genus": args.genus,
        "bundle": str(L),
        "point": str(point),
        "height": fmt_rat(report.height),
        "height_dec": decimal_str(report.height),
        "degree": fmt_rat(report.degree),
    }
    line = f"height {_annotated(report.height)}, degree {fmt_rat(report.degree)}"
    return _emit(args, record, [line])


def _cmd_curve_height(args: argparse.Namespace) -> int:
    L = _bundle_from(args)
    value = height_curve(L)
    record = {
        "genus": args.genus,
        "bundle": str(L),
        "height": fmt_rat(value),
        "height_dec": decimal_str(value),
    }
    return _emit(args, record, [f"curve height {_annotated(value)}"])


def _cmd_minima(args: argparse.Namespace) -> int:
    L = _bundle_from(args)
    report = cone_minimum(L)
    record = {
        "genus": args.genus,
        "bundle": str(L),
        "infimum": fmt_rat(report.infimum),
        "infimum_dec": decimal_str(report.infimum),
        "s_star": fmt_rat(report.s_star),
        "t_star": fmt_rat(report.t_star),
        "attained_by_witness": report.attained_by_witness,
        "witness": None if report.witness is None else str(report.witness.cls),
    }
    lines = [
        f"infimum {_annotated(report.infimum)}",
        f"t_star {fmt_rat(report.t_star)}, s_star {fmt_rat(report.s_star)}",
    ]
    if report.witness is not None:
        lines.append(
            f"attained by witness {report.witness.cls}, "
            f"degree {fmt_rat(report.witness.degree)}"
        )
    else:
        lines.append("no attaining witness constructed (value is a lower bound)")
    return _emit(args, record, lines)


def _cmd_witness(args: argparse.Namespace) -> int:
    point = witness_sequence(args.genus, args.index)
    L = standard_polarization(args.genus)
    report = height_point(L, point)
    record = {
        "genus": args.genus,
        "n": args.index,
        "class": str(point.cls),
        "degree": fmt_rat(report.degree),
        "height": fmt_rat(report.height),
    }
    line = (
        f"{point.cls}, degree {fmt_rat(report.degree)}, "
        f"height {fmt_rat(report.height)}"
    )
    return _emit(args, record, [line])


def _audit_record(genus: int, L: NSClass, audit: ZhangAudit) -> dict:
    mean = (audit.e1 + audit.e2) / 2
    return {
        "genus": genus,
        "bundle": str(L),
        "e1": fmt_rat(audit.e1),
        "e2": fmt_rat(audit.e2),
        "h": fmt_rat(audit.h_curve),
        "mean": fmt_rat(mean),
        "margin": fmt_rat(audit.violation_margin),
        "e1_dec": decimal_str(audit.e1),
        "h_dec": decimal_str(audit.h_curve),
        "first_inequality_holds": audit.first_inequality_holds,
        "second_inequality_holds": audit.second_inequality_holds,
        "minima_attained": audit.minima_attained,
    }


def _cmd_audit(args: argparse.Namespace) -> int:
    L = _bundle_from(args)
    audit = zhang_audit(L)
    record = _audit_record(args.genus, L, audit)
    lines = [
        f"class {record['bundle']}, genus {record['genus']}",
        f"e1 = {record['e1']} (~{record['e1_dec']})",
        f"e2 = {record['e2']} (~{decimal_str(audit.e2)})",
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
    if not record["minima_attained"]:
        lines.append("note: e1/e2 are lower bounds (no attaining witness)")
    return _emit(args, record, lines)


def _table_rows(g_min: int, g_max: int) -> list[dict]:
    rows = []
    for g in range(g_min, g_max + 1):
        L = standard_polarization(g)
        record = _audit_record(g, L, zhang_audit(L))
        rows.append(
            {
                "g": g,
                "e1": record["e1"],
                "e2": record["e2"],
                "h": record["h"],
                "mean": record["mean"],
                "margin": record["margin"],
                "e1_dec": record["e1_dec"],
                "h_dec": record["h_dec"],
            }
        )
    return rows


_TABLE_COLUMNS = ["g", "e1", "e2", "h", "mean", "margin", "e1_dec", "h_dec"]


def _cmd_table(args: argparse.Namespace) -> int:
    g_min, g_max = args.g_min, args.g_max
    if g_min < 2:
        raise CLIError(f"table range must start at genus >= 2, got {g_min}")
    if g_min > g_max:
        raise CLIError(f"empty table range: {g_min} > {g_max}")
    # Build every row before printing anything: a failure mid-range must not
    # leave a partial table on stdout.
    rows = _table_rows(g_min, g_max)
    if args.format == "json":
        print(json.dumps(rows))
        return 0
    if args.format == "csv":
        print(",".join(_TABLE_COLUMNS))
        for row in rows:
            print(",".join(str(row[col]) for col in _TABLE_COLUMNS))
        return 0
    widths = {
        col: max(len(col), *(len(str(row[col])) for row in rows))
        for col in _TABLE_COLUMNS
    }
    print("  ".join(col.rjust(widths[col]) for col in _TABLE_COLUMNS))
    for row in rows:
        print("  ".join(str(row[col]).rjust(widths[col]) for col in _TABLE_COLUMNS))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (csv is table-only)",
    )


def _add_genus(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-g", "--genus", type=int, required=True, help="curve genus (>= 2)"
    )


def _add_coeffs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-a", "--a", dest="a", required=True, metavar="RAT",
                        help="alpha1 coefficient")
    parser.add_argument("-b", "--b", dest="b", required=True, metavar="RAT",
                        help="theta2 coefficient")
    parser.add_argument("-c", "--c", dest="c", required=True, metavar="RAT",
                        help="universal-class coefficient")


def _add_bundle(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-L", "--bundle", metavar="CLASS", default=None,
        help="polarizing class 'a,b,c' (default: standard polarization)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvejac",
        description="Exact Neron-Severi calculator for a curve times its Jacobian.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=_Parser
    )

    p = sub.add_parser("classify", help="locate a class in the positivity cones")
    _add_genus(p)
    _add_coeffs(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("pair", help="pair two classes against theta powers")
    _add_genus(p)
    p.add_argument("x", metavar="CLASS", help="first class 'a,b,c'")
    p.add_argument("y", metavar="CLASS", help="second class 'a,b,c'")
    _add_format(p)
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("intersect", help="top intersection of g+1 classes")
    _add_genus(p)
    p.add_argument("classes", nargs="+", metavar="CLASS", help="class 'a,b,c'")
    _add_format(p)
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("pullback", help="theta pullback class for rational (m, n)")
    _add_genus(p)
    p.add_argument("-m", "--m", dest="m", required=True, metavar="RAT")
    p.add_argument("-n", "--n", dest="n", required=True, metavar="RAT")
    _add_format(p)
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("decompose", help="split a nef class off the boundary wall")
    _add_genus(p)
    _add_coeffs(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("height", help="height of a point class against a bundle")
    _add_genus(p)
    _add_bundle(p)
    p.add_argument("point", metavar="CLASS", help="point class 'a,b,c'")
    _add_format(p)
    p.set_defaults(handler=_cmd_height)

    p = sub.add_parser("curve-height", help="self-height of the total space")
    _add_genus(p)
    _add_bundle(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_curve_height)

    p = sub.add_parser("minima", help="closed-form cone minimum and minimizer")
    _add_genus(p)
    _add_bundle(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_minima)

    p = sub.add_parser("witness", help="n-th attaining point class for the minimum")
    _add_genus(p)
    p.add_argument("-n", "--index", dest="index", type=int, required=True,
                   help="witness index (>= 1)")
    _add_format(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("audit", help="evaluate both successive-minima inequalities")
    _add_genus(p)
    _add_bundle(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("table", help="audit table over a genus range")
    p.add_argument("g_min", nargs="?", type=int, default=DEFAULT_TABLE_RANGE[0])
    p.add_argument("g_max", nargs="?", type=int, default=DEFAULT_TABLE_RANGE[1])
    _add_format(p)
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; return its exit status (0, or 2 after a diagnostic).

    Output is exact at every genus: CPython's digit limit on int/str
    conversion is lifted while the command runs, so input literals of any
    length are accepted too, and the caller's limit is restored on return.
    The limit is process-wide, so concurrent calls from several threads
    would see each other's setting.
    """
    parser = build_parser()
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (CLIError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
