"""Output checks: every CLI output against values computed here.

Expected values come from closed forms evaluated with ``fractions`` and
``math.factorial`` on the parameters an operation was generated from; no
code of ``curvejac`` and no stored output is used.  The forms follow from the
two nonzero monomials ``alpha1 . theta2^g = g!`` and
``Q^2 . theta2^(g-1) = -2 g!``:

* top intersection of (a_i, b_i, c_i), i = 1..g+1:
  g! [sum_i a_i prod_{j!=i} b_j - 2 sum_{i<j} c_i c_j prod_{k!=i,j} b_k]
* pairing X . Y . theta2^(g-1) = g! (x_a y_b + x_b y_a - 2 x_c y_c)
* for a nef L = (A, B, C) with A > 0: e1 = e2 = g! (g A B - C^2) / (g A),
  curve height h = g! (A B - C^2) / A, margin e1 - h
* pullback class (g m^2, n^2, m n); witness (g^3 n, n, g n) of height
  (g - 1/g) (g-1)!; cone defect a b - g c^2.

Rationals must be printed in lowest terms, exactly as ``str(Fraction)``
gives them.  Every ``*_dec`` field and ``(~...)`` annotation must lie within
5e-7 of the exact value.  ``check`` raises ``CheckError`` on the first mismatch.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

from workloads import Op, Triple

__all__ = ["CheckError", "check"]

DEC_TOLERANCE = Fraction(5, 10**7)

_R = r"(-?\d+(?:/\d+)?)"
_D = r"(-?\d+\.\d{6})"
_C = r"(\(-?\d+(?:/\d+)?,-?\d+(?:/\d+)?,-?\d+(?:/\d+)?\))"
_ANN = _R + r" \(~" + _D + r"\)"
TABLE_COLUMNS = ["g", "e1", "e2", "h", "mean", "margin", "e1_dec", "h_dec"]


class CheckError(Exception):
    """An output disagrees with its closed-form value."""


# --- closed forms -----------------------------------------------------------


def top_value(g: int, classes: list[Triple]) -> Fraction:
    """g! (t1 - 2 s2), with t1 = sum_i a_i prod_{j!=i} b_j and
    s2 = sum_{i<j} c_i c_j prod_{k!=i,j} b_k, accumulated factor by factor."""
    if len(classes) != g + 1:
        raise ValueError(f"need {g + 1} classes at genus {g}")
    s0, s1, s2, t1 = Fraction(1), Fraction(0), Fraction(0), Fraction(0)
    for a, b, c in classes:
        s0, s1, s2, t1 = s0 * b, s1 * b + s0 * c, s2 * b + s1 * c, t1 * b + s0 * a
    return factorial(g) * (t1 - 2 * s2)


def pair_value(g: int, x: Triple, y: Triple) -> Fraction:
    return factorial(g) * (x[0] * y[1] + x[1] * y[0] - 2 * x[2] * y[2])


def audit_values(g: int, L: Triple) -> tuple[Fraction, Fraction, Fraction]:
    """(e1, h, margin) for a nef L with A > 0; e2 = e1 and the mean is e1."""
    A, B, C = L
    e1 = factorial(g) * (g * A * B - C * C) / (g * A)
    h = factorial(g) * (A * B - C * C) / A
    return e1, h, e1 - h


def pullback_class(g: int, m: Fraction, n: Fraction) -> Triple:
    return (g * m * m, n * n, m * n)


def headline_e1(g: int) -> Fraction:
    return (g - Fraction(1, g)) * factorial(g - 1)


def headline_h(g: int) -> Fraction:
    return Fraction((g - 1) * factorial(g - 1))


def region(g: int, cls: Triple) -> tuple[str, Fraction]:
    a, b, c = cls
    defect = a * b - g * c * c
    if a > 0 and b > 0 and defect > 0:
        return "interior", defect
    if a >= 0 and b >= 0 and defect >= 0:
        return "boundary", defect
    return "outside", defect


def minimum_witness(g: int, L: Triple) -> Triple:
    """Point class on the minimizing ray t = C / (g A), in lowest terms."""
    ratio = L[2] / L[0]
    return pullback_class(g, Fraction(ratio.denominator), Fraction(ratio.numerator))


# --- parsing helpers --------------------------------------------------------


def _fail(what: str, got: object, want: object) -> None:
    raise CheckError(f"{what}: got {got!r}, want {want!r}")


def _lit(cls: Triple) -> str:
    return "(" + ",".join(map(str, cls)) + ")"


def _rat(what: str, text: object, want: Fraction) -> None:
    """Rationals print as 'p/q' in lowest terms, or 'p' when q = 1."""
    if text != str(want):
        _fail(what, text, str(want))


def _cls(what: str, text: object, want: Triple) -> None:
    if text != _lit(want):
        _fail(what, text, _lit(want))


def _dec(what: str, text: object, exact: Fraction) -> None:
    if not isinstance(text, str) or not re.fullmatch(_D, text):
        _fail(what, text, "a six-place decimal")
    if abs(Fraction(text) - exact) > DEC_TOLERANCE:
        _fail(what, text, f"within 5e-7 of {exact}")


def _eq(what: str, got: object, want: object) -> None:
    if got != want or type(got) is not type(want):
        _fail(what, got, want)


def _lines(out: str, count: int) -> list[str]:
    if not out.endswith("\n"):
        raise CheckError("output does not end with a newline")
    lines = out[:-1].split("\n")
    if len(lines) != count:
        _fail("line count", len(lines), count)
    return lines


def _match(pattern: str, line: str) -> tuple[str, ...]:
    m = re.fullmatch(pattern, line)
    if m is None:
        raise CheckError(f"line {line!r} does not match {pattern!r}")
    return m.groups()


def _record(out: str):
    (line,) = _lines(out, 1)
    try:
        return json.loads(line)
    except json.JSONDecodeError as err:
        raise CheckError(f"invalid JSON: {err}") from None


def _fields(record: object, keys: list[str]) -> list:
    if not isinstance(record, dict):
        raise CheckError(f"JSON record is not an object: {record!r}")
    missing = [k for k in keys if k not in record]
    if missing:
        raise CheckError(f"JSON record lacks {missing}")
    return [record[k] for k in keys]


# --- per-command checks -----------------------------------------------------


def _audit(p: dict, fmt: str, out: str) -> None:
    g, L = p["g"], p["L"]
    e1, h, margin = audit_values(g, L)
    if fmt == "json":
        (genus, bundle, g_e1, g_e2, g_h, mean, g_margin, e1_dec, h_dec, first,
         second, attained) = _fields(_record(out), [
             "genus", "bundle", "e1", "e2", "h", "mean", "margin", "e1_dec",
             "h_dec", "first_inequality_holds", "second_inequality_holds",
             "minima_attained"])
        _eq("genus", genus, g)
        _cls("bundle", bundle, L)
        for what, text, want in (("e1", g_e1, e1), ("e2", g_e2, e1), ("h", g_h, h),
                                 ("mean", mean, e1), ("margin", g_margin, margin)):
            _rat(what, text, want)
        _dec("e1_dec", e1_dec, e1)
        _dec("h_dec", h_dec, h)
        _eq("first_inequality_holds", first, e1 >= h)
        _eq("second_inequality_holds", second, h >= e1)
        _eq("minima_attained", attained, True)
        return
    lines = _lines(out, 7)
    bundle, genus = _match(r"class " + _C + r", genus (\d+)", lines[0])
    _cls("bundle", bundle, L)
    _eq("genus", int(genus), g)
    for line, label, want in ((lines[1], "e1 = ", e1), (lines[2], "e2 = ", e1),
                              (lines[3], "curve height = ", h)):
        value, dec = _match(re.escape(label) + _ANN, line)
        _rat(label, value, want)
        _dec(label, dec, want)
    _rat("mean", _match(r"mean of minima = " + _R, lines[4])[0], e1)
    _eq("first inequality", lines[5], "first inequality holds (e1 >= curve height)"
        if e1 >= h else "first inequality VIOLATED")
    if h >= e1:
        text = _match(r"second inequality holds \(margin " + _R + r"\)", lines[6])[0]
    else:
        text = _match(r"second inequality VIOLATED by " + _R, lines[6])[0]
    _rat("margin", text, margin)


def _table_row(g: int, row: list) -> None:
    e1, h = headline_e1(g), headline_h(g)
    want = [g, e1, e1, h, e1, e1 - h]
    if len(row) != len(TABLE_COLUMNS):
        _fail(f"row {g} width", len(row), len(TABLE_COLUMNS))
    if str(row[0]) != str(g):
        _fail("row genus", row[0], g)
    for col, text, value in zip(TABLE_COLUMNS[1:6], row[1:6], want[1:]):
        _rat(f"g={g} {col}", text, value)
    _dec(f"g={g} e1_dec", row[6], e1)
    _dec(f"g={g} h_dec", row[7], h)


def _table(p: dict, fmt: str, out: str) -> None:
    genera = range(p["g_min"], p["g_max"] + 1)
    if fmt == "json":
        rows = _record(out)
        if not isinstance(rows, list) or len(rows) != len(genera):
            _fail("table rows", rows, f"{len(genera)} rows")
        for g, row in zip(genera, rows):
            _eq("row genus", _fields(row, ["g"])[0], g)
            _table_row(g, _fields(row, TABLE_COLUMNS))
        return
    lines = _lines(out, len(genera) + 1)
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    _eq("header", split(lines[0]), TABLE_COLUMNS)
    for g, line in zip(genera, lines[1:]):
        _table_row(g, split(line))


def _value(what: str, fmt: str, out: str, want: Fraction, keys: dict) -> None:
    """One-value outputs of pair and intersect: 'p/q (~d)' or a record."""
    if fmt == "json":
        record = _record(out)
        value, dec = _fields(record, ["value", "decimal"])
        for key, expected in keys.items():
            _eq(key, _fields(record, [key])[0], expected)
    else:
        value, dec = _match(_ANN, _lines(out, 1)[0])
    _rat(what, value, want)
    _dec(what + " decimal", dec, want)


def _intersect(p: dict, fmt: str, out: str) -> None:
    g, classes = p["g"], p["classes"]
    _value("intersect", fmt, out, top_value(g, classes),
           {"genus": g, "classes": [_lit(c) for c in classes]})


def _pair(p: dict, fmt: str, out: str) -> None:
    g, x, y = p["g"], p["x"], p["y"]
    _value("pair", fmt, out, pair_value(g, x, y),
           {"genus": g, "x": _lit(x), "y": _lit(y)})


def _pullback(p: dict, fmt: str, out: str) -> None:
    g, m, n = p["g"], p["m"], p["n"]
    cls = pullback_class(g, m, n)
    if fmt == "text":
        _cls("pullback", _lines(out, 1)[0], cls)
        return
    genus, g_m, g_n, text, a, b, c = _fields(
        _record(out), ["genus", "m", "n", "class", "a", "b", "c"])
    _eq("genus", genus, g)
    _rat("m", g_m, m)
    _rat("n", g_n, n)
    _cls("class", text, cls)
    for what, got, want in zip("abc", (a, b, c), cls):
        _rat(what, got, want)


def _witness(p: dict, fmt: str, out: str) -> None:
    g, n = p["g"], p["n"]
    cls = (Fraction(g**3 * n), Fraction(n), Fraction(g * n))
    height = headline_e1(g)
    if fmt == "json":
        genus, index, text, degree, value = _fields(
            _record(out), ["genus", "n", "class", "degree", "height"])
        _eq("genus", genus, g)
        _eq("n", index, n)
    else:
        text, degree, value = _match(
            _C + r", degree " + _R + r", height " + _R, _lines(out, 1)[0])
    _cls("witness", text, cls)
    _rat("degree", degree, cls[0])
    _rat("height", value, height)


def _classify(p: dict, fmt: str, out: str) -> None:
    g, cls = p["g"], p["cls"]
    where, defect = region(g, cls)
    apex = not any(cls)
    if fmt == "json":
        (genus, text, g_region, g_apex, ample, nef, big, psef, g_defect) = _fields(
            _record(out), ["genus", "class", "region", "apex", "is_ample", "is_nef",
                           "is_big", "is_psef", "defect"])
        _eq("genus", genus, g)
        _cls("class", text, cls)
        _eq("region", g_region, where)
        _eq("apex", g_apex, apex)
        for what, got in (("is_ample", ample), ("is_big", big)):
            _eq(what, got, where == "interior")
        for what, got in (("is_nef", nef), ("is_psef", psef)):
            _eq(what, got, where != "outside")
        _rat("defect", g_defect, defect)
        return
    line = _lines(out, 1)[0]
    if where == "interior":
        text = _match(r"interior \(ample and big\), defect " + _R, line)[0]
    elif where == "outside":
        text = _match(r"outside \(defect " + _R + r"\)", line)[0]
    elif apex:
        _eq("classify", line, "boundary (apex)")
        return
    else:
        text = _match(r"boundary \(nef, not ample\), defect " + _R, line)[0]
    _rat("defect", text, defect)


def _decompose(p: dict, fmt: str, out: str) -> None:
    g, (a, b, c) = p["g"], p["cls"]
    if b == 0:
        wall, excess = (Fraction(0),) * 3, a
    else:
        wall = (g * c * c / b, b, c)
        excess = a - wall[0]
    degenerate = b == 0
    if fmt == "json":
        genus, text, part, g_excess, g_degenerate = _fields(
            _record(out), ["genus", "class", "boundary_part", "alpha_excess",
                           "degenerate"])
        _eq("genus", genus, g)
        _cls("class", text, (a, b, c))
        _eq("degenerate", g_degenerate, degenerate)
    else:
        prefix = r"degenerate \(b = 0\): " if degenerate else ""
        part, g_excess = _match(
            prefix + r"boundary part " + _C + r", alpha1 excess " + _R,
            _lines(out, 1)[0])
    _cls("boundary part", part, wall)
    _rat("alpha1 excess", g_excess, excess)


def _height(p: dict, fmt: str, out: str) -> None:
    g, L, point = p["g"], p["L"], p["point"]
    want = pair_value(g, point, L) / point[0]
    if fmt == "json":
        genus, bundle, text, value, dec, degree = _fields(
            _record(out), ["genus", "bundle", "point", "height", "height_dec",
                           "degree"])
        _eq("genus", genus, g)
        _cls("bundle", bundle, L)
        _cls("point", text, point)
    else:
        value, dec, degree = _match(
            r"height " + _ANN + r", degree " + _R, _lines(out, 1)[0])
    _rat("height", value, want)
    _dec("height decimal", dec, want)
    _rat("degree", degree, point[0])


def _curve_height(p: dict, fmt: str, out: str) -> None:
    g, L = p["g"], p["L"]
    want = audit_values(g, L)[1]
    if fmt == "json":
        genus, bundle, value, dec = _fields(
            _record(out), ["genus", "bundle", "height", "height_dec"])
        _eq("genus", genus, g)
        _cls("bundle", bundle, L)
    else:
        value, dec = _match(r"curve height " + _ANN, _lines(out, 1)[0])
    _rat("curve height", value, want)
    _dec("curve height decimal", dec, want)


def _minima(p: dict, fmt: str, out: str) -> None:
    g, L = p["g"], p["L"]
    A, _, C = L
    infimum = audit_values(g, L)[0]
    t_star, s_star = C / (g * A), C * C / (g * A * A)
    witness = minimum_witness(g, L)
    if fmt == "json":
        genus, bundle, value, dec, s, t, attained, text = _fields(
            _record(out), ["genus", "bundle", "infimum", "infimum_dec", "s_star",
                           "t_star", "attained_by_witness", "witness"])
        _eq("genus", genus, g)
        _cls("bundle", bundle, L)
        _eq("attained_by_witness", attained, True)
    else:
        lines = _lines(out, 3)
        value, dec = _match(r"infimum " + _ANN, lines[0])
        t, s = _match(r"t_star " + _R + r", s_star " + _R, lines[1])
        text, degree = _match(
            r"attained by witness " + _C + r", degree " + _R, lines[2])
        _rat("witness degree", degree, witness[0])
    _rat("infimum", value, infimum)
    _dec("infimum decimal", dec, infimum)
    _rat("t_star", t, t_star)
    _rat("s_star", s, s_star)
    _cls("witness", text, witness)


_CHECKS = {
    "audit": _audit,
    "table": _table,
    "intersect": _intersect,
    "pair": _pair,
    "pullback": _pullback,
    "witness": _witness,
    "classify": _classify,
    "decompose": _decompose,
    "height": _height,
    "curve-height": _curve_height,
    "minima": _minima,
}


def check(op: Op, out: str) -> None:
    """Raise ``CheckError`` unless ``out`` is the correct stdout of ``op``."""
    _CHECKS[op.command](op.params, op.fmt, out)
