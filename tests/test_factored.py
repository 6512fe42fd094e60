"""The factored route: every height-like value is g! times a rational r.

The public functions return g! times their ``_coeff`` forms, and the
command line's one writer (``_Scale``) renders g! * r from one exact decimal
of g!, built by a product tree, as an exact decimal numerator and a
denominator.  Both are checked here against g! * r formed with
``math.factorial`` and ``str``, at genus 2..2000 and at a few genera past
4000, where the tree has several levels; the renderer's decimal annotation
is checked against an int ``divmod``.  The tree's leaves carry their
trailing zeros in the exponent, so every command that prints g! is checked
at genera where g! has many of them, for the exact digits with no exponent.
At genus 10^5, where converting the output to an int is too slow, ``audit``,
``minima``, ``curve-height``, ``witness``, ``height``, ``pair``,
``intersect`` and the rows of a two-row ``table`` are checked by residues
modulo two primes.
"""

import contextlib
import io
import json
import random
import re
import sys
import time
from fractions import Fraction
from math import factorial, lcm, perm

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import example, given, settings

from curvejac import cli
from curvejac.cli import _decimal_product, _exact_text, _Scale, decimal_str, main
from curvejac.heights import (PointClass, height_curve, height_curve_coeff, height_point,
                              height_point_coeff, standard_polarization)
from curvejac.lattice import (NSClass, alpha1, pair_theta_power, pair_theta_power_coeff,
                              pullback_theta, theta2, top_intersect, top_intersect_coeff)
from curvejac.minima import (MinimaReport, ZhangAudit, cone_minimum, cone_minimum_coeff,
                             witness_sequence, zhang_audit, zhang_audit_coeff)

from oracles import (cone_minimum_closed, factorial_mod, half_even_decimal,
                     height_curve_closed, height_point_closed, pair_theta_power_closed,
                     repeated_intersect_coeff, residue)

genera = st.integers(min_value=2, max_value=2000)
rationals = st.fractions(min_value=-15, max_value=15, max_denominator=10)
nonneg = st.fractions(min_value=0, max_value=15, max_denominator=10)
positive = st.fractions(min_value=Fraction(1, 10), max_value=15, max_denominator=10)


@contextlib.contextmanager
def no_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def expanded(g, r):
    """The text of g! * r, the way the expanded route makes it."""
    with no_digit_limit():
        return str(factorial(g) * r)


def factored(g, r):
    """The text of g! * r from the command line's renderer at genus g."""
    value = _Scale().pair(g, r)
    with no_digit_limit():  # as ``main`` lifts it around each command
        return _exact_text(*value)


@st.composite
def multipliers(draw, g):
    """r = p/q of either sign, with q of each kind that meets g! differently."""
    kind = draw(st.sampled_from(["zero", "small", "divides", "prime", "large"]))
    if kind == "zero":
        return Fraction(0)
    p = draw(st.integers(1, 10**40)) * draw(st.sampled_from([1, -1]))
    if kind == "small":
        q = draw(st.integers(1, 10**6))
    elif kind == "divides":  # q | g!: small, or g! over a small factor
        k = draw(st.integers(1, g))
        q = draw(st.sampled_from([k, factorial(g) // k]))
    elif kind == "prime":  # prime q > g, so gcd(g!, q) = 1
        q = sympy.nextprime(g + draw(st.integers(0, 10**6)))
    else:  # under 4300 digits, so that hypothesis can print a failing r
        q = draw(st.integers(10**30, 10**4000))
    return Fraction(p, q)


@st.composite
def records(draw):
    """A genus and three multipliers at it, as the values of one record."""
    g = draw(genera)
    return g, [draw(multipliers(g)) for _ in range(3)]


def nef_class(g, m, n, s, t):
    """A nef class with A > 0 (m > 0): a pullback plus s alpha1 + t theta2."""
    return pullback_theta(g, m, n) + s * alpha1(g) + t * theta2(g)


class TestFactoredText:
    @pytest.mark.parametrize("g", [2, 3, 12, 1500, 2000])
    @pytest.mark.parametrize(
        "r", [Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 4), Fraction(1, 2003),
              Fraction(-5, 10**80 + 1)]
    )
    def test_edge_cases(self, g, r):
        assert factored(g, r) == expanded(g, r)

    @pytest.mark.parametrize("g", [2, 7, 2000])
    def test_denominator_g_factorial(self, g):
        gf = factorial(g)
        for r in (Fraction(1, gf), Fraction(-3, gf), Fraction(gf + 1, 2 * gf)):
            assert factored(g, r) == expanded(g, r)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_str_of_product(self, data):
        g = data.draw(genera)
        r = data.draw(multipliers(g))
        assert factored(g, r) == expanded(g, r)

    @pytest.mark.parametrize("g", [4001, 5003, 8191])
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_matches_past_one_leaf(self, g, data):
        # Past genus ~125 g! is a tree of leaves of at most 1000 bits; at
        # these genera it has several levels.
        r = data.draw(multipliers(g))
        value = _Scale().pair(g, r)
        with no_digit_limit():
            assert _exact_text(*value) == expanded(g, r)
            assert decimal_str(*value) == half_even_decimal(factorial(g) * r)

    def test_one_writer_at_any_genera(self):
        # A command's one writer asked for genera in any order: again at the
        # same genus, one genus up (the carried g!), a jump up, a jump down.
        # A shared q (third entry, 0 for none) is interleaved with plain
        # calls, and asked for again after a carry and after a jump, where
        # the division kept for it is of the old g!.
        scale = _Scale()
        for g, r, q in [(5, Fraction(1), 0), (5, Fraction(-7, 4), 12),
                        (5, Fraction(1, 3), 12), (5, Fraction(-7, 4), 0),
                        (5, Fraction(5, 6), 12), (6, Fraction(1, 2003), 0),
                        (7, Fraction(3), 0), (7, Fraction(3), 0), (7, Fraction(-1, 4), 44),
                        (8, Fraction(3, 11), 44), (8, Fraction(0), 44),
                        (12, Fraction(-5, 11), 0), (3, Fraction(1, 6), 6),
                        (3, Fraction(1, 2), 6), (4, Fraction(0), 0), (2000, Fraction(1, 3), 6),
                        (2001, Fraction(-1, 2), 6), (2001, Fraction(-1, 2), 0),
                        (2, Fraction(7, 6), 6), (2, Fraction(7), 0)]:
            value = scale.pair(g, r, q)
            with no_digit_limit():
                assert _exact_text(*value) == expanded(g, r)
            assert scale.printed(g, r, q) == (_exact_text(*value), decimal_str(*value))

    @settings(max_examples=80, deadline=None)
    @given(record=records())
    @example(record=(7, [Fraction(0), Fraction(-7, 4), Fraction(3, 11)]))
    @example(record=(12, [Fraction(-5, 10**4000 + 1), Fraction(1, 36), Fraction(0)]))
    def test_shared_denominator(self, record):
        # The values of one record share one division of g!, by a common
        # multiple q of their denominators: each is what a writer of its own
        # makes of it, and g! * r.  Zero, either sign, a q that divides g!,
        # a prime q > g and a huge q each meet that division differently.
        g, rs = record
        q = lcm(*(r.denominator for r in rs))
        scale = _Scale()
        for r in rs:
            value = scale.pair(g, r, q)
            assert list(map(str, value)) == list(map(str, _Scale().pair(g, r)))
            with no_digit_limit():
                assert _exact_text(*value) == expanded(g, r)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 1990), st.integers(0, 10))
    def test_carried_rows_match_per_row(self, g_min, span):
        # A table multiplies g!'s decimal from row to row; each row prints
        # what an audit at its own genus prints, and that is g! * r.
        g_max = g_min + span
        rows = run_json("table", str(g_min), str(g_max), "--format", "json")
        assert [row["g"] for row in rows] == list(range(g_min, g_max + 1))
        for row in rows:
            g = row["g"]
            record = run_json("audit", "-g", str(g), "--format", "json")
            assert row == {"g": g, **{key: record[key] for key in row if key != "g"}}
            audit = zhang_audit_coeff(standard_polarization(g))
            assert [row["e1"], row["h"], row["margin"]] == [
                expanded(g, r) for r in (audit.e1, audit.h_curve, audit.violation_margin)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3000))
def test_decimal_product_is_perm(lo, span):
    # The tree's value is the int product, whatever its leaves' exponents.
    hi = lo + span
    product = _decimal_product(lo, hi)
    assert product == perm(hi, hi - lo)
    assert product.as_tuple().exponent >= 0


class TestPublicWrappers:
    """Each g!-valued function is g! times its ``_coeff`` form (same Fractions)."""

    @settings(max_examples=40, deadline=None)
    @given(genera, positive, rationals, nonneg, nonneg,
           st.tuples(rationals, rationals, rationals), nonneg)
    @example(g=3, m=1, n=1, s=1, t=0, xs=(Fraction(-3, 2), 5, Fraction(7, 3)), u=2)
    def test_factorial_times_r(self, g, m, n, s, t, xs, u):
        gf = factorial(g)
        L = nef_class(g, m, n, s, t)
        x = NSClass(g, *xs)
        assert pair_theta_power(x, L) == gf * pair_theta_power_coeff(x, L)
        classes = [x, L, *[NSClass(g, u, 1, 0)] * (g - 1)]
        assert top_intersect(classes) == gf * top_intersect_coeff(classes)
        point = PointClass(L)
        height = height_point(L, point)
        assert type(height) is Fraction and height == gf * height_point_coeff(L, point)
        assert height_point(L, L) == height_point(L, point)  # NSClass point
        assert height_curve(L) == gf * height_curve_coeff(L)
        r = cone_minimum_coeff(L)
        assert cone_minimum(L) == MinimaReport(gf * r.infimum, r.s_star, r.t_star,
                                               r.witness)
        a = zhang_audit_coeff(L)
        assert zhang_audit(L) == ZhangAudit(gf * a.e1, gf * a.h_curve,
                                            gf * a.violation_margin)


@pytest.mark.parametrize("g", [2, 3, 7])
@pytest.mark.parametrize("off_wall", [False, True], ids=["standard", "off_wall"])
def test_factorial_times_coeff_at_small_genera(g, off_wall):
    # TestPublicWrappers' identities, field by field, on fixed small cases:
    # the standard polarization and a nef class off the wall with C != 0.
    gf = factorial(g)
    L = nef_class(g, 1, 1, 1, 0) if off_wall else standard_polarization(g)
    x = NSClass(g, Fraction(-3, 2), 5, Fraction(7, 3))
    classes = [x, L, *[theta2(g)] * (g - 1)]
    assert pair_theta_power(x, L) == gf * pair_theta_power_coeff(x, L)
    assert top_intersect(classes) == gf * top_intersect_coeff(classes)
    assert height_point(L, L) == gf * height_point_coeff(L, L)
    assert height_curve(L) == gf * height_curve_coeff(L)
    minimum, r = cone_minimum(L), cone_minimum_coeff(L)
    assert minimum.infimum == gf * r.infimum
    assert (minimum.s_star, minimum.t_star, minimum.attained_by_witness, minimum.witness) == (
        r.s_star, r.t_star, r.attained_by_witness, r.witness)
    audit, a = zhang_audit(L), zhang_audit_coeff(L)
    assert (audit.e1, audit.e2, audit.h_curve, audit.violation_margin) == (
        gf * a.e1, gf * a.e2, gf * a.h_curve, gf * a.violation_margin)
    assert (audit.first_inequality_holds, audit.second_inequality_holds,
            audit.minima_attained) == (a.first_inequality_holds,
                                       a.second_inequality_holds, a.minima_attained)
    assert audit.violation_margin != 0


def literal(cls):
    """The command-line literal 'a,b,c' of a class."""
    return ",".join(map(str, cls.coefficients))


def run_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


@settings(max_examples=15, deadline=None)
@given(genera, positive, rationals, nonneg, nonneg, st.data())
def test_cli_matches_expanded_values(g, m, n, s, t, data):
    # The commands that render g! * r print what the public functions'
    # expanded Fractions print.
    L = nef_class(g, m, n, s, t)
    x = NSClass(g, *(data.draw(rationals) for _ in range(3)))
    point = nef_class(g, *(data.draw(part) for part in (positive, rationals, nonneg, nonneg)))
    classes = [x, L, *[NSClass(g, data.draw(nonneg), 1, 0)] * (g - 1)]
    index = data.draw(st.integers(1, 5))
    audit = zhang_audit(L)
    minimum = cone_minimum(L)
    records = [run_json(command, "-g", str(g), "-L", literal(L), "--format", "json")
               for command in ("audit", "minima", "curve-height")]
    options = ("-g", str(g), "--format", "json")
    pair = run_json("pair", *options, "--", literal(x), literal(L))
    intersect = run_json("intersect", *options, "--", *map(literal, classes))
    height = run_json("height", "-L", literal(L), *options, "--", literal(point))
    witness = run_json("witness", "-n", str(index), *options)
    with no_digit_limit():
        assert [records[0][key] for key in ("e1", "e2", "h", "mean", "margin")] == [
            str(audit.e1), str(audit.e2), str(audit.h_curve),
            str((audit.e1 + audit.e2) / 2), str(audit.violation_margin),
        ]
        assert records[1]["infimum"] == str(minimum.infimum)
        assert records[2]["height"] == str(height_curve(L))
        assert pair["value"] == str(pair_theta_power(x, L))
        assert intersect["value"] == str(top_intersect(classes))
        assert height["height"] == str(height_point(L, point))
        assert witness["height"] == str(height_point(
            standard_polarization(g), witness_sequence(g, index)))


def run_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def printing_commands(g):
    """(argv, expected JSON fields) of each command that prints g! * r, at
    genus g for the standard polarization, from ``math.factorial`` closed
    forms: e1 = (g - 1/g)(g - 1)!, the minimum, and h = (g - 1)(g - 1)!."""
    gf = factorial(g)
    e1, h = gf * Fraction(g * g - 1, g * g), gf * Fraction(g - 1, g)
    with no_digit_limit():
        e1_text, h_text = str(e1), str(h)
        e1_dec, h_dec = half_even_decimal(e1), half_even_decimal(h)
        gf_text, gf_7, margin = str(gf), str(gf * Fraction(1, 7)), str(e1 - h)
        gf_7_dec = half_even_decimal(gf * Fraction(1, 7))
    audit = {"e1": e1_text, "e2": e1_text, "h": h_text, "mean": e1_text,
             "margin": margin, "e1_dec": e1_dec, "h_dec": h_dec}
    G = str(g)
    return [
        (["audit", "-g", G], audit),
        (["table", G, G], audit),
        (["minima", "-g", G], {"infimum": e1_text, "infimum_dec": e1_dec}),
        (["curve-height", "-g", G], {"height": h_text, "height_dec": h_dec}),
        (["witness", "-g", G, "-n", "1"], {"height": e1_text}),
        # The first witness, whose height is the minimum.
        (["height", "-g", G, "--", f"{g ** 3},1,{g}"], {"height": e1_text, "height_dec": e1_dec}),
        (["pair", "-g", G, "1,0,0", "0,1/7,0"], {"value": gf_7, "decimal": gf_7_dec}),
        (["intersect", "-g", G, "--", "1,0,0", *["0,1,0"] * g],
         {"value": gf_text, "decimal": gf_text + ".000000"}),
    ]


class PassCounter:
    """Stands in for the CLI's exact context and records the name of each
    of its operations whose first operand has at least ``digits`` digits."""

    def __init__(self, context, digits):
        self.context, self.digits, self.calls = context, digits, []

    def __getattr__(self, name):
        method = getattr(self.context, name)

        def counted(first, *rest):
            if first.adjusted() + 1 >= self.digits:
                self.calls.append(name)
            return method(first, *rest)

        return counted


RECORD_PASSES = ["remainder", "divide_int", "multiply", "multiply", "multiply"]


@pytest.mark.parametrize("argv,passes", [
    (["audit", "-g", "1500"], RECORD_PASSES),
    (["table", "1500", "1501"], [*RECORD_PASSES, "multiply", *RECORD_PASSES]),
], ids=["audit", "table"])
def test_one_division_of_g_per_record(monkeypatch, argv, passes):
    # An audit record's three values, e1, h and the margin, share one
    # remainder and one division of g!, and each takes one multiply of the
    # quotient: five passes over g!'s digits, and a table's carry one more
    # between rows.  Both genera are composite, so every value is integral
    # and no annotation divides.  The quotient g!/d is a few digits shorter
    # than g!; the halves that build g! have about half its digits.
    counter = PassCounter(cli._EXACT, 0.9 * len(str(factorial(1500))))
    monkeypatch.setattr(cli, "_EXACT", counter)
    text = run_text(*argv, "--format", "json")
    assert counter.calls == passes
    assert "/" not in text


# A Decimal's exponent as ``str`` writes it ('1.2E+2'); 'VIOLATED' is not one.
EXPONENT = re.compile(r"E[+-]\d")


@pytest.mark.parametrize("g", [5, 25, 125, 625, 3125])
def test_no_exponent_at_trailing_zeros(g):
    # g! has g/5 + g/25 + ... trailing zeros, 781 of 9,567 digits at genus
    # 3125; normalized leaves keep them in g!'s exponent, and every value
    # printed, in text and JSON, is the full integer text of its closed form.
    for argv, fields in printing_commands(g):
        record = run_json(argv[0], "--format", "json", *argv[1:])
        record = record[0] if isinstance(record, list) else record
        text = run_text(*argv)
        assert EXPONENT.search(json.dumps(record)) is None and EXPONENT.search(text) is None
        assert {key: record[key] for key in fields} == fields, argv
        tokens = set(text.replace("(~", " ").replace(")", " ").replace(",", " ").split())
        assert set(fields.values()) <= tokens, argv


# Mersenne primes past any genus the tests use, so g! is a unit modulo each.
MODULI = (2**61 - 1, 2**89 - 1)


def check_scaled(text, gf, r, p):
    """The exact text N or N/D is g! * r, given gf = g! mod p: N b == g! a D
    (mod p) for r = a/b."""
    num, _, den = text.partition("/")
    assert residue(num, p) * r.denominator % p == gf * r.numerator * residue(den or "1", p) % p


def check_annotation(text, decimal, p):
    """``decimal`` is the six-place half-even rounding of the exact text
    N or N/D, whose denominator D is small: with A the decimal's digits
    without the point, s = N 10^6 - A D, lifted from its residue into
    (-p/2, p/2), has |2s| <= D, and on a tie A is even."""
    assert re.fullmatch(r"-?\d+\.\d{6}", decimal), decimal
    num, _, den = text.partition("/")
    D = int(den or "1")
    s = (residue(num, p) * 10**6 - residue(decimal.replace(".", ""), p) * D) % p
    s = s - p if 2 * s > p else s
    assert 2 * abs(s) <= D, decimal[-20:]
    if 2 * abs(s) == D:
        assert decimal[-1] in "02468"


def run_timed(*argv):
    """The text ``main`` writes for ``argv``, which must exit 0 within 2 s
    of CPU time.  g! has ~456,500 digits at genus 10^5: one conversion of
    it from binary takes seconds, which the bound refuses."""
    out = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    elapsed = time.process_time() - start
    assert status == 0
    assert elapsed < 2.0, f"took {elapsed:.2f} s of CPU time"
    return out.getvalue()


def check_audit_values(record, g):
    """The audit values of the standard polarization at genus g, each
    against its closed form modulo both primes, the annotations exactly."""
    e1, h = Fraction(g * g - 1, g * g), Fraction(g - 1, g)
    for p in MODULI:
        gf = factorial_mod(g, p)
        for key, r in [("e1", e1), ("e2", e1), ("mean", e1), ("h", h), ("margin", e1 - h)]:
            check_scaled(record[key], gf, r, p)
        check_annotation(record["e1"], record["e1_dec"], p)
        check_annotation(record["h"], record["h_dec"], p)


@pytest.mark.parametrize("g", [99_991, 100_000])
def test_audit_exact_at_genus_10_5(g):
    # The paper's closed forms at a prime genus, where e1 and the margin
    # have denominator g and their annotations take decimal_str's division,
    # and at 100,000, where every value is an integer.
    record = json.loads(run_timed("audit", "-g", str(g), "--format", "json"))
    assert ("/" in record["e1"]) == (g == 99_991)
    check_audit_values(record, g)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_table_exact_at_genus_10_5(fmt):
    # Two rows across the carry: the second multiplies the first's g! by
    # 100,000, and each row's values share one division of its g!.  The
    # text table is read back by its header; its cells hold no spaces.
    out = run_timed("table", "99999", "100000", "--format", fmt)
    if fmt == "json":
        rows = json.loads(out)
    else:
        header, *lines = out.splitlines()
        rows = [dict(zip(header.split(), line.split())) for line in lines]
    assert [int(row["g"]) for row in rows] == [99_999, 100_000]
    for row in rows:
        check_audit_values(row, int(row["g"]))


# The text output of each single-value command, read back into the fields
# of its JSON record.
TEXT_FIELDS = {
    "minima": re.compile(r"infimum (?P<infimum>\S+) \(~(?P<infimum_dec>\S+)\)\n"
                         r"t_star (?P<t_star>\S+), s_star (?P<s_star>\S+)\n"
                         r"attained by witness (?P<witness>\S+), degree \S+\n"),
    "curve-height": re.compile(r"curve height (?P<height>\S+) \(~(?P<height_dec>\S+)\)\n"),
    "witness": re.compile(r"(?P<class>\S+), degree (?P<degree>\S+), height (?P<height>\S+)\n"),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("g", [99_991, 100_000])
@pytest.mark.parametrize("argv", [["minima"], ["curve-height"], ["witness", "-n", "1"]],
                         ids=["minima", "curve-height", "witness"])
def test_single_values_exact_at_genus_10_5(argv, g, fmt):
    # The standard polarization's minimum and curve height against their
    # closed forms, the annotations exactly; the first witness, (g^3, 1, g),
    # attains the minimum, so its height is the infimum.
    out = run_timed(argv[0], "-g", str(g), *argv[1:], "--format", fmt)
    record = json.loads(out) if fmt == "json" else TEXT_FIELDS[argv[0]].fullmatch(out).groupdict()
    L = standard_polarization(g)
    t_star, s_star, infimum = cone_minimum_closed(L)
    witness = f"({g ** 3},1,{g})"
    key, r, annotation, small = {
        "minima": ("infimum", infimum, "infimum_dec",
                   {"t_star": str(t_star), "s_star": str(s_star), "witness": witness}),
        "curve-height": ("height", height_curve_closed(L), "height_dec", {}),
        "witness": ("height", infimum, None, {"class": witness, "degree": str(g ** 3)}),
    }[argv[0]]
    assert {name: record[name] for name in small} == small
    # At the prime genus the infimum is not an integer; the curve height is.
    assert ("/" in record[key]) == (g == 99_991 and r == infimum)
    for p in MODULI:
        check_scaled(record[key], factorial_mod(g, p), r, p)
        if annotation:
            check_annotation(record[key], record[annotation], p)


# A pseudo-effective point class whose b has a prime denominator past 10^5,
# which g! does not cancel, so its height and its pairing print a fraction
# and take ``decimal_str``'s division at both genera.
POINT = (Fraction(3, 2), Fraction(100_001, 100_003), Fraction(1, 1000))
POINT_TEXT = "(3/2,100001/100003,1/1000)"
# The text output of a command that prints one value, read back into the
# fields of its JSON record.
VALUE_FIELDS = {
    "height": re.compile(r"height (?P<height>\S+) \(~(?P<height_dec>\S+)\), degree (?P<degree>\S+)\n"),
    "pair": re.compile(r"(?P<value>\S+) \(~(?P<decimal>\S+)\)\n"),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("g", [99_991, 100_000])
@pytest.mark.parametrize("command", ["height", "pair"])
def test_pairings_exact_at_genus_10_5(command, g, fmt):
    # The point's height against the standard polarization, and its pairing
    # with (1,1,1), against the closed forms; the annotations exactly.
    x, L = NSClass(g, *POINT), standard_polarization(g)
    if command == "height":
        argv, key, annotation = [POINT_TEXT[1:-1]], "height", "height_dec"
        small = {"degree": "3/2", "point": POINT_TEXT, "bundle": f"({g},1,1)"}
        r, gfs = height_point_closed(L, x), [factorial_mod(g, p) for p in MODULI]
    else:
        argv, key, annotation = ["1,1,1", POINT_TEXT[1:-1]], "value", "decimal"
        small = {"x": "(1,1,1)", "y": POINT_TEXT}
        # The closed pairing holds its g! factor, so it is r against 1.
        r, gfs = pair_theta_power_closed(NSClass(g, 1, 1, 1), x), [1, 1]
    out = run_timed(command, "-g", str(g), *argv, "--format", fmt)
    record = json.loads(out) if fmt == "json" else VALUE_FIELDS[command].fullmatch(out).groupdict()
    if fmt == "text":  # of these, the text shows only the degree
        small = {name: small[name] for name in small.keys() & record.keys()}
    assert {name: record[name] for name in small} == small
    assert "/" in record[key]
    for p, gf in zip(MODULI, gfs):
        check_scaled(record[key], gf, r, p)
        check_annotation(record[key], record[annotation], p)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("g", [99_991, 100_000])
def test_repeated_intersect_exact_at_genus_10_5(g, fmt):
    # g+1 copies of one literal against the closed form; the JSON record
    # lists every input class.
    out = run_timed("intersect", "-g", str(g), *["1,2,1"] * (g + 1), "--format", fmt)
    if fmt == "json":
        record = json.loads(out)
        assert record["classes"] == ["(1,2,1)"] * (g + 1)
    else:
        record = VALUE_FIELDS["pair"].fullmatch(out).groupdict()
    r = repeated_intersect_coeff(NSClass(g, 1, 2, 1))
    for p in MODULI:
        check_scaled(record["value"], factorial_mod(g, p), r, p)
        check_annotation(record["value"], record["decimal"], p)


class TestResidueOracle:
    @pytest.mark.parametrize("n", [0, 7, -7, 10**4000, -(3**20000), factorial(5000)],
                             ids=["0", "7", "-7", "10^4000", "-3^20000", "5000!"])
    def test_matches_int(self, n):
        with no_digit_limit():
            text = str(n)
        assert [residue(text, p) for p in MODULI] == [n % p for p in MODULI]
        assert residue("+" + text.lstrip("-"), MODULI[0]) == abs(n) % MODULI[0]

    @pytest.mark.parametrize("text", ["", "-", "1_0", " 1", "1.5", "\u0661", "--1"])
    def test_refuses_what_is_not_a_decimal_integer(self, text):
        with pytest.raises(ValueError):
            residue(text, MODULI[0])

    def test_factorial_mod(self):
        assert [factorial_mod(g, 10**9 + 7) for g in (0, 1, 2, 10, 2000)] == [
            factorial(g) % (10**9 + 7) for g in (0, 1, 2, 10, 2000)]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 10**5 - 1), st.integers(1, 9))
    def test_one_changed_digit_is_caught(self, seed, position, shift):
        # A digit moved by k at place j moves the value by k 10^j, which no
        # prime past 10 divides, so either modulus alone catches it.
        digits = "".join(random.Random(seed).choices("0123456789", k=10**5))
        old = int(digits[position])
        changed = digits[:position] + str((old + shift) % 10) + digits[position + 1:]
        place = 10**5 - 1 - position
        for p in MODULI:
            moved = (residue(changed, p) - residue(digits, p)) % p
            assert moved != 0
            assert moved == ((old + shift) % 10 - old) * pow(10, place, p) % p

    @pytest.mark.parametrize("g", [4999, 5000])
    def test_checks_agree_with_int_conversion(self, g):
        # The residue checks accept what the int route accepts at a genus
        # where both run, and refuse an annotation one unit off.
        record = run_json("audit", "-g", str(g), "--format", "json")
        e1 = factorial(g) * Fraction(g * g - 1, g * g)
        with no_digit_limit():
            assert record["e1"] == str(e1) and record["e1_dec"] == half_even_decimal(e1)
        gf = factorial_mod(g, MODULI[0])
        check_scaled(record["e1"], gf, Fraction(g * g - 1, g * g), MODULI[0])
        check_annotation(record["e1"], record["e1_dec"], MODULI[0])
        whole, frac = record["e1_dec"].split(".")
        off = f"{whole}.{int(frac) ^ 1:06d}"  # the last digit moved by one
        with pytest.raises(AssertionError):
            check_annotation(record["e1"], off, MODULI[0])
        with pytest.raises(AssertionError):
            check_scaled(record["e1"], gf, Fraction(g * g - 1, g * g) + 1, MODULI[0])
