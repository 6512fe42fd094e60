"""Command-line interface: parsing, rendering, formats, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from decimal import Context, Decimal, Inexact, localcontext
from fractions import Fraction
from math import factorial, lcm, perm
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from curvejac import cli, heights, lattice, minima
from curvejac.cli import CLIError, decimal_str, main, parse_class
from curvejac.heights import standard_polarization
from curvejac.lattice import NSClass, as_fraction, top_intersect
from curvejac.minima import ZhangAudit, zhang_audit, zhang_audit_coeff

from oracles import (bad_record_strings, half_even_decimal, reference_intersect,
                     reference_read_plain, split_parse_class, split_parse_rational,
                     stdlib_json_line)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# 2^63: past the C long that math.factorial takes, on every platform.
HUGE_GENUS = str(2**63)
FACTORIAL_REFUSED = f"factorial() argument should not exceed {sys.maxsize}"


# Pieces of class literal components: signs, leading zeros, zero
# denominators, empty and spaced parts, underscores, newlines, other
# scripts' digits, 20-digit parts.
LITERAL_PIECES = st.sampled_from([
    "", "0", "1", "7", "00", "007", "12345678901234567890", "-", "+", "/", "/0",
    "/00", "/3", " ", "\n", "_", "1_0", ".", "a", "\u0661", "\uff12",
])
WELL_FORMED_PART = st.builds(
    "{}{}{}".format, st.sampled_from(["", "-", "+"]),
    st.sampled_from(["0", "1", "42", "007", "12345678901234567890"]),
    st.sampled_from(["", "/1", "/6", "/0", "/00", "/000123", "/98765432109876543210"]),
)
LITERAL_PART = st.one_of(WELL_FORMED_PART, st.lists(LITERAL_PIECES, max_size=4).map("".join))
# Mostly three components, as a class literal has.
CLASS_LITERALS = st.sampled_from([3, 3, 3, 1, 2, 4, 5]).flatmap(
    lambda n: st.lists(LITERAL_PART, min_size=n, max_size=n)).map(",".join)


# One character of a rational literal inserted, deleted or replaced: the
# grammar's characters, and the decimal point, exponents, whitespace,
# underscores and other scripts' digits that ``Fraction(str)`` also reads.
EDIT_CHARS = st.sampled_from([*"0123456789+-/.eE _\n", "\u0663", "\uff12"])


@st.composite
def edited_parts(draw):
    """A well-formed rational literal with one character edited."""
    text = draw(WELL_FORMED_PART)
    i = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    new = "" if edit == "delete" else draw(EDIT_CHARS)
    return text[:i] + new + text[i + (edit != "insert"):]


# Texts outside the rational grammar, most of which ``Fraction(str)`` reads.
OUTSIDE_GRAMMAR = ["1.5", "1e3", " 1/2 ", "1_000", "\u0663", "1/\u0663", "1/0", "1E-2", ".5", "inf"]


def parse_outcome(parse, *args):
    """What ``parse(*args)`` returns, or the type and text of what it raises."""
    try:
        return parse(*args)
    except (CLIError, ValueError) as err:
        return type(err), str(err)


def written_integers(text):
    """The six integers of a well-formed class literal, as written."""
    parts = [(part.split("/") + ["1"])[:2] for part in text.split(",")]
    return tuple(int(x) for part in parts for x in part)


class TestParsing:
    # The command line reads every rational with ``lattice.as_fraction``,
    # which raises ValueError; ``main`` prints it as a diagnostic.
    def test_rational_literals(self):
        assert as_fraction("3/2") == Fraction(3, 2)
        assert as_fraction("-3/2") == Fraction(-3, 2)
        assert as_fraction("+7") == 7
        assert as_fraction("4/6") == Fraction(2, 3)

    @pytest.mark.parametrize(
        "bad",
        ["", "1/0", "1.5", "1 /2", "a", "1/-2", "--3", "1\n", "3/4\n",
         "\u0661", "\uff12", "1/\u0663",  # Arabic-Indic 1, fullwidth 2, 1/(Arabic-Indic 3)
         "1e3", " 1/2 ", "1_000", "1e10000000"],
    )
    def test_malformed_rationals(self, bad):
        with pytest.raises(ValueError):
            as_fraction(bad)

    def test_class_literals(self):
        cls = parse_class("2,1,1", 2)
        assert cls.coefficients == (2, 1, 1)
        with pytest.raises(CLIError):
            parse_class("2,1", 2)
        with pytest.raises(CLIError):
            parse_class("2,1,1,0", 2)

    @given(st.fractions(min_value=-1000, max_value=1000, max_denominator=977))
    def test_round_trip(self, x):
        assert as_fraction(str(x)) == x

    @settings(max_examples=400, deadline=None)
    @given(WELL_FORMED_PART | edited_parts() | st.sampled_from(OUTSIDE_GRAMMAR))
    def test_string_grammar_matches_split_parse(self, text):
        # A string is read in the grammar, to the split route's Fraction,
        # or refused with its exact diagnostic: one grammar for the library
        # and the command line.
        assert parse_outcome(as_fraction, text) == parse_outcome(split_parse_rational, text)

    @settings(max_examples=600, deadline=None)
    @given(CLASS_LITERALS)
    @example("1/0,x,1")  # the first bad component words the diagnostic
    @example("x,1/00,1")
    @example("1,2/0,3/0")
    @example("1,1,1\n")
    @example("-007/0006,+0,12345678901234567890/98765432109876543210")
    def test_matches_split_parse(self, text):
        # The one-match parse gives the split route's class, or its exact
        # diagnostic; each component is compared the same way.  The integer
        # reader behind both gives the same components, as written, or the
        # same diagnostic.
        split = parse_outcome(split_parse_class, text, 2)
        assert parse_outcome(parse_class, text, 2) == split
        ints = parse_outcome(cli._class_integers, [text])
        if isinstance(split, NSClass):
            assert ints == [written_integers(text)]
            [ints] = ints
            assert tuple(map(Fraction, ints[::2], ints[1::2])) == split.coefficients
        else:
            assert ints == split
        for part in text.split(","):
            assert parse_outcome(as_fraction, part) == parse_outcome(split_parse_rational, part)


def annotation(x: Fraction) -> str:
    """``decimal_str`` of a Fraction, handed as its exact Decimal numerator
    and denominator, as the command line hands each value it prints."""
    return decimal_str(Decimal(x.numerator), Decimal(x.denominator))


class TestDecimalAnnotation:
    def test_basic(self):
        assert annotation(Fraction(3, 2)) == "1.500000"
        assert annotation(Fraction(16, 3)) == "5.333333"
        assert annotation(Fraction(-1, 2)) == "-0.500000"
        assert annotation(Fraction(-16, 3)) == "-5.333333"
        assert annotation(Fraction(700)) == "700.000000"

    def test_zero(self):
        assert annotation(Fraction(0)) == "0.000000"
        assert decimal_str(Decimal("-0"), Decimal(7)) == "0.000000"

    def test_round_half_even(self):
        assert annotation(Fraction(1, 2_000_000)) == "0.000000"
        assert annotation(Fraction(3, 2_000_000)) == "0.000002"
        assert annotation(Fraction(-3, 2_000_000)) == "-0.000002"
        assert annotation(Fraction(-1, 2_000_000)) == "0.000000"
        assert annotation(Fraction(5, 2)) == "2.500000"
        assert annotation(Fraction(2_000_001, 2_000_000)) == "1.000000"
        assert annotation(Fraction(-2_000_003, 2_000_000)) == "-1.000002"

    @given(st.one_of(
        st.builds(Fraction, st.integers(), st.integers(min_value=1)),
        # n/(2*10^k): the ties at six places, and their neighbours
        st.builds(lambda n, k, d: Fraction(n, 2 * 10**k) + d, st.integers(),
                  st.sampled_from([6, 3, 9]),
                  st.sampled_from([0, Fraction(1, 10**12), Fraction(-1, 10**12)])),
        st.builds(Fraction, st.integers()),
        # a denominator longer than the numerator
        st.builds(Fraction, st.integers(-999, 999), st.integers(10**6, 10**40)),
        # past CPython's default 4300-digit limit
        st.builds(lambda n, d: Fraction(n * 10**4300 + 1, d),
                  st.integers(-10**40, 10**40), st.integers(1, 10**5)),
    ))
    @example(Fraction(-1, 2_000_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_int_divmod(self, x):
        # A low ambient precision shows that no step rounds in the caller's
        # decimal context.
        with digit_limit(0), localcontext(Context(prec=3)):
            assert annotation(x) == half_even_decimal(x)

    def test_rounding_step_raises(self):
        # decimal_str's context raises rather than round, so an inexact
        # step cannot reach the output.
        with pytest.raises(Inexact):
            cli._EXACT.quantize(Decimal("1.5"), Decimal(1))


class TestTable:
    def test_golden_csv(self, capsys):
        code, out, err = run_cli(capsys, "table", "2", "6", "--format", "csv")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "table_2_6.csv").read_text()

    def test_byte_identical_reruns(self, capsys):
        first = run_cli(capsys, "table", "2", "5", "--format", "csv")
        second = run_cli(capsys, "table", "2", "5", "--format", "csv")
        assert first == second

    def test_default_range(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv")
        rows = out.strip().splitlines()
        assert code == 0
        assert len(rows) == 1 + 11  # header plus genus 2..12
        assert rows[1].startswith("2,") and rows[-1].startswith("12,")

    def test_asks_for_one_factorial(self, capsys, monkeypatch):
        # Each command that prints g!-sized values builds g! once, as one
        # product tree whose leaves cover 1..g in order, once each; a table
        # carries it from row to row.  The library's factorial is never
        # asked for: the command line goes through the _coeff functions.  At
        # genus 5000, a tree of many leaves, no int wider than a leaf's
        # 1000 bits is converted to Decimal (r's denominators here are
        # small), so g! is never converted from binary.
        calls, leaves, converted = [], [], []

        def counted(g):
            calls.append(g)
            return factorial(g)

        def leaf(n, k):
            leaves.extend(range(n - k + 1, n + 1))
            return perm(n, k)

        def to_decimal(value, original=Decimal):
            converted.append(value)
            return original(value)

        for module in (lattice, heights, minima):
            monkeypatch.setattr(module, "factorial", counted)
        monkeypatch.setattr(cli, "perm", leaf)
        monkeypatch.setattr(cli, "Decimal", to_decimal)
        for g, argv in (
            (2, ["table", "2", "50"]),
            (4990, ["table", "4990", "5000"]),
            (5000, ["audit", "-g", "5000"]),
            (5000, ["minima", "-g", "5000"]),
            (5000, ["curve-height", "-g", "5000"]),
            (5000, ["pair", "-g", "5000", "1,1,1", "5000,1,1"]),
            (3, ["intersect", "-g", "3", "1,1,1", "3,1,1", "0,1,0", "0,1,0"]),
            (5000, ["height", "-g", "5000", "5000,1,1"]),
            (5000, ["witness", "-g", "5000", "-n", "2"]),
        ):
            calls.clear()
            leaves.clear()
            converted.clear()
            assert run_cli(capsys, *argv)[0] == 0, argv
            assert calls == [], argv
            assert leaves == list(range(1, g + 1)), argv
            assert max(value.bit_length() for value in converted) <= 1000, argv

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["g"] for row in rows] == [2, 3]
        assert rows[0] == {
            "g": 2, "e1": "3/2", "e2": "3/2", "h": "1", "mean": "3/2",
            "margin": "1/2", "e1_dec": "1.500000", "h_dec": "1.000000",
        }

    def test_text_contains_all_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "3")
        header = out.splitlines()[0].split()
        assert code == 0
        assert header == ["g", "e1", "e2", "h", "mean", "margin", "e1_dec", "h_dec"]

    def test_invalid_ranges_leave_no_partial_output(self, capsys):
        for argv in (["table", "5", "3"], ["table", "1", "4"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1


class TestAudit:
    def test_genus_two_text(self, capsys):
        code, out, err = run_cli(capsys, "audit", "-g", "2")
        assert code == 0 and err == ""
        assert "3/2" in out
        assert "1" in out
        assert "1/2" in out
        assert "second inequality VIOLATED by 1/2" in out
        assert "first inequality holds" in out

    def test_json_record(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "-g", "3", "--format", "json")
        record = json.loads(out)
        assert code == 0
        assert record["e1"] == "16/3"
        assert record["h"] == "4"
        assert record["margin"] == "4/3"
        assert record["first_inequality_holds"] is True
        assert record["second_inequality_holds"] is False
        assert record["minima_attained"] is True

    def test_explicit_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "-g", "2", "-L", "8,1,2")
        assert code == 0
        assert "e1 = 3/2" in out

    @pytest.mark.parametrize(
        "argv,g_min", [(["audit", "-g", "5"], 5), (["table", "2", "40"], 2)]
    )
    def test_factorial_converted_once(self, capsys, monkeypatch, argv, g_min):
        # The ints the command hands to Decimal are g!, once, as the one
        # leaf of its tree (genus <= 100), and for each record the common
        # denominator q of its values (e1 = e2 = mean, h and the margin),
        # once: g! is divided by gcd(g!, q) once per record, and each
        # value's reduced denominator is q divided in decimal, with no
        # conversion of its own.  No text is parsed back.  An integral
        # value's annotation is its exact text plus '.000000', without
        # ``decimal_str``; only a value with a denominator other than 1 is
        # handed to it, its numerator once, with the denominator.
        converted, handed = [], []

        def to_decimal(value, original=Decimal):
            converted.append(value)
            return original(value)

        def decimal(num, den, original=cli.decimal_str):
            handed.append(cli._exact_text(num, den))
            return original(num, den)

        monkeypatch.setattr(cli, "Decimal", to_decimal)
        monkeypatch.setattr(cli, "decimal_str", decimal)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        records = json.loads(out)
        records = records if isinstance(records, list) else [records]
        genera = [record.get("genus", record.get("g")) for record in records]
        audits = [zhang_audit_coeff(standard_polarization(g)) for g in genera]
        assert converted == [factorial(g_min)] + [
            lcm(a.e1.denominator, a.h_curve.denominator) for a in audits
        ]
        values = [(record[key], record[key + "_dec"]) for record in records for key in ("e1", "h")]
        assert handed == [value for value, _ in values if "/" in value]
        for value, annotation in values:
            if "/" not in value:
                assert annotation == value + ".000000"
        # e1 = (g - 1)! (g^2 - 1) / g is integral exactly when g divides
        # (g - 1)!: at every composite genus but 4 (Wilson's theorem), and h
        # always is.  So ``audit -g 5`` hands only e1 = 576/5 to
        # ``decimal_str``, and ``table 2 40`` the e1 of genus 4 and the primes.
        fractional = [g for g in genera if g == 4 or all(g % p for p in range(2, g))]
        assert handed == [record["e1"] for g, record in zip(genera, records) if g in fractional]
        with digit_limit(0):
            for g, record in zip(genera, records):
                audit = zhang_audit(standard_polarization(g))
                assert (record["e1"], record["h"]) == (str(audit.e1), str(audit.h_curve))
                assert (record["e1_dec"], record["h_dec"]) == (
                    half_even_decimal(audit.e1), half_even_decimal(audit.h_curve))

    def test_table_renders_no_bundle(self, capsys, monkeypatch):
        # Table rows carry no bundle column, so no class is rendered.
        rendered = []

        def render(cls, original=NSClass.__str__):
            rendered.append(cls)
            return original(cls)

        monkeypatch.setattr(NSClass, "__str__", render)
        assert run_cli(capsys, "table", "2", "4")[0] == 0
        assert rendered == []


@pytest.mark.parametrize("fmt,renders", [("text", 0), ("json", 11)])
def test_intersect_renders_classes_for_json_only(capsys, monkeypatch, fmt, renders):
    # The literals go straight to integers: no format builds a class, and
    # only the JSON record renders the g+1 inputs, in lowest terms.  Half
    # of these 24 parts repeat an earlier one, so each of the 11 distinct
    # parts is rendered once.
    built, rendered = [], []

    def build(cls, *args, original=NSClass.__init__):
        built.append(args)
        original(cls, *args)

    def render(*ints, original=cli._ratio_text):
        rendered.append(ints)
        return original(*ints)

    monkeypatch.setattr(NSClass, "__init__", build)
    monkeypatch.setattr(cli, "_ratio_text", render)
    classes = ["2/4,+1,-0", "0,1,0", "0,1,-1", "2,1,1", "0/7,06/6,0", "-3/9,1,1/1",
               "0,1,0", "0,1,0"]
    code, out, _ = run_cli(capsys, "intersect", "-g", "7", "--format", fmt, "--", *classes)
    assert code == 0
    assert (built, len(rendered)) == ([], renders)
    reduced = ["1/2,1,0", "0,1,0", "0,1,-1", "2,1,1", "0,1,0", "-1/3,1,1", "0,1,0", "0,1,0"]
    value = str(top_intersect([NSClass(7, *map(Fraction, c.split(","))) for c in reduced]))
    if fmt == "json":
        record = json.loads(out)
        assert record["classes"] == [f"({text})" for text in reduced]
        assert record["value"] == value
    else:
        assert out.startswith(f"{value} (~")


def test_intersect_renders_each_part_when_few_repeat(capsys, monkeypatch):
    # 7 of these 18 parts repeat, under half: a lookup would cost more than
    # the parses and texts it saves, so each part is rendered on its own.
    rendered = []

    def render(*ints, original=cli._ratio_text):
        rendered.append(ints)
        return original(*ints)

    monkeypatch.setattr(cli, "_ratio_text", render)
    classes = ["2/4,+1,-0", "0,1,0", "0,1,-1", "2,1,1", "0/7,06/6,0", "-3/9,1,1/1"]
    code, out, _ = run_cli(capsys, "intersect", "-g", "5", "--format", "json", "--", *classes)
    assert (code, len(rendered)) == (0, 18)
    assert json.loads(out)["classes"][0] == "(1/2,1,0)"


# Parts of intersect's class literals: -0, signs, leading zeros, unreduced
# p/q, and parts past CPython's 4300-digit limit; then parts that spoil one.
INTERSECT_PARTS = st.sampled_from([
    "0", "-0", "+3", "-5", "007", "-0012/0004", "2/4", "+6/3", "10/15", "0/9",
    "9" * 4301, "-1/" + "3" * 4301, "7" * 4400 + "/" + "0" * 50 + "2" * 4350,
])
# Arabic-Indic 1 and fullwidth 2; then forms made only of digits, signs and
# slashes, which the reader's shape check lets through to its later checks.
BAD_PARTS = st.sampled_from(["1/0", "-3/00", "0/0", "", "x", "1.5", "1/-2", "+-1", " 1",
                            "\u0661", "1/\uff12",
                            "1/+2", "1/2/3", "/2", "1/", "1+2", "+", "-", "1_0"])
BAD_LITERALS = st.sampled_from(["1,1", "1,1,1,1", "bad", "1,1,1\n", ""])
# Tokens that hold a newline: joined by newlines, they would pass for more literals.
NEWLINE_LITERALS = st.sampled_from(["1,1,1\n1,1,1", "1,1,1\n", "\n1,1,1", "\n", "1\n,1,1",
                                    "2/4,1,1\n\n0,1,0"])


@st.composite
def intersect_cases(draw):
    """(genus, literals, format): g+1 literals or one or two more or fewer,
    with up to two spoiled by a bad component or a bad comma count."""
    g = draw(st.sampled_from([0, 1, 2, 2, 3, 3, 4, 4]))
    count = max(1, g + 1 + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1, 2])))
    literals = [",".join(draw(st.lists(INTERSECT_PARTS, min_size=3, max_size=3)))
                for _ in range(count)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, count - 1))
        if draw(st.booleans()):
            parts = literals[i].split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(BAD_PARTS)
            literals[i] = ",".join(parts)
        else:
            literals[i] = draw(BAD_LITERALS)
    return g, literals, draw(st.sampled_from(["text", "json"]))


@settings(max_examples=200, deadline=None)
@given(intersect_cases())
@example((1, ["1,1,1", "bad"], "text"))  # the genus check follows the first literal
@example((1, ["bad", "1,1,1"], "text"))
@example((0, ["1,1,1", "1,1/0,1"], "json"))
@example((2, ["1/0,2/0,1", "1,1,3/0", "x"], "text"))  # the first zero denominator
@example((2, ["1,1,3/0", "1,1,1", "1,1,1", "1,1,1"], "json"))  # before the count
@example((3, ["2/4,+1,-0", "0,2/2,0", "0,1,0", "0,1,0"], "json"))
@example((1, ["1,1,1\n1,1,1"], "text"))  # one token, not g+1 literals
@example((2, ["1,1,1\n1,1,1", "0,1,0"], "json"))
# Runs whose parts mostly repeat, read once per distinct part: past the
# recurrence's 64-factor leaf then a bad literal, a part that is bad in two
# literals, and distinct texts of equal value.
@example((70, ["0,1,0"] * 70 + ["0,1/0,0"], "json"))
@example((3, ["1,1,1", "2,1/0,1", "1,1,1", "1/+2,1/0,1"], "text"))
@example((3, ["2/4,+1,1", "1/2,01,1", "1,2/4,01", "+1,1/2,1"], "json"))
def test_intersect_matches_reference(case):
    # Exit status, stdout and stderr of intersect equal those of a reference
    # that builds each class by the split parse and calls top_intersect.
    g, literals, fmt = case
    with digit_limit(0):
        expected = reference_intersect(g, literals, fmt)
    argv = ["intersect", "-g", str(g), "--format", fmt, "--", *literals]
    assert outcome(main, argv) == expected


@st.composite
def literal_runs(draw):
    """One to five class literals of ``INTERSECT_PARTS``, up to two of them
    spoiled by a bad component, a bad comma count or a newline."""
    literal = st.lists(INTERSECT_PARTS, min_size=3, max_size=3).map(",".join)
    literals = draw(st.lists(literal, min_size=1, max_size=5))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(literals) - 1))
        spoil = draw(st.sampled_from(["part", "literal", "newline", "joined"]))
        if spoil == "part":
            parts = literals[i].split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(BAD_PARTS)
            literals[i] = ",".join(parts)
        elif spoil == "literal":
            literals[i] = draw(BAD_LITERALS)
        elif spoil == "newline":
            literals[i] = draw(NEWLINE_LITERALS)
        else:  # two good literals in one token
            literals[i] += "\n" + draw(literal)
    return literals


@settings(max_examples=300, deadline=None)
@given(literal_runs())
@example(["1,1,1\n1,1,1"])  # six rationals from one token
@example(["1,1,1\n1,1,1", "0,1,0"])
@example(["1,1,1", "\u0661,1,1"])
@example(["1,1,1", "1,1/0,1"])
@example(["-0012/0004,+3,0/9", "2/4,-0,007"])
@example(["1,2\n3", "4,5"])  # six parts for two literals, but no line of three
@example(["1,1,1", "1/+2,1,1"])  # one per check after the shape's
@example(["1,1,1", "1,1/-2,1"])
@example(["1,1,1", "1,1,1/2/3"])
@example(["1,1,1", "/2,1,1"])
@example(["1,1,1", "1,1+2,1"])
@example(["0,1,0"] * 70 + ["0,1/0,0"])  # parts that mostly repeat, then a bad literal
@example(["1,1,1", "2,1/0,1", "1,1,1", "1/+2,1/0,1"])  # literal 2's diagnostic, not 4's
@example(["2/4,+1,1", "1/2,01,1", "1,2/4,01", "+1,1/2,1"])  # each text's own integers
def test_run_reader_matches_per_literal(texts):
    # One pass over the run gives each literal's integers as written, or
    # exactly the diagnostic of the first literal that the split route
    # refuses.
    with digit_limit(0):
        run = parse_outcome(cli._class_integers, texts)
        for text in texts:
            split = parse_outcome(split_parse_class, text, 2)
            if not isinstance(split, NSClass):
                assert run == split
                return
        assert run == [written_integers(text) for text in texts]


def test_every_class_literal_goes_through_the_reader(capsys, monkeypatch):
    # One reader takes every class literal: a good intersect run in one
    # call, each other command's literals one call each.  A malformed run
    # gets its first bad literal's diagnostic after the first literal is
    # read again, for the genus check.
    read = []

    def reader(texts, original=cli._read_classes):
        read.append(list(texts))
        return original(texts)

    monkeypatch.setattr(cli, "_read_classes", reader)
    good = ["1,1,1", "2/4,1,-1", "0,1,0"]
    assert run_cli(capsys, "intersect", "-g", "2", *good)[0] == 0
    assert read == [good]
    read.clear()
    bad = ["1,1,1", "2/4,1,-1", "0,1/0,0"]
    code, _, err = run_cli(capsys, "intersect", "-g", "2", *bad)
    assert (code, err) == (2, "error: zero denominator in rational literal '1/0'\n")
    assert read == [bad, ["1,1,1"]]
    for argv, literals in [
        (["pair", "-g", "2", "1,1,1", "2/4,1,-1"], ["1,1,1", "2/4,1,-1"]),
        (["height", "-g", "2", "-L", "3,1,1", "1,0,0"], ["3,1,1", "1,0,0"]),
        (["audit", "-g", "2", "-L", "3,1,1"], ["3,1,1"]),
        (["minima", "-g", "2", "-L", "3,1,1"], ["3,1,1"]),
        (["curve-height", "-g", "2", "-L", "3,1,1"], ["3,1,1"]),
    ]:
        read.clear()
        assert run_cli(capsys, *argv)[0] == 0, argv
        assert read == [[text] for text in literals], argv


class TestClassify:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            (("2", "1", "1"), "boundary (nef, not ample), defect 0"),
            (("0", "0", "0"), "boundary (apex)"),
            (("1", "1", "1"), "outside (defect -1)"),
            (("3", "1", "1"), "interior (ample and big), defect 1"),
        ],
    )
    def test_text_outputs(self, capsys, coeffs, expected):
        a, b, c = coeffs
        code, out, _ = run_cli(capsys, "classify", "-g", "2", "-a", a, "-b", b, "-c", c)
        assert code == 0
        assert out.strip() == expected

    def test_negative_coefficient_via_long_flag(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "-g", "2", "--a=-1", "-b", "1", "-c", "0")
        assert code == 0
        assert out.startswith("outside")

    def test_negative_rational_after_short_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "-g", "2", "-a", "1", "-b", "1", "-c", "-1/2"
        )
        assert (code, err) == (0, "")
        assert out.strip() == "interior (ample and big), defect 1/2"
        # The '--c=-1/2' form reads the same.
        assert run_cli(
            capsys, "classify", "-g", "2", "-a", "1", "-b", "1", "--c=-1/2"
        ) == (code, out, err)

    def test_json_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "-g", "2", "-a", "2", "-b", "1", "-c", "1",
            "--format", "json",
        )
        record = json.loads(out)
        assert record["region"] == "boundary"
        assert record["is_nef"] is True and record["is_ample"] is False
        assert record["is_psef"] is True and record["is_big"] is False
        assert record["defect"] == "0"


class TestValueCommands:
    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "-g", "2", "1,1,1", "2,1,1")
        assert code == 0
        assert out.strip() == "2 (~2.000000)"

    def test_pair_negative_value(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "-g", "3", "0,0,1", "0,0,1")
        assert code == 0
        assert out.strip() == "-12 (~-12.000000)"

    def test_pair_negative_class_literal(self, capsys):
        code, out, err = run_cli(capsys, "pair", "-g", "2", "-1,1,0", "1,1,1")
        assert (code, err) == (0, "")
        assert out.strip() == "0 (~0.000000)"
        code, out, _ = run_cli(capsys, "pair", "-g", "2", "-1,1,0", "-1/2,1,1")
        assert out.strip() == "-3 (~-3.000000)"

    def test_negative_literals_after_separator(self, capsys):
        code, out, err = run_cli(
            capsys, "intersect", "-g", "2", "--", "-1,1,0", "1,1,1", "0,1,0"
        )
        assert (code, err) == (0, "")
        assert out.strip() == "0 (~0.000000)"

    def test_intersect(self, capsys):
        code, out, _ = run_cli(capsys, "intersect", "-g", "2", "0,1,0", "0,1,0", "0,1,0")
        assert code == 0
        assert out.strip() == "0 (~0.000000)"

    def test_intersect_wrong_count(self, capsys):
        code, out, err = run_cli(capsys, "intersect", "-g", "2", "0,1,0", "0,1,0")
        assert code == 2
        assert out == ""
        assert "error:" in err and err.count("\n") == 1

    def test_pullback(self, capsys):
        code, out, _ = run_cli(capsys, "pullback", "-g", "3", "-m", "2", "-n", "5")
        assert code == 0
        assert out.strip() == "(12,25,10)"
        code, out, _ = run_cli(capsys, "pullback", "-g", "2", "-m", "0", "-n", "1")
        assert out.strip() == "(0,1,0)"

    def test_pullback_negative_rational(self, capsys):
        code, out, err = run_cli(capsys, "pullback", "-g", "2", "-m", "-1/2", "-n", "1")
        assert (code, err) == (0, "")
        assert out.strip() == "(1/2,1,-1/2)"

    def test_pullback_rational_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "pullback", "-g", "2", "-m", "1/2", "-n", "3", "--format", "json"
        )
        record = json.loads(out)
        assert record["class"] == "(1/2,9,3/2)"

    def test_witness(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "-g", "2", "-n", "1")
        assert code == 0
        assert out.strip() == "(8,1,2), degree 8, height 3/2"

    def test_height(self, capsys):
        code, out, _ = run_cli(capsys, "height", "-g", "2", "8,1,2")
        assert code == 0
        assert out.strip() == "height 3/2 (~1.500000), degree 8"

    def test_curve_height(self, capsys):
        code, out, _ = run_cli(capsys, "curve-height", "-g", "5")
        assert code == 0
        assert out.strip() == "curve height 96 (~96.000000)"

    def test_minima(self, capsys):
        code, out, _ = run_cli(capsys, "minima", "-g", "2", "-L", "8,1,2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "infimum 3/2 (~1.500000)"
        assert lines[1] == "t_star 1/8, s_star 1/32"
        assert lines[2] == "attained by witness (32,1,4), degree 32"

    def test_minima_converts_each_component_once(self, capsys, monkeypatch):
        # The witness's degree is its class's first component, printed from
        # that component's text: three conversions for the bundle, two for
        # s* and t*, three for the witness.  A Fraction is converted by str
        # or by an f-string's format, which calls str on Python 3.10-3.12,
        # so only the outermost call counts.
        converted, depth = [], [0]

        def counting(method):
            def convert(x, *spec):
                if not depth[0]:
                    converted.append(x)
                depth[0] += 1
                try:
                    return method(x, *spec)
                finally:
                    depth[0] -= 1
            return convert

        for name in ("__str__", "__format__"):
            monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
        code, out, _ = run_cli(capsys, "minima", "-g", "2", "-L", "8,1,2")
        assert code == 0 and out.endswith("attained by witness (32,1,4), degree 32\n")
        assert len(converted) == 8

    def test_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "-g", "2", "-a", "3", "-b", "1", "-c", "1")
        assert code == 0
        assert out.strip() == "boundary part (2,1,1), alpha1 excess 1"
        code, out, _ = run_cli(capsys, "decompose", "-g", "2", "-a", "5", "-b", "0", "-c", "0")
        assert out.strip() == "degenerate (b = 0): boundary part (0,0,0), alpha1 excess 5"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "-g", "1", "-a", "1", "-b", "0", "-c", "0"],
            ["pair", "-g", "2", "1,1", "2,1,1"],
            ["pair", "-g", "2", "1,1,1/0", "2,1,1"],
            ["height", "-g", "2", "0,1,0"],
            ["minima", "-g", "2", "-L", "1,1,1"],
            ["witness", "-g", "2", "-n", "0"],
            ["curve-height", "-g", "2", "-L", "0,1,0"],
            ["audit", "-g", "2", "--format", "csv"],
            ["audit", "-g", "2", "3\n"],  # argparse echoes the stray token
            ["nonsense"],
        ],
    )
    def test_single_line_diagnostics(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            *(pytest.param(argv, FACTORIAL_REFUSED, id=argv[0]) for argv in [
                ["audit", "-g", HUGE_GENUS],
                ["minima", "-g", HUGE_GENUS],
                ["curve-height", "-g", HUGE_GENUS],
                ["height", "-g", HUGE_GENUS, "1,1,0"],
                ["pair", "-g", HUGE_GENUS, "1,1,1", "1,1,1"],
                ["witness", "-g", HUGE_GENUS, "-n", "1"],
                ["table", HUGE_GENUS, HUGE_GENUS],
            ]),
            # g! is built after the kernel has run, so an input refused for
            # its own sake gets that diagnostic at any genus.  pair's kernel
            # refuses nothing, so its input is refused by the literal reader,
            # and table's by its range check.
            *(pytest.param(argv, message, id=f"{argv[0]}-refused") for argv, message in [
                (["audit", "-g", HUGE_GENUS, "-L", "1,1,1"],
                 f"cone_minimum needs a nef class, got (1,1,1) with defect {1 - 2**63}"),
                (["minima", "-g", HUGE_GENUS, "-L", "1,1,1"],
                 f"cone_minimum needs a nef class, got (1,1,1) with defect {1 - 2**63}"),
                (["curve-height", "-g", HUGE_GENUS, "-L", "0,1,0"],
                 "curve height needs positive generic degree, got 0"),
                (["height", "-g", HUGE_GENUS, "0,1,0"],
                 "point class needs positive degree, got a = 0"),
                (["pair", "-g", HUGE_GENUS, "1,1/0,1", "1,1,1"],
                 "zero denominator in rational literal '1/0'"),
                (["intersect", "-g", HUGE_GENUS, "1,1,1"],
                 f"top_intersect at genus {HUGE_GENUS} needs exactly {2**63 + 1} classes,"
                 " got 1"),
                (["witness", "-g", HUGE_GENUS, "-n", "0"],
                 "witness index must be a positive integer, got 0"),
                (["table", HUGE_GENUS, "2"], f"empty table range: {HUGE_GENUS} > 2"),
            ]),
        ],
    )
    def test_genus_past_factorial(self, capsys, argv, message):
        # math.factorial refuses 2^63 with OverflowError: a diagnostic, not
        # a traceback.
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_genus_past_factorial_exits_at_once(self):
        # The genus is checked before any work on g!, so a whole process
        # ends at once, with math.factorial's words.
        result = subprocess.run(
            [sys.executable, "-m", "curvejac", "audit", "-g", HUGE_GENUS],
            capture_output=True, text=True, timeout=10,
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            f"error: factorial() argument should not exceed {sys.maxsize}\n")

    def test_csv_rejected_before_computing(self, capsys, monkeypatch):
        def no_audit(L):
            raise AssertionError("audit computed before the format was checked")

        monkeypatch.setattr(cli, "zhang_audit_coeff", no_audit)
        code, out, err = run_cli(capsys, "audit", "-g", "2", "--format", "csv")
        assert (code, out) == (2, "")
        assert err == "error: csv output is only available for the 'table' command\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "-g", "\uff12"],  # fullwidth 2
            ["pair", "-g", "2", "\u0661,1,1", "2,1,1"],  # Arabic-Indic 1
            ["classify", "-g", "2", "-a", "\uff12", "-b", "1", "-c", "1"],
            ["witness", "-g", "2", "-n", "\u0661"],
            ["table", "\uff12", "4"],
            ["table", "2", "\u0664"],  # Arabic-Indic 4
        ],
    )
    def test_non_ascii_digits(self, capsys, argv):
        # int() and \d take any script's decimal digits; literals here are ASCII.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["audit", "-g", "1_0"], "argument -g/--genus: invalid int value: '1_0'"),
            (["audit", "-g", " 3"], "argument -g/--genus: invalid int value: ' 3'"),
            (["audit", "-g", "3\n"], "argument -g/--genus: invalid int value: '3\\n'"),
            (["audit", "-g", "4/2"], "argument -g/--genus: invalid int value: '4/2'"),
            (["witness", "-g", "2", "-n", "1_0"],
             "argument -n/--index: invalid int value: '1_0'"),
            (["table", "2_0", "2_1"], "argument g_min: invalid int value: '2_0'"),
            (["audit", "-g", "-3"], "genus must be >= 2, got -3"),
        ],
    )
    def test_integer_arguments_read_as_literals(self, capsys, argv, message):
        # An integer argument is a rational literal's integer part, which
        # int() alone widens by underscores and surrounding whitespace.
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_integer_argument_forms(self, capsys):
        # A sign and leading zeros are part of the literal form.
        expected = run_cli(capsys, "audit", "-g", "3")
        assert run_cli(capsys, "audit", "-g", "+003") == expected


# A valid command line per command; the fuzz test edits them at random.
FUZZ_BASE = {
    "classify": ["-g", "2", "-a", "1", "-b", "1", "-c", "-1/2"],
    "pair": ["-g", "2", "1,1,1", "-1,1,0"],
    "intersect": ["-g", "2", "1,1,1", "2,1,1", "0,1,0"],
    "pullback": ["-g", "3", "-m", "2", "-n", "-5/3"],
    "decompose": ["-g", "2", "-a", "3", "-b", "1", "-c", "1"],
    "height": ["-g", "2", "-L", "8,1,2", "32,1,4"],
    "curve-height": ["-g", "5"],
    "minima": ["-g", "2", "-L", "8,1,2"],
    "witness": ["-g", "3", "-n", "2"],
    "audit": ["-g", "4"],
    "table": ["2", "6"],
}
# Genus and table bounds stay at or below 30 so every run is quick.
FUZZ_TOKENS = st.sampled_from([
    *FUZZ_BASE, "nonsense", "-g", "--genus", "-a", "-b", "-c", "--c=-1/2", "-m",
    "-n", "--index", "-L", "--bundle", "--format", "--format=csv", "--format=json",
    "text", "json", "csv", "--", "-h", "-x", "0", "1", "2", "3", "12", "30", "-1",
    "-2", "1/2", "-1/2", "1/0", "1.5", "a", "", "0,0,0", "1,1,1", "2,1,1", "8,1,2",
    "-1,1,0", "0,1,0", "1,1", "1,1,1,1", "1/0,1,1", "1,-1/2,1", "1_0", " 3", "3\n",
    "+3", "007", "1_0,1,1",
])


def draw_argv(data):
    """A command line from ``FUZZ_BASE`` after up to three random edits."""
    command = data.draw(st.sampled_from(sorted(FUZZ_BASE)))
    argv = [command, *FUZZ_BASE[command]]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(argv) - 1))
        edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "delete":
            del argv[i]
        else:
            argv[i:i + (edit == "replace")] = [data.draw(FUZZ_TOKENS)]
        if not argv:
            break
    return argv


def outcome(run, argv):
    """(exit, stdout, stderr) of ``run(argv)``; -h exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exit:  # argparse's -h prints help and exits 0
            code = exit.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_argv_one_outcome(data):
    """Any command line exits 0 with stdout only, or 2 with one line,
    starting 'error:', on stderr and nothing on stdout."""
    code, out, err = outcome(main, draw_argv(data))
    if code == 0:
        assert out and not err
        if out[0] in "[{":  # only a JSON line opens so
            assert stdlib_json_line(out) == out
    else:
        assert code == 2 and not out
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def full_parser_main(argv):
    """``main`` with every command line parsed by ``build_parser``'s full
    parser, never by ``_read_plain``."""
    with mock.patch.object(cli, "_read_plain", return_value=None):
        return main(argv)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_argv_full_parser_agrees(data):
    """Reading plain lines with ``_read_plain`` changes no exit status and no
    byte of stdout or stderr."""
    argv = draw_argv(data)
    assert outcome(main, argv) == outcome(full_parser_main, argv)


class TestRepeatedCalls:
    def test_format_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "-g", "3", "--format", "json")
        assert code == 0 and json.loads(out)["e1"] == "16/3"
        code, out, _ = run_cli(capsys, "audit", "-g", "3")
        assert code == 0
        assert out.splitlines()[1] == "e1 = 16/3 (~5.333333)"

    def test_parse_error_leaves_next_call_unchanged(self, capsys):
        argv = ["pair", "-g", "2", "1,1,1", "2,1,1", "--format", "json"]
        fresh = run_cli(capsys, *argv)
        assert run_cli(capsys, "pair", "-g", "2", "--bogus", "1,1,1")[0] == 2
        assert run_cli(capsys, *argv) == fresh


def eager_parser():
    """The CLI parser with every subcommand and its arguments, built here as
    a reference, independently of ``cli``'s own construction."""
    full = cli.build_parser()
    parser_class = cli._parser_class()
    parser = parser_class(prog=full.prog, description=full.description)
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command", parser_class=parser_class
    )
    for name, (help_text, compute, arguments) in cli._COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, options in [*arguments, cli._FORMAT]:
            command.add_argument(*flags, **options)
        command.set_defaults(compute=compute)
    return parser


def eager_outcome(argv):
    """(stdout, stderr) of the eager parser on argv, as main reports them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            eager_parser().parse_args(argv)
        except CLIError as err:
            return out.getvalue(), f"error: {err}\n"
        except SystemExit:
            pass
    return out.getvalue(), ""


class TestLazyParser:
    """A plain command line builds no parser, any other builds the full
    parser once; help and diagnostics match a parser built here with every
    subcommand.  Compared on the running interpreter, since help layout
    differs between Python releases."""

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_matches_eager(self, capsys, command):
        argv = ["-h"] if command is None else [command, "-h"]
        with pytest.raises(SystemExit) as exit:
            main(argv)
        captured = capsys.readouterr()
        assert exit.value.code == 0
        assert (captured.out, captured.err) == eager_outcome(argv)
        assert captured.out.startswith("usage: curvejac")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_diagnostics_match_eager(self, capsys, command):
        cases = [[command, "--format", "xml"], [command, "--bogus"]]
        if cli._GENUS in cli._COMMANDS[command][2]:
            cases.append([command])  # -g missing
        for argv in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert (out, err) == eager_outcome(argv)

    @pytest.mark.parametrize(
        "argv,parsers",
        [(None, 12), (["audit", "-g", "2"], 0), (["audit", "-h"], 12),
         (["audit", "-g", "2", "--"], 12), (["nonsense"], 12), (["-h"], 12)],
        ids=["build_parser", "audit", "audit-help", "audit-deferred", "nonsense", "help"],
    )
    def test_parsers_built(self, monkeypatch, argv, parsers):
        # A plain line is read from the specs and builds no parser; any
        # other line builds the full parser and every subparser once.
        built = []

        def init(self, *args, original=cli._parser_class().__init__, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(cli._parser_class(), "__init__", init)
        if argv is None:
            cli.build_parser()
        else:
            outcome(main, argv)
        assert len(built) == parsers

    def test_argparse_touching_subparsers(self, monkeypatch):
        # An argparse that uses each subparser as it adds it (say, to check
        # its help string) changes no output.
        argvs = [["-h"], ["audit", "-h"], ["pair", "--bogus"], ["nonsense"],
                 ["classify", "-g", "2", "-a", "1", "-b", "1", "-c", "-1/2"],
                 ["pair", "-g", "2", "1,1,1", "-1,1,0"], ["table", "2", "3"]]
        expected = [outcome(main, argv) for argv in argvs]
        add_parser = argparse._SubParsersAction.add_parser

        def touching(self, name, **kwargs):
            parser = add_parser(self, name, **kwargs)
            parser._get_formatter()
            return parser

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", touching)
        built = []

        def init(self, *args, original=cli._parser_class().__init__, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(cli._parser_class(), "__init__", init)
        assert [outcome(main, argv) for argv in argvs] == expected
        # The three plain lines build no parser; each of the other four
        # builds the full parser and every subparser once.
        assert len(built) == 4 * (1 + len(cli._COMMANDS))

    def test_one_parser_parsed_twice(self):
        parser = cli.build_parser()
        for argv in (["audit", "-g", "2", "-L", "8,1,2"], ["table", "2", "3"]):
            first = parser.parse_args(argv)
            assert parser.parse_args(argv) == first
        assert first.compute is cli._COMMANDS["table"][1]

    def test_unknown_command(self, capsys):
        code, out, err = run_cli(capsys, "nonsense")
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("error: argument command: invalid choice: 'nonsense'")


def command_namespace(argv):
    """``vars`` of the namespace ``build_parser``'s full parser returns for
    ``argv``."""
    return vars(cli.build_parser().parse_args(argv))


# Spellings that only argparse reads: a bare or trailing '--', a short flag
# with its value attached, an empty '=' value, an abbreviation, help, and
# values that are option-like or empty.
ARGPARSE_ONLY_TOKENS = st.sampled_from(
    ["--", "-g=3", "-g3", "--genus=", "--gen", "-h", "x y", "-x y", "-", ""])


def draw_plain_reader_argv(data):
    """``draw_argv``, then maybe a trailing '--', a token that only argparse
    reads, or a repeated token pair (such as a flag and its value)."""
    argv = draw_argv(data)
    edit = data.draw(st.sampled_from(["none", "dashes", "token", "repeat"]))
    if edit == "dashes":
        argv.append("--")
    elif edit == "token":
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(ARGPARSE_ONLY_TOKENS))
    elif edit == "repeat" and len(argv) > 1:
        i = data.draw(st.integers(1, len(argv) - 1))
        argv[len(argv):] = argv[i:i + 2]
    return argv


# Lines that ``_read_plain`` reads, each to argparse's namespace.
PLAIN_LINES = [
    ["audit", "-g", "2"],
    ["audit", "--genus=12", "--bundle", "8,1,2", "--format", "json"],
    ["classify", "-g", "3", "-a", "1", "--b=2/3", "--c=-1/2", "--format=json"],
    ["pullback", "-g", "3", "-m", "-1/2", "--n", "5"],
    ["pair", "-g", "2", "1,1,1", "-1,1,0"],
    ["pair", "1,1,1", "2,1,1", "-g", "2"],
    ["intersect", "-g", "2", "--format", "json", "--", "1,1,1", "-x", "0,1,0"],
    ["height", "-g", "2", "-L", "8,1,2", "32,1,4"],
    ["witness", "--genus", "3", "--index=2"],
    ["table"],
    ["table", "--format", "csv"],
    ["table", "2"],
    ["table", "2", "6", "--format", "csv"],
]

# Lines that ``_read_plain`` leaves to argparse.
DEFERRED_LINES = [
    ["audit", "-g", "2", "--"],  # argparse: "unrecognized arguments: --"
    ["audit", "-g", "2", "--", "--"],
    ["intersect", "-g", "2", "--", "1,1,1", "--", "0,1,0"],
    # argparse 3.11 gives g_min and g_max their defaults before the
    # option, then refuses 2 and 4.
    ["table", "--format", "csv", "2", "4"],
    ["table", "--", "2", "4"],
    ["audit", "-g", "3", "-g", "4"],  # argparse: the last one wins
    ["audit", "-g", "3", "--genus=4"],
    ["intersect", "a", "b", "-g", "2", "c"],
    ["pair", "-g", "2", "1,1,1", "--format", "json", "2,1,1"],
    ["audit", "-g=3"], ["audit", "-g3"], ["audit", "--genus="], ["audit", "--gen", "3"],
    ["audit", "-h"], ["audit", "-g", "2", "--help"], ["audit", "-g", "-x"],
    ["audit", "-g", "2", "-L", ""], ["audit", "-g"], ["audit"],
    ["table", "--format", "xml"], ["audit", "-g", "1_0"], ["table", "2", "3", "4"],
    ["pair", "-g", "2", "1,1,1"], ["intersect", "-g", "2"], ["curve-height", "-g", "2", "x"],
    ["audit", "-g", "2", "-L"],  # a flag with no value at the end
]


class TestPlainReader:
    """``_read_plain`` reads a plain command line to the namespace that
    argparse returns for it, and leaves every other line to argparse."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_agrees_with_argparse(self, data):
        argv = draw_plain_reader_argv(data)
        if argv and argv[0] in cli._COMMANDS:
            plain = cli._read_plain(argv[0], argv[1:])
            if plain is not None:
                assert vars(plain) == command_namespace(argv)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_reference_reader(self, data):
        # The one-pass reader accepts exactly the lines that the reference
        # reader of ``tests/oracles.py`` accepts, each to an equal namespace:
        # drawn lines, and the lines that the tests below list.
        if data.draw(st.booleans()):
            argv = data.draw(st.sampled_from(PLAIN_LINES + DEFERRED_LINES))
        else:
            argv = draw_plain_reader_argv(data)
        if argv and argv[0] in cli._COMMANDS:
            plain = cli._read_plain(argv[0], argv[1:])
            reference = reference_read_plain(argv[0], argv[1:])
            assert (plain is None) == (reference is None)
            assert plain is None or vars(plain) == vars(reference)

    @pytest.mark.parametrize("argv", PLAIN_LINES)
    def test_reads_plain_lines(self, argv):
        plain = cli._read_plain(argv[0], argv[1:])
        assert plain is not None and vars(plain) == command_namespace(argv)

    @pytest.mark.parametrize("argv", DEFERRED_LINES)
    def test_defers_to_argparse(self, argv):
        assert cli._read_plain(argv[0], argv[1:]) is None

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_table_is_the_parser_grammar(self, name):
        # The reader's table is derived from the same specs as the parser:
        # the same flags and the same positionals, in order.
        flags, positionals, defaults, required, optional_run = cli._PLAIN[name]
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices[name]
        options = {flag for action in sub._actions for flag in action.option_strings}
        assert set(flags) == options - {"-h", "--help"}
        assert [dest for dest, _ in positionals] == [
            action.dest for action in sub._actions if not action.option_strings]
        assert required == {action.dest for action in sub._actions
                            if action.option_strings and action.required}
        assert optional_run == any(action.nargs == "?" for action in sub._actions)
        # The reader takes a '+' run as it is, as argparse does for an
        # untyped, choice-free run.
        assert all(not {"type", "choices"} & set(options)
                   for _, options in positionals if options.get("nargs") == "+")
        assert defaults["compute"] is sub.get_default("compute")

    def test_calls_do_not_share_namespaces(self):
        # Each call starts from a copy of the command's defaults: neither a
        # line's values nor a change to a returned namespace reach the next.
        first = cli._read_plain("table", ["5", "9", "--format", "csv"])
        first.g_min, first.extra = 7, 1
        second = cli._read_plain("table", [])
        assert vars(second) == command_namespace(["table"])
        third = cli._read_plain("audit", ["-g", "3", "-L", "1,0,0"])
        third.bundle = "2,0,0"
        fourth = cli._read_plain("audit", ["-g", "4"])
        assert vars(fourth) == command_namespace(["audit", "-g", "4"])

    def test_repeated_flag_reaches_argparse(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "-g", "3", "-g", "4", "--format", "json")
        assert code == 0 and json.loads(out)["genus"] == 4

    def test_trailing_separator_refused(self, capsys):
        code, out, err = run_cli(capsys, "audit", "-g", "2", "--")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@contextlib.contextmanager
def digit_limit(limit):
    """Run the block under the given int/str digit limit (0: none)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestLargeGenus:
    """CLI output stays exact past CPython's default 4300-digit limit."""

    def test_audit_json(self, capsys):
        with digit_limit(4300):
            code, out, err = run_cli(capsys, "audit", "-g", "2000", "--format", "json")
        assert (code, err) == (0, "")
        record = json.loads(out)
        audit = zhang_audit(standard_polarization(2000))
        with digit_limit(0):
            assert len(record["e1"]) > 5000
            assert record["e1"] == str(audit.e1)
            assert record["e2"] == str(audit.e2)
            assert record["h"] == str(audit.h_curve)
            assert record["mean"] == str((audit.e1 + audit.e2) / 2)
            assert record["margin"] == str(audit.violation_margin)
            assert record["e1_dec"] == half_even_decimal(audit.e1)
            assert record["h_dec"] == half_even_decimal(audit.h_curve)

    def test_table_csv(self, capsys):
        with digit_limit(4300):
            code, out, err = run_cli(capsys, "table", "1998", "2000", "--format", "csv")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["1998", "1999", "2000"]
        with digit_limit(0):
            for row in rows:
                audit = zhang_audit(standard_polarization(int(row[0])))
                mean = (audit.e1 + audit.e2) / 2
                assert row[1:] == [
                    str(audit.e1), str(audit.e2), str(audit.h_curve), str(mean),
                    str(audit.violation_margin), half_even_decimal(audit.e1),
                    half_even_decimal(audit.h_curve),
                ]

    @pytest.mark.parametrize(
        "argv", [["curve-height", "-g", "2000"], ["pair", "-g", "2", "1,1", "1,1,1"]]
    )
    def test_caller_limit_restored(self, capsys, argv):
        with digit_limit(5000):
            run_cli(capsys, *argv)
            assert sys.get_int_max_str_digits() == 5000

    def test_long_input_literal(self, capsys):
        big = "9" * 6000
        with digit_limit(4300):
            code, out, err = run_cli(capsys, "pair", "-g", "2", f"{big},0,0", "0,1,0")
            # Outside main the interpreter's limit still holds.
            with pytest.raises(ValueError):
                as_fraction(big)
        assert (code, err) == (0, "")
        with digit_limit(0):
            assert out.split()[0] == str(2 * int(big))


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "curvejac", "pair", "-g", "2", "1,1,1", "2,1,1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2 (~2.000000)"


@pytest.mark.parametrize(
    "argv,lines_read",
    [(["table", "2", "300"], 1), (["audit", "-g", "2"], 0), (["audit", "-h"], 0)],
    ids=["table", "audit", "help"],
)
def test_reader_gone_leaves_stderr_empty(argv, lines_read):
    # As `curvejac table 2 300 | head -1` and `curvejac audit -g 2 | true`
    # (or `-h | true`): the read end closes while output is pending.  The
    # table's ~1.3 MB fills the pipe; the audit's few lines wait in stdout's
    # buffer (the default, so PYTHONUNBUFFERED is dropped) for the flush.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "curvejac", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


# Imports curvejac.cli into a fresh interpreter and prints which of the
# heavy modules that import added, then runs the command line given after
# the source path in the same process and prints which of argparse, gettext
# and json are loaded after it.
IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
heavy = {"argparse", "dataclasses", "gettext", "inspect", "json"}
before = set(sys.modules)
import curvejac.cli
print(sorted(heavy & (set(sys.modules) - before)))
status = curvejac.cli.main(sys.argv[2:])
print(sorted({"argparse", "gettext", "json"} & set(sys.modules)))
sys.exit(status)
"""


def import_probe(*argv):
    """(modules the import added, the command's stdout lines, argparse,
    gettext and json if loaded after the command) of ``IMPORT_PROBE`` on
    argv."""
    # -I -S: no environment, user site or site-packages to load json first.
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_PROBE, src, *argv],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    added, *output, after = result.stdout.splitlines()
    return added, output, after


def test_import_leaves_heavy_modules_out():
    added, output, after = import_probe("audit", "-g", "2", "--format", "json")
    assert added == "[]"
    assert after == "[]"  # a plain line builds no parser, and JSON needs no json
    [line] = output
    assert json.loads(line)["genus"] == 2


def test_text_audit_leaves_heavy_modules_out():
    added, output, after = import_probe("audit", "-g", "2")
    assert (added, after) == ("[]", "[]")
    assert output[1] == "e1 = 3/2 (~1.500000)"


def test_json_table_leaves_json_out():
    added, output, after = import_probe("table", "2", "4", "--format", "json")
    assert (added, after) == ("[]", "[]")
    [line] = output
    assert [row["g"] for row in json.loads(line)] == [2, 3, 4]


@pytest.mark.parametrize("value", [
    "", "-16/3", "(1/2,1,0)", "interior", 0, -7, 10**40, True, False, {}, [],
    {"genus": 3, "apex": False, "classes": ["(0,1,0)"], "rows": [{"g": 2}, {}]},
    [1, True, "2", {"k": False}, []],
])
def test_json_text_matches_stdlib(value):
    assert cli._json_text(value) == json.dumps(value)


def test_json_text_bool_before_int():
    assert cli._json_text([True, 1, False, 0]) == "[true, 1, false, 0]"


@pytest.mark.parametrize("value", [
    None, 1.5, Fraction(1, 2), Decimal(3), ("1",), [None], {"genus": 0.5},
])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_deferred_line_loads_argparse_on_demand():
    # '-g3' is not plain: argparse is imported to read it, and the audit
    # prints the bytes of the plain '-g 3' line.
    plain = import_probe("audit", "-g", "3")
    attached = import_probe("audit", "-g3")
    assert (plain[2], attached[2]) == ("[]", "['argparse', 'gettext']")
    assert attached[:2] == plain[:2]
    assert plain[1][0] == "class (3,1,1), genus 3"


def unattained_audit(L):
    """zhang_audit_coeff with the margin's sign flipped, which flips both
    flags, to reach the other audit lines."""
    audit = zhang_audit_coeff(L)
    return ZhangAudit(audit.e1, audit.h_curve, -audit.violation_margin)


# Golden stdout: name -> (argv, patches of cli globals).  Each runs in text
# and JSON; golden/cli/<name>.txt and <name>.json hold the bytes.  Together
# they reach every text branch of every command.
GOLDEN_RUNS = {
    "classify_interior": (["classify", "-g", "2", "-a", "3", "-b", "1", "-c", "1"], {}),
    "classify_boundary": (["classify", "-g", "2", "-a", "2", "-b", "1", "-c", "1"], {}),
    "classify_apex": (["classify", "-g", "2", "-a", "0", "-b", "0", "-c", "0"], {}),
    "classify_outside": (["classify", "-g", "2", "-a", "1", "-b", "1", "-c", "1"], {}),
    "pair": (["pair", "-g", "3", "1/2,1,-1", "2,1,1"], {}),
    "intersect": (["intersect", "-g", "2", "2,1,1", "2,1,1", "0,1,0"], {}),
    "pullback": (["pullback", "-g", "3", "-m", "2", "-n", "-5/3"], {}),
    "decompose": (["decompose", "-g", "2", "-a", "3", "-b", "1", "-c", "1"], {}),
    "decompose_degenerate": (["decompose", "-g", "2", "-a", "5", "-b", "0", "-c", "0"], {}),
    "height": (["height", "-g", "2", "-L", "8,1,2", "32,1,4"], {}),
    "curve_height": (["curve-height", "-g", "5"], {}),
    "minima": (["minima", "-g", "2", "-L", "8,1,2"], {}),
    "witness": (["witness", "-g", "3", "-n", "2"], {}),
    "audit": (["audit", "-g", "4"], {}),
    "audit_bundle": (["audit", "-g", "2", "-L", "1,1,0"], {}),
    "audit_flags": (["audit", "-g", "3"], {"zhang_audit_coeff": unattained_audit}),
    "table_2_6": (["table", "2", "6"], {}),
}

# Golden diagnostics: name -> argv, exiting 2 with golden/cli/<name>.stderr
# on stderr and nothing on stdout.  The first eight are TestErrorPaths'; its
# unknown command is left out, as argparse words that message differently
# across patch releases (3.13.13 drops the quotes around the choices).
GOLDEN_ERRORS = {
    "error_genus_one": ["classify", "-g", "1", "-a", "1", "-b", "0", "-c", "0"],
    "error_short_class": ["pair", "-g", "2", "1,1", "2,1,1"],
    "error_zero_denominator": ["pair", "-g", "2", "1,1,1/0", "2,1,1"],
    "error_point_not_positive": ["height", "-g", "2", "0,1,0"],
    "error_minima_not_nef": ["minima", "-g", "2", "-L", "1,1,1"],
    "error_witness_index": ["witness", "-g", "2", "-n", "0"],
    "error_curve_height_degree": ["curve-height", "-g", "2", "-L", "0,1,0"],
    "error_audit_csv": ["audit", "-g", "2", "--format", "csv"],
    "error_short_class_csv": ["pair", "-g", "2", "1,1", "2,1,1", "--format", "csv"],
    "error_table_reversed": ["table", "5", "3"],
    "error_table_genus_one": ["table", "1", "4"],
}

GOLDEN_CASES = {
    **{
        f"{name}.{ext}": (argv + flags, patches)
        for name, (argv, patches) in GOLDEN_RUNS.items()
        for ext, flags in (("txt", []), ("json", ["--format", "json"]))
    },
    **{f"{name}.stderr": (argv, {}) for name, argv in GOLDEN_ERRORS.items()},
}


@pytest.mark.parametrize("filename", sorted(GOLDEN_CASES))
def test_golden_output(capsys, monkeypatch, filename):
    argv, patches = GOLDEN_CASES[filename]
    for attr, fake in patches.items():
        monkeypatch.setattr(cli, attr, fake)
    result = run_cli(capsys, *argv)
    expected = (GOLDEN / "cli" / filename).read_text()
    if filename.endswith(".stderr"):
        assert result == (2, "", expected)
    else:
        assert result == (0, expected, "")
    if filename.endswith(".json"):  # the invariant of ``cli._json_text``
        assert bad_record_strings(json.loads(result[1])) == []
