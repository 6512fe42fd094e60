"""Self-tests of the benchmark's output checks and input generators.

    python3 -m unittest discover -s benchmark -p 'test_*.py'

The checks must accept hand-worked outputs and the real CLI's outputs, and
reject each of them once a value is perturbed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError, check  # noqa: E402
from workloads import WORKLOADS, Op, make_ops  # noqa: E402

F = Fraction


def _op(command: str, fmt: str, **params) -> Op:
    return Op(command, fmt, (command,), params)


INTERSECT = dict(g=2, classes=[(F(2), F(1), F(1)), (F(2), F(1), F(1)),
                               (F(0), F(1), F(0))])
STANDARD_2 = (F(2), F(1), F(1))

AUDIT_2_TEXT = """\
class (2,1,1), genus 2
e1 = 3/2 (~1.500000)
e2 = 3/2 (~1.500000)
curve height = 1 (~1.000000)
mean of minima = 3/2
first inequality holds (e1 >= curve height)
second inequality VIOLATED by 1/2
"""
AUDIT_2_JSON = {
    "genus": 2, "bundle": "(2,1,1)", "e1": "3/2", "e2": "3/2", "h": "1",
    "mean": "3/2", "margin": "1/2", "e1_dec": "1.500000", "h_dec": "1.000000",
    "first_inequality_holds": True, "second_inequality_holds": False,
    "minima_attained": True,
}
TABLE_2_3_CSV = """\
g,e1,e2,h,mean,margin,e1_dec,h_dec
2,3/2,3/2,1,3/2,1/2,1.500000,1.000000
3,16/3,16/3,4,16/3,4/3,5.333333,4.000000
"""


class HandWorked(unittest.TestCase):
    def assert_rejected(self, op: Op, out: str) -> None:
        with self.assertRaises(CheckError):
            check(op, out)

    def test_intersect_value(self):
        # Only alpha1.theta^2 = 2 and Q^2.theta = -4 survive: 2 * (a1 + a2) = 8
        # from the alpha1 terms, -4 * c1 c2 = -4 from the Q^2 term.
        self.assertEqual(checks.top_value(**INTERSECT), 4)

    def test_intersect_outputs(self):
        text, js = _op("intersect", "text", **INTERSECT), _op("intersect", "json", **INTERSECT)
        check(text, "4 (~4.000000)\n")
        record = {"genus": 2, "classes": ["(2,1,1)", "(2,1,1)", "(0,1,0)"],
                  "value": "4", "decimal": "4.000000"}
        check(js, json.dumps(record) + "\n")
        self.assert_rejected(text, "5 (~5.000000)\n")
        self.assert_rejected(text, "4 (~4.000001)\n")
        self.assert_rejected(text, "4 (~4.000000)\nextra\n")
        self.assert_rejected(js, json.dumps({**record, "value": "-4"}) + "\n")
        self.assert_rejected(js, json.dumps({**record, "classes": ["(2,1,1)"] * 3}) + "\n")

    def test_audit_values(self):
        self.assertEqual(checks.audit_values(2, STANDARD_2), (F(3, 2), F(1), F(1, 2)))
        for g in (2, 3, 12, 100):
            e1, h, margin = checks.audit_values(g, (F(g), F(1), F(1)))
            self.assertEqual(e1, checks.headline_e1(g))
            self.assertEqual(h, checks.headline_h(g))
            self.assertEqual(margin, (1 - F(1, g)) * checks.headline_h(g) / (g - 1))

    def test_audit_outputs(self):
        text, js = _op("audit", "text", g=2, L=STANDARD_2), _op("audit", "json", g=2, L=STANDARD_2)
        check(text, AUDIT_2_TEXT)
        check(js, json.dumps(AUDIT_2_JSON) + "\n")
        for old, new in (("by 1/2", "by 1/3"), ("e1 = 3/2", "e1 = 5/3"),
                         ("(~1.500000)", "(~1.500700)"), ("genus 2", "genus 3"),
                         ("holds (e1", "fails (e1")):
            self.assert_rejected(text, AUDIT_2_TEXT.replace(old, new, 1))
        for key, value in (("h", "2"), ("margin", "-1/2"), ("e1_dec", "1.499999"),
                           ("second_inequality_holds", True), ("genus", "2")):
            self.assert_rejected(js, json.dumps({**AUDIT_2_JSON, key: value}) + "\n")

    def test_table_outputs(self):
        csv = _op("table", "csv", g_min=2, g_max=3)
        check(csv, TABLE_2_3_CSV)
        self.assert_rejected(csv, TABLE_2_3_CSV.replace("4/3", "5/3"))
        self.assert_rejected(csv, TABLE_2_3_CSV.replace("5.333333", "5.333334"))
        self.assert_rejected(_op("table", "csv", g_min=2, g_max=4), TABLE_2_3_CSV)

    def test_other_closed_forms(self):
        self.assertEqual(checks.pair_value(2, (F(1), F(1), F(1)), (F(2), F(1), F(1))), 2)
        self.assertEqual(checks.pullback_class(3, F(2), F(5)), (F(12), F(25), F(10)))
        self.assertEqual(checks.region(2, (F(2), F(1), F(1))), ("boundary", F(0)))
        self.assertEqual(checks.region(2, (F(1), F(1), F(-1, 2))), ("interior", F(1, 2)))
        self.assertEqual(checks.minimum_witness(2, (F(8), F(1), F(2))), (F(32), F(1), F(4)))
        check(_op("witness", "text", g=2, n=1), "(8,1,2), degree 8, height 3/2\n")
        self.assert_rejected(_op("witness", "text", g=2, n=1), "(8,1,2), degree 8, height 1\n")


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.import_cli()(list(argv))
    if status != 0:
        raise AssertionError(f"{argv} exited {status}")
    return out.getvalue()


def _bump(out: str, which: int) -> str:
    """Change the first (which=0) or last (which=-1) digit of the output."""
    pos = [m.start() for m in re.finditer(r"\d", out)][which]
    return out[:pos] + str((int(out[pos]) + 1) % 10) + out[pos + 1:]


class AgainstCLI(unittest.TestCase):
    def test_every_workload_round(self):
        for workload in WORKLOADS:
            for op in make_ops(workload, 0):
                with self.subTest(argv=" ".join(op.argv)[:80]):
                    out = _cli(op.argv)
                    check(op, out)
                    for which in (0, -1):
                        with self.assertRaises(CheckError):
                            check(op, _bump(out, which))


class Generators(unittest.TestCase):
    def test_seeded(self):
        for workload in WORKLOADS:
            self.assertEqual(make_ops(workload, 5), make_ops(workload, 5))
            self.assertNotEqual(make_ops(workload, 5), make_ops(workload, 6))

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, units)


if __name__ == "__main__":
    unittest.main()
