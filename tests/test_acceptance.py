"""Acceptance gate: one test per headline claim, every comparison exact.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure).  No tolerances anywhere: results are compared as rationals.
"""

import functools
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from curvejac.cones import classify
from curvejac.heights import height_curve, height_point, standard_polarization
from curvejac.lattice import (
    NSClass,
    alpha1,
    pair_theta_power,
    pullback_theta,
    theta2,
    top_intersect,
)
from curvejac.minima import cone_minimum, witness_sequence, zhang_audit

from oracles import grid_oracle

GOLDEN = Path(__file__).parent / "golden"


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")

        return wrapper

    return decorate


def rand_fraction(rng, lo=-60, hi=60, max_den=16):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonneg(rng, hi=60, max_den=16):
    return Fraction(rng.randint(0, hi), rng.randint(1, max_den))


def rand_nef(rng, g):
    # Pullback class plus nonnegative bumps along both boundary rays.
    m = rand_fraction(rng)
    n = rand_fraction(rng)
    s = rand_nonneg(rng)
    t = rand_nonneg(rng)
    return pullback_theta(g, m, n) + s * alpha1(g) + t * theta2(g)


@criterion("headline minima and curve heights, genus 2..12, exact")
def test_headline_numbers():
    for g in range(2, 13):
        L = standard_polarization(g)
        expected_min = Fraction((g * g - 1) * factorial(g - 1), g)  # (g - 1/g) (g-1)!
        assert cone_minimum(L).infimum == expected_min
        # height_curve runs through the expansion engine, not the closed form.
        assert height_curve(L) == (g - 1) * factorial(g - 1)


@criterion("second successive-minima inequality fails with exact positive margin")
def test_second_inequality_violation():
    for g in range(2, 13):
        audit = zhang_audit(standard_polarization(g))
        assert audit.first_inequality_holds
        assert not audit.second_inequality_holds
        assert audit.violation_margin == Fraction((g - 1) * factorial(g - 1), g)
        assert audit.violation_margin > 0


@criterion("witness families attain the minimum, genus 2..12, n = 1..5")
def test_witness_attainment():
    for g in range(2, 13):
        L = standard_polarization(g)
        infimum = cone_minimum(L).infimum
        for n in range(1, 6):
            witness = witness_sequence(g, n)
            assert witness.cls == NSClass(g, g**3 * n, n, g * n)
            assert witness.degree == g**3 * n
            assert witness.cls.a * witness.cls.b == g * witness.cls.c**2
            assert height_point(L, witness) == infimum


@criterion("engine pairing equals linear functional, 1000 random classes per genus 2..8")
def test_pairing_functional_equivalence():
    rng = random.Random(20260818)
    for g in range(2, 9):
        L = standard_polarization(g)
        gf = factorial(g)
        for _ in range(1000):
            a, b, c = (rand_fraction(rng) for _ in range(3))
            x = NSClass(g, a, b, c)
            assert pair_theta_power(x, L) == (a + g * b - 2 * c) * gf


@criterion("pullback power identities, 100 random rational (m, n) per genus 2..8")
def test_pullback_power_identities():
    rng = random.Random(31415926)
    for g in range(2, 9):
        gf = factorial(g)
        for _ in range(100):
            m, n = rand_fraction(rng), rand_fraction(rng)
            F = pullback_theta(g, m, n)
            assert top_intersect([F] * (g + 1)) == 0
            assert top_intersect([alpha1(g)] + [F] * g) == n ** (2 * g) * gf


@criterion("cone soundness, 1000 nef + 1000 outside random classes per genus 2..8")
def test_cone_soundness():
    rng = random.Random(27182818)
    for g in range(2, 9):
        previous = None
        for _ in range(1000):
            x = rand_nef(rng, g)
            assert classify(x).is_nef
            if previous is not None:
                assert classify(x + previous).is_nef
            previous = x
        for _ in range(1000):
            a, b = rand_fraction(rng), rand_fraction(rng)
            magnitude = abs(a) + abs(b) + 1 + rand_nonneg(rng)
            c = magnitude if rng.random() < 0.5 else -magnitude
            assert a * b < g * c * c
            verdict = classify(NSClass(g, a, b, c))
            assert not verdict.is_nef and not verdict.is_psef


@criterion("grid oracle dominates the closed form, 100 random nef classes, k = 4..10")
def test_grid_oracle_dominance():
    rng = random.Random(16180339)
    genus_cycle = list(range(2, 9))
    for index in range(100):
        g = genus_cycle[index % len(genus_cycle)]
        m = Fraction(rng.randint(1, 30), rng.randint(1, 8))
        n = rand_fraction(rng, lo=-30, hi=30, max_den=8)
        s = rand_nonneg(rng, hi=30, max_den=8)
        t = rand_nonneg(rng, hi=30, max_den=8)
        L = pullback_theta(g, m, n) + s * alpha1(g) + t * theta2(g)
        report = cone_minimum(L)
        lo, hi = report.t_star - 1, report.t_star + 1
        previous = None
        for k in range(4, 11):
            value = grid_oracle(L, lo, hi, 2**k)
            assert value >= report.infimum
            if previous is not None:
                assert value <= previous
            previous = value
            # t* is the window midpoint, hence a grid point of every 2^k
            # grid; the oracle must then meet the infimum exactly.
            assert value == report.infimum


@criterion("genus-100 top intersection of random classes completes in under 5 s")
def test_engine_scale():
    rng = random.Random(14142135)
    g = 100
    classes = [
        NSClass(
            g,
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        for _ in range(g + 1)
    ]
    start = time.monotonic()
    value = top_intersect(classes)
    elapsed = time.monotonic() - start
    assert isinstance(value, Fraction)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion("genus-1000 top intersection of dense random classes: under 5 s, exact")
def test_engine_linear_scale():
    rng = random.Random(17320508)
    g = 1000

    def nonzero():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    triples = [(nonzero(), nonzero(), nonzero()) for _ in range(g + 1)]
    classes = [NSClass(g, a, b, c) for a, b, c in triples]
    start = time.monotonic()
    value = top_intersect(classes)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"

    # g! [sum_i a_i prod_{j!=i} b_j - 2 sum_{i<j} c_i c_j prod_{k!=i,j} b_k]
    # from prefix and suffix products of the b's.  Every b is nonzero, so
    # prod_{k!=i,j} b_k = prefix[j] suffix[j+1] / b_i for i < j.
    bs = [b for _, b, _ in triples]
    prefix, suffix = [Fraction(1)], [Fraction(1)]
    for b in bs:
        prefix.append(prefix[-1] * b)
    for b in reversed(bs):
        suffix.append(suffix[-1] * b)
    suffix.reverse()
    linear = quadratic = running = Fraction(0)
    for j, (a, b, c) in enumerate(triples):
        outside = prefix[j] * suffix[j + 1]
        linear += a * outside
        quadratic += c * outside * running
        running += c / b
    assert value == factorial(g) * (linear - 2 * quadratic)


@criterion("CLI golden outputs: csv table byte-exact, audit strings present")
def test_cli_golden(capsys):
    from curvejac.cli import main

    assert main(["table", "2", "6", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "table_2_6.csv").read_text()

    assert main(["audit", "-g", "2"]) == 0
    audit_out = capsys.readouterr().out
    for needle in ("3/2", "1", "1/2"):
        assert needle in audit_out
