"""Lattice arithmetic, the monomial table, and the intersection engine."""

import json
import random
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb, factorial, prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from curvejac import cli
from curvejac.lattice import (
    NSClass,
    _integer_ratios,
    _recurrence,
    _top_intersect_ints,
    alpha1,
    as_fraction,
    pair_theta_power,
    poincare,
    pullback_theta,
    restrict_to_C_fiber,
    theta2,
    top_intersect,
    top_intersect_coeff,
    zero_class,
)

from oracles import (
    dict_top_intersect,
    fold_state,
    monomial_table,
    naive_top_intersect,
    pair_theta_power_closed,
    repeated_intersect_coeff,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
genera = st.integers(min_value=2, max_value=8)


class TestRationalRepresentation:
    def test_lowest_terms_and_positive_denominator(self):
        x = as_fraction("4/6")
        assert (x.numerator, x.denominator) == (2, 3)
        y = as_fraction(Fraction(3, -9))
        assert (y.numerator, y.denominator) == (-1, 3)

    def test_zero_is_zero_over_one(self):
        assert as_fraction(0).denominator == 1

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)

    def test_fraction_passes_through(self):
        x = Fraction(-7, 3)
        assert as_fraction(x) is x

    def test_fraction_subclass_becomes_plain_fraction(self):
        class Tagged(Fraction):
            pass

        x = as_fraction(Tagged(3, 4))
        assert type(x) is Fraction and x == Fraction(3, 4)

    def test_exponent_string_refused_in_bounded_time(self):
        # Fraction("1e10000000") builds a 33-million-bit numerator from ten
        # characters, for seconds; the grammar refuses it after one match.
        start = time.process_time()
        with pytest.raises(ValueError, match="malformed rational literal '1e10000000'"):
            NSClass(2, "1e10000000", 1, 0)
        assert time.process_time() - start < 0.01


class TestNSClass:
    def test_rejects_low_genus(self):
        for g in (1, 0, -3):
            with pytest.raises(ValueError):
                NSClass(g, 1, 0, 0)

    def test_rejects_non_integer_genus(self):
        with pytest.raises(TypeError):
            NSClass(Fraction(5, 2), 1, 0, 0)

    def test_coercion_to_fraction(self):
        cls = NSClass(2, "1/2", 3, Fraction(-2, 4))
        assert cls.coefficients == (Fraction(1, 2), Fraction(3), Fraction(-1, 2))

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            NSClass(2, 0.5, 1, 1)

    def test_add_and_scale(self):
        x = NSClass(2, 1, 2, 3)
        y = NSClass(2, -1, Fraction(1, 2), 0)
        assert x + y == NSClass(2, 0, Fraction(5, 2), 3)
        assert 2 * x == NSClass(2, 2, 4, 6)
        assert x * Fraction(-1, 3) == NSClass(2, Fraction(-1, 3), Fraction(-2, 3), -1)
        assert x - x == zero_class(2)
        assert -x == -1 * x

    def test_add_rejects_genus_mismatch(self):
        with pytest.raises(ValueError):
            NSClass(2, 1, 0, 0) + NSClass(3, 1, 0, 0)

    def test_basis_classes(self):
        assert alpha1(2) == NSClass(2, 1, 0, 0)
        assert theta2(2) == NSClass(2, 0, 1, 0)
        assert poincare(2) == NSClass(2, 0, 0, 1)
        assert zero_class(5).is_zero

    @given(genera, rationals, rationals, rationals, rationals)
    def test_scaling_associates(self, g, a, b, c, lam):
        x = NSClass(g, a, b, c)
        assert lam * x == x * lam
        assert (lam * x).coefficients == (lam * a, lam * b, lam * c)


class TestMonomialTable:
    def test_genus_two_values(self):
        table = monomial_table(2)
        assert table.value(1, 2, 0) == 2
        assert table.value(0, 1, 2) == -4
        assert table.value(0, 3, 0) == 0
        assert table.value(0, 0, 3) == 0
        assert table.value(2, 1, 0) == 0

    def test_genus_three_values(self):
        table = monomial_table(3)
        assert table.value(1, 3, 0) == 6
        assert table.value(0, 2, 2) == -12
        assert table.value(1, 2, 1) == 0
        assert table.value(0, 4, 0) == 0

    @pytest.mark.parametrize("g", range(2, 9))
    def test_structure_all_genera(self, g):
        table = monomial_table(g)
        gf = factorial(g)
        assert table.g_factorial == gf
        for (i, j, k), value in table.entries():
            if (i, j, k) == (1, g, 0):
                assert value == gf
            elif (i, j, k) == (0, g - 1, 2):
                assert value == -2 * gf
            else:
                assert value == 0

    @pytest.mark.parametrize("g", range(2, 9))
    def test_entry_count(self, g):
        entries = list(monomial_table(g).entries())
        assert len(entries) == (g + 2) * (g + 3) // 2

    def test_invalid_indices_rejected(self):
        table = monomial_table(2)
        with pytest.raises(ValueError):
            table.value(1, 1, 0)
        with pytest.raises(ValueError):
            table.value(-1, 2, 2)

    def test_rejects_low_genus(self):
        with pytest.raises(ValueError):
            monomial_table(1)

    @pytest.mark.parametrize("g", range(2, 13))
    def test_pullback_power_expansion_vanishes_identically(self, g):
        # Expand (g m^2 alpha1 + n^2 theta2 + m n Q)^(g+1) symbolically in
        # (m, n) by multinomials over the table.  Every coefficient must
        # vanish identically; this re-derives the k >= 3 zeros and pins the
        # -2 g! entry against alpha1 . theta2^g = g!.
        table = monomial_table(g)
        buckets = defaultdict(Fraction)
        for i in range(g + 2):
            for j in range(g + 2 - i):
                k = g + 1 - i - j
                mult = comb(g + 1, i) * comb(g + 1 - i, j)
                coeff = mult * Fraction(g) ** i * table.value(i, j, k)
                buckets[2 * i + k] += coeff  # m-exponent; n-exponent is complementary
        assert all(value == 0 for value in buckets.values())


class TestTopIntersect:
    def test_genus_two_examples(self):
        L = NSClass(2, 2, 1, 1)
        assert top_intersect([L, L, theta2(2)]) == 4
        assert top_intersect([theta2(2)] * 3) == 0
        assert top_intersect([poincare(2), poincare(2), theta2(2)]) == -4

    def test_genus_three_mixed_monomial(self):
        g = 3
        assert top_intersect([poincare(g), alpha1(g), theta2(g), theta2(g)]) == 0

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            top_intersect([theta2(2)] * 4)
        with pytest.raises(ValueError):
            top_intersect([theta2(2)] * 2)
        with pytest.raises(ValueError):
            top_intersect([])

    def test_genus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            top_intersect([theta2(2), theta2(2), theta2(3)])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=30), rationals, rationals, rationals)
    def test_repeated_class_closed_form(self, g, a, b, c):
        # g+1 copies of one class against the closed form that the
        # command line's genus-10^5 intersect runs are checked against.
        x = NSClass(g, a, b, c)
        assert top_intersect_coeff([x] * (g + 1)) == repeated_intersect_coeff(x)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matches_naive_expansion(self, g):
        rng = random.Random(900 + g)
        for _ in range(25):
            classes = [
                NSClass(
                    g,
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                )
                for _ in range(g + 1)
            ]
            assert top_intersect(classes) == naive_top_intersect(classes)

    @pytest.mark.parametrize("g", [2, 3, 5, 12, 50, 63, 64, 65, 100, 200])
    def test_matches_dict_expansion(self, g):
        # Zero coefficients, integer-only classes, denominators up to 10^6,
        # and the pairing shape [x, y] + [theta2] * (g - 1); the recurrence
        # itself, before the product with g!, too.
        rng = random.Random(4100 + g)

        def coeff(max_den):
            if rng.random() < 0.2:
                return Fraction(0)
            return Fraction(rng.randint(-99, 99), rng.randint(1, max_den))

        def cls(max_den):
            return NSClass(g, coeff(max_den), coeff(max_den), coeff(max_den))

        cases = [
            [cls(1) for _ in range(g + 1)],
            [cls(10**6) for _ in range(g + 1)],
            [cls(rng.choice((1, 9, 10**6))) for _ in range(g + 1)],
            [cls(10**6), cls(1)] + [theta2(g)] * (g - 1),
            [cls(9), cls(10**6)] + [theta2(g)] * (g - 1),
        ]
        for classes in cases:
            assert top_intersect(classes) == dict_top_intersect(classes)
            factors = [_integer_ratios(cls) for cls in classes]
            assert Fraction(*_recurrence(factors)) == dict_top_intersect(classes) / factorial(g)

    @given(st.data(), genera)
    @settings(max_examples=60)
    def test_unreduced_ratios(self, data, g):
        # Each numerator and denominator times its own k >= 1: the same
        # value, as the command line's unreduced literals rely on.
        classes = [NSClass(g, *(data.draw(rationals) for _ in range(3)))
                   for _ in range(g + 1)]
        factors = []
        for cls in classes:
            ints = []
            for x in cls.coefficients:
                k = data.draw(st.integers(min_value=1, max_value=10**6))
                ints += [x.numerator * k, x.denominator * k]
            factors.append(tuple(ints))
        assert Fraction(*_recurrence(factors)) == dict_top_intersect(classes) / factorial(g)

    @given(st.integers(min_value=1, max_value=300) | st.sampled_from([63, 64, 65, 128, 129]),
           st.integers(min_value=0), st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.3]),
           st.sampled_from([1, 12, 10**6]))
    @settings(max_examples=150, deadline=None)
    def test_tree_matches_fold(self, n, seed, zero_rate, max_k):
        # Past the leaf bound (64 factors) the factors are multiplied as a
        # balanced tree; its state is the plain fold's, integer for integer,
        # on runs at and around the bound and its double, with zero parts (a
        # zero b zeroes s00) and each numerator and denominator times its own
        # k (unreduced ratios).  The pairing hands its factors as a tuple.
        rng = random.Random(seed)

        def part():
            k = rng.randint(1, max_k)
            num = 0 if rng.random() < zero_rate else rng.randint(-20, 20)
            return num * k, rng.randint(1, 12) * k

        factors = [(*part(), *part(), *part()) for _ in range(n)]
        s00, s01, s02, s10, scale = fold_state(factors)
        assert _recurrence(factors, True) == (s00, s01, s02, s10, scale)
        assert _recurrence(factors) == (s10 - 2 * s02, scale)
        assert _recurrence(tuple(factors)) == (s10 - 2 * s02, scale)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_intersect_at_genus_50000_within_time(self, capsys, fmt):
        # intersect on 50,001 small literals: the product tree takes ~0.5 s
        # of CPU time, where a fold one factor at a time took ~4 s.  Every b
        # is nonzero, so the value over g! is B (sum a_i/b_i - ((sum u_i)^2 -
        # sum u_i^2)), with B the product of the b_i and u_i = c_i/b_i; each
        # sum is taken over the distinct (a, b) or (b, c) with their counts.
        # JSON also lists the 50,001 input classes in lowest terms.
        g, rng = 50_000, random.Random(50_000)
        small = [f"{n}/{d}" for n in range(-9, 10) for d in range(1, 10)]
        bs = ["3/2", "-6/4", "5", "2/7", "9/9", "-1"]
        parts = [(rng.choice(small), rng.choice(bs), rng.choice(small)) for _ in range(g + 1)]
        start = time.process_time()
        status = cli.main(["intersect", "-g", str(g), "--format", fmt, "--",
                           *map(",".join, parts)])
        elapsed = time.process_time() - start
        out, err = capsys.readouterr()
        assert (status, err) == (0, "")
        assert elapsed < 2.0, f"took {elapsed:.2f} s of CPU time"

        if fmt == "json":
            record = json.loads(out)
            assert len(record["classes"]) == g + 1
            for i in (0, 1, 777, g):
                texts = ",".join(str(Fraction(x)) for x in parts[i])
                assert record["classes"][i] == f"({texts})"
            value = record["value"]
        else:
            value = out.partition(" (~")[0]
        B = prod(Fraction(b) ** n for b, n in Counter(b for _, b, _ in parts).items())
        sa = sum(n * Fraction(a) / Fraction(b)
                 for (a, b), n in Counter((a, b) for a, b, _ in parts).items())
        us = [(n, Fraction(c) / Fraction(b))
              for (b, c), n in Counter((b, c) for _, b, c in parts).items()]
        su, su2 = sum(n * u for n, u in us), sum(n * u * u for n, u in us)
        expected = factorial(g) * B * (sa - (su * su - su2))
        num, _, den = value.partition("/")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert (int(num), int(den or 1)) == (expected.numerator, expected.denominator)
        finally:
            sys.set_int_max_str_digits(saved)

    def test_integer_entry_checks(self):
        # The entry the command line calls checks the genus, then the count,
        # and leaves the factors it is handed as they were.
        one = (1, 1, 1, 1, 1, 1)
        for g in (1, 0, -3):
            with pytest.raises(ValueError, match="genus must be >= 2"):
                _top_intersect_ints(g, [one] * 3)
        with pytest.raises(ValueError, match="needs exactly 3 classes, got 2"):
            _top_intersect_ints(2, [one, one])
        factors = [one, one, (0, 1, 1, 1, 1, 1)]
        assert _top_intersect_ints(2, factors) == -4
        assert factors == [one, one, (0, 1, 1, 1, 1, 1)]

    @given(st.data(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60)
    def test_multilinear_in_first_slot(self, data, g):
        draw_cls = lambda: NSClass(
            g, data.draw(rationals), data.draw(rationals), data.draw(rationals)
        )
        rest = [draw_cls() for _ in range(g)]
        x, y = draw_cls(), draw_cls()
        lam = data.draw(rationals)
        lhs = top_intersect([lam * x + y] + rest)
        rhs = lam * top_intersect([x] + rest) + top_intersect([y] + rest)
        assert lhs == rhs

    @given(st.data(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60)
    def test_symmetric_under_permutation(self, data, g):
        classes = [
            NSClass(g, data.draw(rationals), data.draw(rationals), data.draw(rationals))
            for _ in range(g + 1)
        ]
        perm = data.draw(st.permutations(range(g + 1)))
        assert top_intersect(classes) == top_intersect([classes[i] for i in perm])


class TestPairing:
    def test_poincare_self_pairing_genus_three(self):
        assert pair_theta_power(poincare(3), poincare(3)) == -12

    @given(st.data(), st.integers(min_value=2, max_value=12))
    @settings(max_examples=80)
    def test_linear_functional_form(self, data, g):
        # Pairing any class against the standard polarization (g, 1, 1)
        # collapses to (a + g b - 2 c) g!.
        a, b, c = (data.draw(rationals) for _ in range(3))
        x = NSClass(g, a, b, c)
        polarization = NSClass(g, g, 1, 1)
        expected = (a + g * b - 2 * c) * factorial(g)
        assert pair_theta_power(x, polarization) == expected

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_engine_equals_closed_form(self, data, g):
        draw_cls = lambda: NSClass(
            g, data.draw(rationals), data.draw(rationals), data.draw(rationals)
        )
        x, y = draw_cls(), draw_cls()
        assert pair_theta_power(x, y) == pair_theta_power_closed(x, y)
        assert pair_theta_power(x, y) == pair_theta_power(y, x)

    @pytest.mark.parametrize("g", [2, 3, 12, 100, 400])
    def test_matches_full_theta_product(self, g):
        # The pairing leaves out the g-1 theta2 factors; the full product
        # through top_intersect is the reference.
        rng = random.Random(7300 + g)

        def coeff():
            if rng.random() < 0.2:
                return Fraction(0)
            return Fraction(rng.randint(-99, 99), rng.randint(1, 10**4))

        for _ in range(10):
            x = NSClass(g, coeff(), coeff(), coeff())
            y = NSClass(g, coeff(), coeff(), coeff())
            full = top_intersect([x, y] + [theta2(g)] * (g - 1))
            assert pair_theta_power(x, y) == full

    def test_genus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_theta_power(theta2(2), theta2(3))


class TestPullback:
    def test_examples(self):
        assert pullback_theta(2, 1, 1) == NSClass(2, 2, 1, 1)
        assert pullback_theta(2, 0, 1) == NSClass(2, 0, 1, 0)
        assert pullback_theta(3, 2, 5) == NSClass(3, 12, 25, 10)
        cls = pullback_theta(2, Fraction(1, 2), 3)
        assert cls == NSClass(2, Fraction(1, 2), 9, Fraction(3, 2))
        assert cls.a * cls.b == 2 * cls.c**2

    def test_rejects_low_genus(self):
        with pytest.raises(ValueError):
            pullback_theta(1, 1, 1)

    @given(genera, rationals, rationals)
    def test_always_on_quadric_wall(self, g, m, n):
        cls = pullback_theta(g, m, n)
        assert cls.a >= 0 and cls.b >= 0
        assert cls.a * cls.b == g * cls.c**2

    @given(st.data(), st.integers(min_value=2, max_value=8))
    @settings(max_examples=50)
    def test_power_identities(self, data, g):
        m = data.draw(rationals)
        n = data.draw(rationals)
        F = pullback_theta(g, m, n)
        assert top_intersect([F] * (g + 1)) == 0
        assert top_intersect([alpha1(g)] + [F] * g) == n ** (2 * g) * factorial(g)

    @given(st.data(), genera)
    @settings(max_examples=50)
    def test_self_pairing(self, data, g):
        m = data.draw(rationals)
        n = data.draw(rationals)
        F = pullback_theta(g, m, n)
        expected = 2 * (g - 1) * m**2 * n**2 * factorial(g)
        assert pair_theta_power(F, F) == expected
        assert pair_theta_power_closed(F, F) == expected


class TestRestrictions:
    def test_C_fiber(self):
        assert restrict_to_C_fiber(NSClass(3, Fraction(7, 2), -1, 5)) == Fraction(7, 2)
