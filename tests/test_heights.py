"""Point heights and the self-height of the total space."""

from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from curvejac.heights import (
    PointClass,
    height_curve,
    height_curve_coeff,
    height_point,
    height_point_coeff,
    standard_polarization,
)
from curvejac.lattice import NSClass, alpha1, pullback_theta, restrict_to_C_fiber, theta2

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonneg = st.fractions(min_value=0, max_value=20, max_denominator=12)
positive = st.fractions(min_value=Fraction(1, 12), max_value=20, max_denominator=12)
genera = st.integers(min_value=2, max_value=8)


def psef_point(g, m, n, s, t):
    # Nef (hence psef) with positive degree as long as m != 0 or s > 0.
    return PointClass(pullback_theta(g, m, n) + s * alpha1(g) + t * theta2(g))


class TestPointClass:
    def test_accepts_boundary_point(self):
        point = PointClass(NSClass(2, 8, 1, 2))
        assert point.degree == 8

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            PointClass(NSClass(2, 0, 1, 0))
        with pytest.raises(ValueError):
            PointClass(NSClass(2, -2, 1, 0))

    def test_rejects_non_psef(self):
        with pytest.raises(ValueError):
            PointClass(NSClass(2, 1, 1, 1))


class TestStandardPolarization:
    @pytest.mark.parametrize("g", [*range(2, 65), 10**18])
    def test_is_theta_pullback_at_one_one(self, g):
        L = standard_polarization(g)
        assert L == NSClass(g, g, 1, 1)
        assert L == pullback_theta(g, 1, 1)
        assert restrict_to_C_fiber(L) == g
        assert all(type(x) is Fraction for x in L.coefficients)

    @pytest.mark.parametrize("g", [1, 0, True, 2.0, "3"])
    def test_bad_genus_diagnostic_as_pullback(self, g):
        with pytest.raises((TypeError, ValueError)) as ours:
            standard_polarization(g)
        with pytest.raises((TypeError, ValueError)) as pullback:
            pullback_theta(g, 1, 1)
        assert (type(ours.value), str(ours.value)) == (type(pullback.value), str(pullback.value))


class TestHeightPoint:
    def test_constant_section_class(self):
        # (1, 0, 0) is the class of a constant section; height g!.
        for g in range(2, 7):
            point = NSClass(g, 1, 0, 0)
            assert height_point(standard_polarization(g), point) == factorial(g)
            assert PointClass(point).degree == 1

    def test_witness_example_genus_two(self):
        point = NSClass(2, 8, 1, 2)
        assert height_point(standard_polarization(2), point) == Fraction(3, 2)
        assert PointClass(point).degree == 8

    def test_witness_example_genus_three(self):
        point = NSClass(3, 27, 1, 3)
        assert height_point(standard_polarization(3), point) == Fraction(16, 3)
        assert PointClass(point).degree == 27

    def test_genus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            height_point(standard_polarization(2), PointClass(NSClass(3, 1, 0, 0)))

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_report_invariant_and_scale_invariance(self, data, g):
        from curvejac.lattice import pair_theta_power

        point = psef_point(
            g,
            data.draw(positive),
            data.draw(rationals),
            data.draw(nonneg),
            data.draw(nonneg),
        )
        L = standard_polarization(g)
        height = height_point(L, point)
        assert height == pair_theta_power(point.cls, L) / point.degree
        lam = data.draw(positive)
        scaled = PointClass(lam * point.cls)
        assert height_point(L, scaled) == height
        assert scaled.degree == lam * point.degree
        assert height_point(2 * L, point) == 2 * height

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_lower_bound_and_equality_analysis(self, data, g):
        point = psef_point(
            g,
            data.draw(positive),
            data.draw(rationals),
            data.draw(nonneg),
            data.draw(nonneg),
        )
        bound = Fraction((g * g - 1) * factorial(g - 1), g)  # (g - 1/g) (g-1)!
        height = height_point(standard_polarization(g), point)
        assert height >= bound
        if height == bound:
            # Equality only on the ray through (1, 1/g^3, 1/g^2).
            assert point.cls.b / point.cls.a == Fraction(1, g**3)
            assert point.cls.c / point.cls.a == Fraction(1, g**2)

    @pytest.mark.parametrize("g", range(2, 13))
    def test_equality_on_minimizing_ray(self, g):
        bound = Fraction((g * g - 1) * factorial(g - 1), g)
        ray = NSClass(g, 1, Fraction(1, g**3), Fraction(1, g**2))
        for lam in (1, 2, Fraction(5, 3)):
            assert height_point(standard_polarization(g), lam * ray) == bound


class TestHeightCurve:
    @pytest.mark.parametrize("g", range(2, 13))
    def test_standard_polarization_value(self, g):
        assert height_curve(standard_polarization(g)) == (g - 1) * factorial(g - 1)

    def test_genus_five_example(self):
        assert height_curve(standard_polarization(5)) == 96

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            height_curve(theta2(2))

    @given(st.data(), genera)
    @settings(max_examples=60)
    def test_quadratic_homogeneity_cancels_to_linear(self, data, g):
        from curvejac.lattice import pair_theta_power

        m = data.draw(positive)
        n = data.draw(rationals)
        L = pullback_theta(g, m, n) + data.draw(positive) * alpha1(g)
        value = height_curve(L)
        assert value == pair_theta_power(L, L) / (2 * restrict_to_C_fiber(L))
        lam = data.draw(positive)
        assert height_curve(lam * L) == lam * value


POINT_ARGS = (standard_polarization(2), NSClass(2, 1, 0, 0))
CURVE_ARGS = (standard_polarization(2),)


@pytest.mark.parametrize("height, args", [
    (height_point, POINT_ARGS),
    (height_point_coeff, POINT_ARGS),
    (height_curve, CURVE_ARGS),
    (height_curve_coeff, CURVE_ARGS),
], ids=["height_point", "height_point_coeff", "height_curve", "height_curve_coeff"])
def test_no_base_multiple(height, args):
    # Heights are against theta only; a multiple lam of theta is the
    # caller's factor lam^(g-1), not an argument.
    with pytest.raises(TypeError, match="positional argument"):
        height(*args, 1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'base_multiple'"):
        height(*args, base_multiple=1)
