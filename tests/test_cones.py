"""Cone classification and nef decomposition."""

from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from curvejac.cones import Region, classify, nef_decomposition
from curvejac.lattice import (
    NSClass,
    alpha1,
    pair_theta_power,
    pullback_theta,
    theta2,
    zero_class,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonneg = st.fractions(min_value=0, max_value=20, max_denominator=12)
positive = st.fractions(min_value=Fraction(1, 12), max_value=20, max_denominator=12)
genera = st.integers(min_value=2, max_value=8)


def nef_from(g, m, n, s, t):
    # Pullback classes plus nonnegative alpha1/theta2 bumps stay nef:
    # defect grows from 0 to s*(n^2 + t) + t*(g m^2) >= 0.
    return pullback_theta(g, m, n) + s * alpha1(g) + t * theta2(g)


class TestClassify:
    def test_boundary_example(self):
        verdict = classify(NSClass(2, 2, 1, 1))
        assert verdict.region is Region.BOUNDARY
        assert verdict.is_nef and verdict.is_psef
        assert not verdict.is_ample and not verdict.is_big
        assert verdict.defect == 0

    def test_apex(self):
        verdict = classify(zero_class(2))
        assert verdict.region is Region.BOUNDARY
        assert verdict.defect == 0

    def test_outside_example(self):
        verdict = classify(NSClass(2, 1, 1, 1))
        assert verdict.region is Region.OUTSIDE
        assert verdict.defect == -1
        assert not verdict.is_nef and not verdict.is_psef

    def test_interior_example(self):
        verdict = classify(NSClass(2, 3, 1, 1))
        assert verdict.region is Region.INTERIOR
        assert verdict.is_ample and verdict.is_big and verdict.is_nef
        assert verdict.defect == 1

    def test_basis_rays_are_boundary(self):
        for g in (2, 3, 5):
            assert classify(alpha1(g)).region is Region.BOUNDARY
            assert classify(7 * theta2(g)).region is Region.BOUNDARY

    def test_negative_coefficients_outside(self):
        assert classify(NSClass(2, -1, 5, 0)).region is Region.OUTSIDE
        assert classify(NSClass(2, 5, -1, 0)).region is Region.OUTSIDE

    @given(genera, rationals, rationals)
    def test_pullbacks_never_interior_or_outside(self, g, m, n):
        verdict = classify(pullback_theta(g, m, n))
        assert verdict.region is Region.BOUNDARY

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_nef_closed_under_addition(self, data, g):
        x = nef_from(g, data.draw(rationals), data.draw(rationals),
                     data.draw(nonneg), data.draw(nonneg))
        y = nef_from(g, data.draw(rationals), data.draw(rationals),
                     data.draw(nonneg), data.draw(nonneg))
        assert classify(x).is_nef
        assert classify(y).is_nef
        assert classify(x + y).is_nef

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_region_invariant_under_positive_scaling(self, data, g):
        x = NSClass(g, data.draw(rationals), data.draw(rationals), data.draw(rationals))
        lam = data.draw(positive)
        assert classify(lam * x).region is classify(x).region

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_interior_positivity_against_polarizations(self, data, g):
        # Ample classes pair strictly positively against both (g, 1, 1) and
        # its mirror (g, 1, -1); equivalently (a + g b -/+ 2 c) g! > 0.
        a = data.draw(positive)
        b = data.draw(positive)
        c = data.draw(rationals)
        x = NSClass(g, a, b, c)
        verdict = classify(x)
        if verdict.region is not Region.INTERIOR:
            return
        gf = factorial(g)
        assert (x.a + g * x.b - 2 * x.c) * gf > 0
        assert (x.a + g * x.b + 2 * x.c) * gf > 0
        assert pair_theta_power(x, NSClass(g, g, 1, 1)) > 0


class TestNefDecomposition:
    def test_example(self):
        part = nef_decomposition(NSClass(2, 3, 1, 1))
        assert part.boundary_part == NSClass(2, 2, 1, 1)
        assert part.alpha_excess == 1
        assert not part.degenerate

    def test_degenerate_branch(self):
        part = nef_decomposition(NSClass(2, 5, 0, 0))
        assert part.degenerate
        assert part.boundary_part == zero_class(2)
        assert part.alpha_excess == 5

    def test_rejects_non_nef(self):
        with pytest.raises(ValueError):
            nef_decomposition(NSClass(2, 1, 1, 1))

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_round_trip(self, data, g):
        x = nef_from(g, data.draw(rationals), data.draw(rationals),
                     data.draw(nonneg), data.draw(nonneg))
        part = nef_decomposition(x)
        assert part.alpha_excess >= 0
        assert part.boundary_part + part.alpha_excess * alpha1(g) == x
        wall = classify(part.boundary_part)
        assert wall.region is Region.BOUNDARY
        assert wall.defect == 0
