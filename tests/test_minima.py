"""Cone minima, the grid oracle, witness families, and the audit."""

import time
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from curvejac import minima
from curvejac.cli import main
from curvejac.heights import (PointClass, height_curve, height_point, height_point_coeff,
                              standard_polarization)
from curvejac.lattice import NSClass, alpha1, pullback_theta, theta2
from curvejac.minima import (MinimaReport, cone_minimum, cone_minimum_coeff, witness_sequence,
                             zhang_audit, zhang_audit_coeff)

from oracles import grid_oracle

rationals = st.fractions(min_value=-15, max_value=15, max_denominator=10)
nonneg = st.fractions(min_value=0, max_value=15, max_denominator=10)
positive = st.fractions(min_value=Fraction(1, 10), max_value=15, max_denominator=10)
genera = st.integers(min_value=2, max_value=8)


def slice_objective(L, t):
    # Height of the normalized boundary class (1, g t^2, t) against L,
    # written out directly; the oracle form of the quantity being minimized.
    g = L.genus
    return factorial(g) * (L.b + g * t**2 * L.a - 2 * t * L.c)


def nef_with_degree(g, m, n, s, t):
    return pullback_theta(g, m, n) + s * alpha1(g) + t * theta2(g)


class TestConeMinimum:
    @pytest.mark.parametrize("g", range(2, 13))
    def test_standard_polarization(self, g):
        report = cone_minimum(standard_polarization(g))
        assert report.infimum == Fraction((g * g - 1) * factorial(g - 1), g)
        assert report.t_star == Fraction(1, g**2)
        assert report.s_star == Fraction(1, g**3)
        assert report.attained_by_witness
        assert report.witness is not None
        assert report.witness.cls == NSClass(g, g**3, 1, g)

    def test_no_universal_component(self):
        report = cone_minimum(NSClass(2, 5, 3, 0))
        assert report.infimum == 2 * 3
        assert report.t_star == 0 and report.s_star == 0
        assert report.attained_by_witness

    def test_boundary_pullback_example(self):
        report = cone_minimum(NSClass(2, 8, 1, 2))
        assert report.infimum == Fraction(3, 2)
        assert report.t_star == Fraction(1, 8)
        assert report.s_star == Fraction(1, 32)
        assert report.s_star == 2 * report.t_star**2
        assert report.attained_by_witness
        assert report.witness.cls == NSClass(2, 32, 1, 4)

    def test_degenerate_zero_degree(self):
        report = cone_minimum(NSClass(2, 0, 7, 0))
        assert report.infimum == 14
        assert report.t_star == 0 and report.s_star == 0
        assert report.attained_by_witness
        for g in (3, 5, 12):
            assert cone_minimum(NSClass(g, 0, 3, 0)).infimum == 3 * factorial(g)
        # Zero degree with c != 0 is not nef, so the nef check refuses it.
        with pytest.raises(ValueError, match="needs a nef class"):
            cone_minimum(NSClass(2, 0, 1, 1))

    def test_witness_required(self):
        report = cone_minimum(NSClass(2, 8, 1, 2))
        with pytest.raises(TypeError):
            MinimaReport(report.infimum, report.s_star, report.t_star)

    def test_rejects_non_nef(self):
        with pytest.raises(ValueError):
            cone_minimum(NSClass(2, 1, 1, 1))
        with pytest.raises(ValueError):
            cone_minimum(NSClass(2, -1, 0, 0))

    @given(st.data(), genera)
    @settings(max_examples=80)
    def test_constraint_active_and_witness_verified(self, data, g):
        L = nef_with_degree(
            g,
            data.draw(positive),
            data.draw(rationals),
            data.draw(nonneg),
            data.draw(nonneg),
        )
        report = cone_minimum(L)
        assert report.s_star == g * report.t_star**2
        assert report.infimum == slice_objective(L, report.t_star)
        assert report.attained_by_witness
        witness = report.witness
        assert witness.cls.a * witness.cls.b == g * witness.cls.c**2
        assert height_point(L, witness) == report.infimum

    @given(st.data(), genera)
    @settings(max_examples=60)
    def test_infimum_below_sampled_objective(self, data, g):
        L = nef_with_degree(
            g,
            data.draw(positive),
            data.draw(rationals),
            data.draw(nonneg),
            data.draw(nonneg),
        )
        report = cone_minimum(L)
        t = data.draw(rationals)
        assert slice_objective(L, t) >= report.infimum


class TestGridOracle:
    def test_genus_two_grid_hits_minimizer(self):
        L = standard_polarization(2)
        # t* = 1/4 lies on the 5-point grid over [0, 1].
        assert grid_oracle(L, 0, 1, 4) == Fraction(3, 2)

    def test_single_point_grid_at_minimizer(self):
        L = NSClass(2, 8, 1, 2)
        report = cone_minimum(L)
        assert grid_oracle(L, report.t_star, report.t_star, 1) == report.infimum

    def test_genus_three_off_grid_strict(self):
        L = standard_polarization(3)
        value = grid_oracle(L, 0, 1, 10)
        exhaustive = min(slice_objective(L, Fraction(i, 10)) for i in range(11))
        assert value == exhaustive == Fraction(267, 50)
        assert value > cone_minimum(L).infimum == Fraction(16, 3)

    def test_rejects_bad_grids(self):
        L = standard_polarization(2)
        with pytest.raises(ValueError):
            grid_oracle(L, 0, 1, 0)
        with pytest.raises(ValueError):
            grid_oracle(L, 1, 0, 4)

    def test_rejects_degree_zero_and_non_nef(self):
        with pytest.raises(ValueError):
            grid_oracle(NSClass(2, 0, 1, 0), 0, 1, 4)
        with pytest.raises(ValueError):
            grid_oracle(NSClass(2, 1, 1, 1), 0, 1, 4)

    @given(st.data(), genera)
    @settings(max_examples=60)
    def test_matches_exhaustive_evaluation(self, data, g):
        L = nef_with_degree(
            g,
            data.draw(positive),
            data.draw(rationals),
            data.draw(nonneg),
            data.draw(nonneg),
        )
        t_lo = data.draw(rationals)
        width = data.draw(nonneg)
        steps = data.draw(st.integers(min_value=1, max_value=24))
        t_hi = t_lo + width
        value = grid_oracle(L, t_lo, t_hi, steps)
        exhaustive = min(
            slice_objective(L, t_lo + Fraction(i, steps) * width)
            for i in range(steps + 1)
        )
        assert value == exhaustive
        assert value >= cone_minimum(L).infimum

    @given(st.data(), genera)
    @settings(max_examples=40)
    def test_chunked_evaluation_combines_by_minimum(self, data, g):
        L = nef_with_degree(
            g, data.draw(positive), data.draw(rationals),
            data.draw(nonneg), data.draw(nonneg),
        )
        t_lo = data.draw(rationals)
        width = data.draw(nonneg)
        half = data.draw(st.integers(min_value=1, max_value=12))
        mid = t_lo + width / 2
        full = grid_oracle(L, t_lo, t_lo + width, 2 * half)
        left = grid_oracle(L, t_lo, mid, half)
        right = grid_oracle(L, mid, t_lo + width, half)
        assert full == min(left, right)

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_refinement_is_monotone_and_converges(self, g):
        L = standard_polarization(g)
        report = cone_minimum(L)
        lo, hi = report.t_star - 1, report.t_star + 1
        previous = None
        for k in range(1, 9):
            value = grid_oracle(L, lo, hi, 2**k)
            assert value >= report.infimum
            if previous is not None:
                assert value <= previous
            previous = value
        # t* is the midpoint of the window, so every even grid contains it.
        assert previous == report.infimum


class TestWitnessSequence:
    @pytest.mark.parametrize("g", range(2, 13))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_exact_heights(self, g, n):
        witness = witness_sequence(g, n)
        assert witness.cls == NSClass(g, g**3 * n, n, g * n)
        assert witness.degree == g**3 * n
        assert witness.cls.a * witness.cls.b == g * witness.cls.c**2
        height = height_point(standard_polarization(g), witness)
        assert height == cone_minimum(standard_polarization(g)).infimum

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            witness_sequence(2, 0)
        with pytest.raises(ValueError):
            witness_sequence(2, -1)

    def test_rejects_low_genus(self):
        with pytest.raises(ValueError):
            witness_sequence(1, 1)


class TestZhangAudit:
    def test_genus_two_headline(self):
        audit = zhang_audit(standard_polarization(2))
        assert audit.e1 == audit.e2 == Fraction(3, 2)
        assert audit.h_curve == 1
        assert audit.first_inequality_holds
        assert not audit.second_inequality_holds
        assert audit.violation_margin == Fraction(1, 2)
        assert audit.minima_attained

    @pytest.mark.parametrize("g", range(2, 13))
    def test_headline_all_genera(self, g):
        audit = zhang_audit(standard_polarization(g))
        assert audit.e1 == audit.e2 == Fraction((g * g - 1) * factorial(g - 1), g)
        assert audit.h_curve == (g - 1) * factorial(g - 1)
        assert audit.first_inequality_holds
        assert not audit.second_inequality_holds
        assert audit.violation_margin == Fraction((g - 1) * factorial(g - 1), g)
        assert audit.violation_margin > 0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_pullback_family_shares_headline_values(self, m):
        # The whole family (g m^2, 1, m) audits identically to m = 1: both
        # the minimum and the curve height are invariant in m.
        g = 3
        audit = zhang_audit(pullback_theta(g, m, 1))
        reference = zhang_audit(standard_polarization(g))
        assert audit.e1 == reference.e1
        assert audit.h_curve == reference.h_curve
        assert audit.violation_margin == reference.violation_margin

    def test_propagates_degree_errors(self):
        with pytest.raises(ValueError):
            zhang_audit(theta2(2))
        with pytest.raises(ValueError):
            zhang_audit(NSClass(2, 1, 1, 1))

    @given(genera, positive, rationals, nonneg, nonneg)
    @example(3, 1, 1, 0, 0)  # standard polarization, on the wall ab = g c^2
    @example(2, 2, 3, 0, 0)  # wall class (8, 9, 6)
    @example(4, 1, 0, Fraction(1, 2), 3)  # the face C = 0
    @example(5, 2, 0, 1, 0)  # both: (21, 0, 0)
    @settings(max_examples=60)
    def test_first_inequality_and_margin_consistency(self, g, m, n, s, t):
        L = nef_with_degree(g, m, n, s, t)
        audit = zhang_audit(L)
        assert audit.e1 >= audit.e2
        assert audit.first_inequality_holds
        assert audit.e1 == cone_minimum(L).infimum
        assert audit.h_curve == height_curve(L)
        mean = (audit.e1 + audit.e2) / 2
        assert audit.violation_margin == mean - audit.h_curve
        assert audit.second_inequality_holds == (audit.violation_margin <= 0)
        # The cone-wide audit identity: e1 - h = (g-1) (g-1)! C^2 / A on
        # every nef class with A > 0, so the first inequality always holds
        # and the second fails exactly off the face C = 0.
        A, C = L.a, L.c
        assert audit.e1 - audit.h_curve == (g - 1) * factorial(g - 1) * C**2 / A
        assert audit.e1 >= audit.h_curve
        assert audit.second_inequality_holds == (C == 0)


class TestAuditBuildsNoWitness:
    """The audit takes the cone minimum's value alone: neither the library
    audit nor the CLI's audit and table build a witness class, while the
    cone minimum and the ``minima`` command still do."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"PointClass": 0, "pullback_theta": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(minima, "PointClass", counting("PointClass", minima.PointClass))
        monkeypatch.setattr(minima, "pullback_theta",
                            counting("pullback_theta", minima.pullback_theta))
        return counts

    @pytest.mark.parametrize("L", [standard_polarization(7), NSClass(7, 28, 1, 2),
                                   NSClass(3, "6/4", "10/6", "-2/8"), NSClass(2, 1, 0, 0)])
    def test_library_audit(self, built, L):
        zhang_audit_coeff(L)
        zhang_audit(L)
        assert built == {"PointClass": 0, "pullback_theta": 0}

    @pytest.mark.parametrize("argv", [["audit", "-g", "7"],
                                      ["audit", "-g", "7", "-L", "28,1,2"],
                                      ["audit", "-g", "7", "--format", "json"],
                                      ["table", "2", "6"]])
    def test_cli_audit_and_table(self, built, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert built == {"PointClass": 0, "pullback_theta": 0}

    def test_cone_minimum_builds_its_witness(self, built, capsys):
        report = cone_minimum_coeff(NSClass(7, 28, 1, 2))
        assert report.witness == PointClass(pullback_theta(7, 14, 1))
        assert built == {"PointClass": 1, "pullback_theta": 1}
        assert main(["minima", "-g", "7", "-L", "28,1,2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "attained by witness (1372,1,14), degree 1372"
        assert built == {"PointClass": 2, "pullback_theta": 2}

    def test_nef_check_before_degree_check(self):
        # (-1, 1, 0) is not nef and has degree -1: the nef check speaks.
        L = NSClass(3, -1, 1, 0)
        with pytest.raises(ValueError, match="^cone_minimum needs a nef class, got "
                                             r"\(-1,1,0\) with defect "):
            zhang_audit_coeff(L)
        with pytest.raises(ValueError, match="^curve height needs positive generic degree"):
            height_curve(L)


@pytest.mark.parametrize("g", [10**7, 10**18])
def test_coeff_forms_at_huge_genus(g):
    # The public _coeff forms never build g!: at genus 10**18 the audit, the
    # minimum and a witness height are closed forms in O(1) integer work.
    start = time.monotonic()
    L = standard_polarization(g)
    audit = zhang_audit_coeff(L)
    minimum = cone_minimum_coeff(L)
    witness = height_point_coeff(L, witness_sequence(g, 1))
    elapsed = time.monotonic() - start
    e = Fraction(g * g - 1, g * g)
    assert (audit.e1, audit.e2, audit.h_curve, audit.violation_margin) == (
        e, e, Fraction(g - 1, g), Fraction(g - 1, g * g))
    assert audit.minima_attained and audit.first_inequality_holds
    assert not audit.second_inequality_holds
    assert minimum.infimum == e and minimum.attained_by_witness
    assert witness == e
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
