"""The cone, height, minimum and audit kernels against their Fraction formulas.

The kernels work on the integers of each class's coefficients; ``oracles``
writes the same quantities as ``Fraction`` arithmetic on the coefficients.
Classes are drawn from unreduced 'p/q' literals with components from a few
bits to a few thousand, negative c, A = 0 and the nef wall included.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from curvejac.cones import classify
from curvejac.heights import PointClass, _height_curve_r, _height_point_r, height_point
from curvejac.lattice import NSClass
from curvejac.minima import _cone_minimum_r, _zhang_audit_r, cone_minimum

from oracles import (
    audit_closed,
    cone_minimum_closed,
    defect,
    height_curve_closed,
    height_point_closed,
)

genera = st.one_of(st.integers(2, 12), st.integers(13, 1600))
numerators = st.one_of(st.integers(-20, 20), st.integers(-2**64, 2**64),
                       st.integers(-2**3000, 2**3000))
denominators = st.one_of(st.integers(1, 20), st.integers(1, 2**64), st.integers(1, 2**3000))
rationals = st.builds(Fraction, numerators, denominators)
nonneg = rationals.map(abs)
zero = st.just(Fraction(0))
base_multiples = st.one_of(st.just(1), st.just(Fraction(3, 2)),
                           st.builds(Fraction, st.integers(1, 2**80), st.integers(1, 2**80)))


@st.composite
def literal(draw, value: Fraction) -> str:
    """``value`` as a 'p/q' literal whose terms share a drawn factor."""
    k = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**200)))
    return f"{value.numerator * k}/{value.denominator * k}"


@st.composite
def classes(draw, g: int, nef: bool = False) -> NSClass:
    """Any class, or a nef one: (g m^2 + p, n^2 + q, m n) with p, q >= 0,
    which is on the wall when p = q = 0 and has A = 0 when m = p = 0."""
    if nef:
        m, n = draw(zero | rationals), draw(rationals)
        p, q = draw(zero | nonneg), draw(zero | nonneg)
        coefficients = (g * m * m + p, n * n + q, m * n)
    else:
        coefficients = (draw(rationals), draw(rationals), draw(rationals))
    return NSClass(g, *[draw(literal(x)) for x in coefficients])


@st.composite
def pairs(draw, nef: bool = False) -> tuple:
    """A genus and one class of it, nef when asked."""
    g = draw(genera)
    return g, draw(classes(g, nef))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_classify_matches_defect(case):
    x = case[1]
    verdict = classify(x)
    d = defect(x)
    assert verdict.defect == d
    assert verdict.is_nef == verdict.is_psef == (x.a >= 0 and x.b >= 0 and d >= 0)
    assert verdict.is_ample == verdict.is_big == (x.a > 0 and x.b > 0 and d > 0)


@settings(max_examples=200, deadline=None)
@given(pairs(nef=True))
@example((3, NSClass(3, 0, 5, 0)))
@example((2, NSClass(2, 0, 0, 0)))
@example((4, NSClass(4, 36, 1, -3)))
def test_cone_minimum_matches_formulas(case):
    L = case[1]
    report = _cone_minimum_r(L)
    t_star, s_star, infimum = cone_minimum_closed(L)
    assert (report.t_star, report.s_star, report.infimum) == (t_star, s_star, infimum)
    assert report.attained_by_witness
    # The witness normalizes to (1, s*, t*).
    w = report.witness.cls
    assert (w.b / w.a, w.c / w.a) == (s_star, t_star)


@settings(max_examples=200, deadline=None)
@given(st.data(), pairs(), base_multiples)
def test_height_point_matches_formula(data, case, base_multiple):
    g, L = case
    x = data.draw(classes(g, nef=True).filter(lambda x: x.a > 0))
    expected = height_point_closed(L, x, base_multiple)
    assert _height_point_r(L, PointClass(x), base_multiple) == expected


@settings(max_examples=200, deadline=None)
@given(pairs().filter(lambda case: case[1].a > 0), base_multiples)
def test_height_curve_matches_formula(case, base_multiple):
    L = case[1]
    assert _height_curve_r(L, base_multiple) == height_curve_closed(L, base_multiple)


@settings(max_examples=200, deadline=None)
@given(pairs(nef=True).filter(lambda case: case[1].a > 0))
@example((5, NSClass(5, "6/4", "10/6", "-2/8")))
def test_zhang_audit_matches_formulas(case):
    L = case[1]
    audit = _zhang_audit_r(L)
    assert (audit.e1, audit.e2, audit.h_curve, audit.first_inequality_holds,
            audit.second_inequality_holds, audit.violation_margin) == audit_closed(L)
    assert audit.minima_attained


def test_messages():
    with pytest.raises(ValueError) as err:
        cone_minimum(NSClass(3, 1, 1, 1))
    assert str(err.value) == "cone_minimum needs a nef class, got (1,1,1) with defect -2"
    with pytest.raises(ValueError) as err:
        _zhang_audit_r(NSClass(3, 0, 1, 0))
    assert str(err.value) == "curve height needs positive generic degree, got 0"
    with pytest.raises(ValueError) as err:
        _height_curve_r(NSClass(3, "-2/4", 1, 0))
    assert str(err.value) == "curve height needs positive generic degree, got -1/2"
    with pytest.raises(ValueError) as err:
        _height_curve_r(NSClass(3, 1, 1, 0), "-3/2")
    assert str(err.value) == "base polarization multiple must be positive, got -3/2"
    with pytest.raises(ValueError) as err:
        height_point(NSClass(2, 2, 1, 1), NSClass(2, 1, 0, 0), 0)
    assert str(err.value) == "base polarization multiple must be positive, got 0"
    with pytest.raises(ValueError) as err:
        height_point(NSClass(2, 2, 1, 1), PointClass(NSClass(3, 1, 0, 0)))
    assert str(err.value) == "genus mismatch: 3 vs 2"
