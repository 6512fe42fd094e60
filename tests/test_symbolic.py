"""Symbolic cross-checks with sympy: facts the runtime takes as given,
derived here from their definitions."""

from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

from curvejac.lattice import POINCARE_SQUARE_COEFF, NSClass, poincare, theta2, top_intersect
from curvejac.minima import cone_minimum, zhang_audit_coeff

alpha, theta, Q = sympy.symbols("alpha theta Q")

rationals = st.fractions(min_value=-15, max_value=15, max_denominator=10)
nonneg = st.fractions(min_value=0, max_value=15, max_denominator=10)
positive = st.fractions(min_value=Fraction(1, 10), max_value=15, max_denominator=10)


def rational(x: Fraction) -> sympy.Rational:
    return sympy.Rational(x.numerator, x.denominator)


def contract(product: sympy.Expr, g: int, square: sympy.Expr) -> sympy.Expr:
    """Degree of a product of g+1 classes in (alpha, theta, Q), given
    alpha . theta^g = g!, Q^2 . theta^(g-1) = square * g!, and every other
    degree-(g+1) monomial 0."""
    top = sympy.Poly(sympy.expand(product), alpha, theta, Q)
    return factorial(g) * (
        top.coeff_monomial(alpha * theta**g)
        + square * top.coeff_monomial(Q**2 * theta ** (g - 1))
    )


@pytest.mark.parametrize("g", range(2, 11))
def test_poincare_square_from_pullback_vanishing(g):
    # The pullback F = (g m^2, n^2, m n) of a class on the g-dimensional J
    # has F^(g+1) = 0 for every m, n; that alone fixes the Q^2 coefficient.
    m, n, q = sympy.symbols("m n q")
    F = g * m**2 * alpha + n**2 * theta + m * n * Q
    degree = sympy.Poly(contract(F ** (g + 1), g, q), m, n)
    assert sympy.solve(degree.coeffs(), q, dict=True) == [{q: -2}]
    assert POINCARE_SQUARE_COEFF == -2
    assert top_intersect([poincare(g)] * 2 + [theta2(g)] * (g - 1)) == -2 * factorial(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.data())
def test_top_intersect_matches_expansion(g, data):
    # Expand the product of g+1 linear forms and contract it by hand.
    classes = [
        NSClass(g, *(data.draw(rationals) for _ in range(3))) for _ in range(g + 1)
    ]
    product = sympy.Mul(*(
        rational(x.a) * alpha + rational(x.b) * theta + rational(x.c) * Q
        for x in classes
    ))
    assert contract(product, g, -2) == rational(top_intersect(classes))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), positive, rationals, nonneg)
def test_cone_minimum_is_stationary_point(g, A, C, excess):
    # t* is the zero of d/dt g!(B + g A t^2 - 2 t C), and the minimum there
    # is the infimum; B sits on or above the nef wall A B = g C^2.
    B = g * C * C / A + excess
    report = cone_minimum(NSClass(g, A, B, C))
    t = sympy.symbols("t")
    objective = factorial(g) * (rational(B) + g * rational(A) * t**2 - 2 * t * rational(C))
    assert sympy.solve(sympy.diff(objective, t), t) == [rational(report.t_star)]
    assert objective.subs(t, rational(report.t_star)) == rational(report.infimum)



def audit_r_forms():
    """(g, A, B, C, r(e1), r(h)) in symbols, r being a value divided by g!.

    r(e1) is the minimum over t of the slice objective B + g A t^2 - 2 t C;
    r(h) is L . L . theta2^(g-1) / g! over 2 A.
    """
    g, A = sympy.symbols("g A", positive=True)
    B, C, t = sympy.symbols("B C t", real=True)
    objective = B + g * A * t**2 - 2 * t * C
    (t_star,) = sympy.solve(sympy.diff(objective, t), t)
    assert sympy.diff(objective, t, 2) == 2 * g * A  # > 0: a minimum
    L = (A, B, C)
    return g, A, B, C, objective.subs(t, t_star), pair_r(L, L) / (2 * A)


def pair_r(x, y):
    """x . y . theta2^(g-1) / g! for classes given as (a, b, c) coefficient
    triples, contracted by the two nonzero monomials (theta2^(g-1) only
    shifts the theta degree)."""
    product = sympy.Mul(*(a * alpha + b * theta + c * Q for a, b, c in (x, y)))
    square = sympy.Poly(sympy.expand(product), alpha, theta, Q)
    return (square.coeff_monomial(alpha * theta)
            + POINCARE_SQUARE_COEFF * square.coeff_monomial(Q**2))


def test_margin_in_r_space():
    # The cone-wide theorem in symbolic g, A, B, C with A > 0:
    # r(e1) - r(h) = (g-1) C^2 / (g A).  So e1 >= h on the whole nef cone,
    # with equality exactly when C = 0.
    g, A, B, C, r_e1, r_h = audit_r_forms()
    assert sympy.simplify(r_e1 - r_h - (g - 1) * C**2 / (g * A)) == 0
    assert sympy.solve(r_e1 - r_h, C) == [0]


def test_witness_attains_cone_minimum():
    # Why cone_minimum_coeff sets attained_by_witness without computing a
    # height: in symbolic g, A > 0, B, C, the pullback witness
    # (g m^2, n^2, m n) on the ray n/m = C/A has height
    # B + n^2 A / (g m^2) - 2 n C / (g m) against L, which is r(e1) = B - C^2/(gA).
    g, A, B, C, r_e1, _ = audit_r_forms()
    m = sympy.symbols("m", positive=True)
    n = sympy.symbols("n", real=True)
    L = (A, B, C)
    height = pair_r((g * m**2, n**2, m * n), L) / (g * m**2)
    assert sympy.simplify(height - (B + n**2 * A / (g * m**2) - 2 * n * C / (g * m))) == 0
    on_ray = height.subs(n, C * m / A)
    assert sympy.simplify(on_ray - (B - C**2 / (g * A))) == 0
    assert sympy.simplify(on_ray - r_e1) == 0
    # A = 0: nefness forces C = 0, the witness is (g, 0, 0) (m = 1, n = 0),
    # and its height is the constant objective B.
    assert pair_r((g, 0, 0), (0, B, 0)) / g == B


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), positive, rationals, nonneg)
def test_runtime_r_values_match_symbolic_forms(g, A, C, excess):
    B = g * C * C / A + excess
    audit = zhang_audit_coeff(NSClass(g, A, B, C))
    symbols = audit_r_forms()
    values = dict(zip(symbols[:4], map(rational, (g, A, B, C))))
    assert rational(audit.e1) == symbols[4].subs(values)
    assert rational(audit.h_curve) == symbols[5].subs(values)
