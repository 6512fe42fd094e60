"""The public API: every exported name resolves, the package binds exactly
its submodules' public names, and test oracles stay out."""

import types

import pytest

import curvejac
import curvejac.heights
import curvejac.lattice
import curvejac.minima

MODULES = [curvejac, curvejac.heights, curvejac.lattice, curvejac.minima]

# Cross-checks that live in tests/oracles.py, not in the package.
ORACLES = ["MonomialTable", "monomial_table", "pair_theta_power_closed", "grid_oracle"]

# Removed with no runtime route, command or documented use: an alias of
# restrict_to_C_fiber, and a wrapper returning a class's (b, c).
REMOVED = ["generic_degree", "restrict_to_J_fiber", "JFiberRestriction"]

# The package re-exports exactly its submodules' __all__ lists.
PACKAGE_NAMES = [
    "ConeVerdict", "HeightReport", "MIN_GENUS", "MinimaReport", "NSClass",
    "NefDecomposition", "POINCARE_SQUARE_COEFF", "PointClass", "RationalLike",
    "Region", "SqrtWitness", "ZhangAudit", "alpha1", "as_fraction",
    "boundary_witness", "classify", "cone_minimum", "height_curve", "height_point",
    "nef_decomposition", "pair_theta_power", "poincare", "pullback_theta",
    "rational_sqrt", "restrict_to_C_fiber", "standard_polarization", "theta2",
    "top_intersect", "witness_sequence", "zero_class", "zhang_audit",
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # A stale entry would make `from curvejac import *` raise.
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_oracles_not_exported(module):
    assert [name for name in ORACLES if hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_absent(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_package_names_pinned():
    assert sorted(curvejac.__all__) == PACKAGE_NAMES


def test_package_binds_only_its_names():
    public = [
        name for name, value in vars(curvejac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(public) == PACKAGE_NAMES
