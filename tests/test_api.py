"""The public API: every exported name resolves, and test oracles stay out."""

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
