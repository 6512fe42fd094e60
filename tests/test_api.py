"""The public API: every exported name resolves, the package binds exactly
its submodules' public names, and test oracles stay out."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import curvejac
import curvejac.cones
import curvejac.heights
import curvejac.lattice
import curvejac.minima

MODULES = [curvejac, curvejac.cones, curvejac.heights, curvejac.lattice, curvejac.minima]

# Cross-checks that live in tests/oracles.py, not in the package.
ORACLES = ["MonomialTable", "monomial_table", "pair_theta_power_closed", "grid_oracle"]

# Removed with no runtime route, command or documented use: an alias of
# restrict_to_C_fiber, and a wrapper returning a class's (b, c).  Then the
# private twins that returned a g!-valued quantity divided by g!: each
# quantity has one route, its public ``_coeff`` form.  Then the square-root
# recovery of a boundary class's (m, n), a second route to the ray that the
# cone minimum computes from the class's integers.  Then the point height's
# report, whose degree only repeated the point's: height_point returns its
# _coeff form times g!.
REMOVED = [
    "generic_degree", "restrict_to_J_fiber", "JFiberRestriction",
    "_top_intersect_r", "_pair_r", "_height_point_r", "_height_curve_r",
    "_cone_minimum_r", "_zhang_audit_r",
    "rational_sqrt", "SqrtWitness", "boundary_witness",
    "HeightReport",
]

# The package re-exports exactly its submodules' __all__ lists.
PACKAGE_NAMES = [
    "ConeVerdict", "MIN_GENUS", "MinimaReport", "NSClass",
    "NefDecomposition", "POINCARE_SQUARE_COEFF", "PointClass", "RationalLike",
    "Region", "ZhangAudit", "alpha1", "as_fraction",
    "classify", "cone_minimum", "cone_minimum_coeff",
    "height_curve", "height_curve_coeff", "height_point", "height_point_coeff",
    "nef_decomposition", "pair_theta_power", "pair_theta_power_coeff", "poincare",
    "pullback_theta", "restrict_to_C_fiber", "standard_polarization",
    "theta2", "top_intersect", "top_intersect_coeff", "witness_sequence", "zero_class",
    "zhang_audit", "zhang_audit_coeff",
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


def run_headline(*argv):
    """(exit status, stdout, stderr) of scripts/reproduce_headline.py."""
    root = Path(__file__).parents[1]
    src = str(Path(curvejac.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_headline.py"), *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    return result.returncode, result.stdout, result.stderr


def test_headline_script_output_pinned():
    # scripts/reproduce_headline.py reads zhang_audit, cone_minimum and
    # height_point; its output is pinned byte for byte.
    expected = (Path(__file__).parent / "golden" / "reproduce_headline_2_6.txt").read_text()
    assert run_headline("--g-min", "2", "--g-max", "6", "--witnesses", "2") == (0, expected, "")


def test_headline_script_refuses_genus_below_2():
    # argparse's usage, then the range error, and exit status 2.
    status, out, err = run_headline("--g-min", "1")
    assert (status, out) == (2, "")
    assert err.startswith("usage: reproduce_headline.py")
    assert err.endswith("error: --g-min must be at least 2, got 1\n")
