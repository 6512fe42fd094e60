"""Mutation gate: every mutant in ``MUTANTS`` must make its tests fail.

Each entry names a file, an exact snippet of it, a replacement and the tests
that should catch the change.  For each entry the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, replaces the
snippet there and runs ``python -m pytest -x -q`` on the named tests against
that copy.  A mutant is killed when pytest reports failed tests (exit status
1); a collection error or any other status is not a kill.  The script exits
1 when a snippet no longer occurs exactly once in its file or a mutant
survives, else 0.  Standard library only; run from anywhere:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, old text, new text, tests as pytest paths)
MUTANTS = [
    ("src/curvejac/lattice.py",
     "POINCARE_SQUARE_COEFF = -2", "POINCARE_SQUARE_COEFF = -3",
     "tests/test_symbolic.py"),
    ("src/curvejac/lattice.py",
     "xb * s02 + xc * s01,", "xb * s02 + xc * s00,",
     "tests/test_lattice.py::TestTopIntersect"),
    ("src/curvejac/lattice.py",
     "den = lcm(ad, bd, cd)", "den = lcm(ad, bd)",
     "tests/test_lattice.py::TestTopIntersect"),
    ("src/curvejac/lattice.py",
     "if len(factors) != g + 1:", "if len(factors) > g + 1:",
     "tests/test_lattice.py::TestTopIntersect"),
    ("src/curvejac/lattice.py",
     "    _check_genus(g)\n    factors.extend(later)", "    factors.extend(later)",
     "tests/test_cli.py::test_intersect_matches_reference"),
    ("src/curvejac/minima.py",
     "n, m = ((cn // k) * (ad // j),", "n, m = (2 * (cn // k) * (ad // j),",
     "tests/test_minima.py"),
    ("src/curvejac/minima.py",
     "infimum = Fraction(bn * cd * g * m - cn * n * bd,",
     "infimum = Fraction(bn * cd * g * m - cn * n,",
     "tests/test_kernels.py::test_cone_minimum_matches_formulas"),
    ("src/curvejac/cones.py",
     "num = an * bn * cd * cd - ", "num = an * bn * cd - ",
     "tests/test_kernels.py::test_classify_matches_defect"),
    ("src/curvejac/cli.py",
     'if double > den or (double == den and digits[-1] in "13579"):',
     "if double >= den:",
     "tests/test_cli.py::TestDecimalAnnotation"),
    ("src/curvejac/cli.py",
     "d = gcd(int(_EXACT.remainder(gf, q_dec)), q)", "d = 1",
     "tests/test_factored.py"),
    ("src/curvejac/cli.py",
     "gf = _EXACT.multiply(gf, g)", "gf = _decimal_product(0, g)",
     "tests/test_cli.py::TestTable"),
    ("src/curvejac/cli.py",
     "_decimal_product(mid, hi)", "_decimal_product(mid + 1, hi)",
     "tests/test_factored.py"),
    ("src/curvejac/cli.py",
     "except (CLIError, ValueError, OverflowError) as err:",
     "except (CLIError, ValueError) as err:",
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     'parser = _command_parser(argv[0], _Parser(prog=f"curvejac {argv[0]}"))',
     'parser = _command_parser(argv[0], argparse.ArgumentParser(prog=f"curvejac {argv[0]}"))',
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     'raise CLIError(message.replace("\\n", "\\\\n"))', "raise CLIError(message)",
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     '_CLASS_RE = re.compile(",".join([_RATIONAL] * 3), re.ASCII)',
     '_CLASS_RE = re.compile(",".join([_RATIONAL] * 3))',
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     'if not _RATIONAL_RE.fullmatch(text) or "/" in text:', 'if "/" in text:',
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     "    if 0 in ints[1::2]:\n", "    if False:\n",
     "tests/test_cli.py::TestParsing"),
    ("src/curvejac/cli.py",
     "d = gcd(num, den)", "d = 1",
     "tests/test_cli.py::test_intersect_renders_classes_for_json_only"),
    ("src/curvejac/cli.py",
     'if args.format == "json" else {}', "if args.format else {}",
     "tests/test_cli.py::test_intersect_renders_classes_for_json_only"),
    ("src/curvejac/cli.py",
     "        sys.stdout.flush()  # a reader", "        pass  # a reader",
     "tests/test_cli.py::test_reader_gone_leaves_stderr_empty"),
    ("src/curvejac/cli.py",
     "        sys.stdout.flush()\n        super().exit", "        super().exit",
     "tests/test_cli.py::test_reader_gone_leaves_stderr_empty"),
]


def copy_tree(dest: Path) -> None:
    """The files the tests need, without caches, under ``dest``."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def env_for(workdir: Path) -> dict:
    """This process's environment, importing curvejac from ``workdir``."""
    return {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def run_mutant(workdir: Path, path: str, old: str, new: str, tests: str) -> str:
    """'killed', 'survived', or why the mutant could not be judged."""
    copy_tree(workdir)
    target = workdir / path
    text = target.read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times, not once"
    target.write_text(text.replace(old, new))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
        cwd=workdir, env=env_for(workdir), capture_output=True, text=True, timeout=600,
    )
    if result.returncode == 1:
        return "killed"
    if result.returncode == 0:
        return "survived"
    return f"pytest exited {result.returncode}: {result.stdout.strip().splitlines()[-1:]}"


def imports_from(workdir: Path) -> bool:
    """Whether a test run in ``workdir`` imports curvejac from its copy."""
    copy_tree(workdir)
    where = subprocess.run(
        [sys.executable, "-c", "import curvejac; print(curvejac.__file__)"],
        cwd=workdir, env=env_for(workdir), capture_output=True, text=True, check=True,
    ).stdout.strip()
    return Path(where).resolve().is_relative_to(workdir.resolve())


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="curvejac-mutants-") as tmp:
        if not imports_from(Path(tmp) / "probe"):
            print("curvejac is not imported from the mutated copy; nothing was judged")
            return 1
        for index, (path, old, new, tests) in enumerate(MUTANTS):
            start = time.monotonic()
            verdict = run_mutant(Path(tmp) / str(index), path, old, new, tests)
            bad += verdict != "killed"
            first_line = old.strip().splitlines()[0]
            print(f"{verdict:>8}  {time.monotonic() - start:5.1f} s  {path}: {first_line}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
