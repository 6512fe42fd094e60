"""Mutation gate: every mutant in ``MUTANTS`` must make its tests fail.

Each entry names a file, an exact snippet of it, a replacement and the tests
that should catch the change.  For each entry the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, replaces the
snippet there and runs ``python -m pytest -x -q`` on the named tests against
that copy.  A mutant is killed when pytest reports failed tests (exit status
1); a collection error or any other status is not a kill.  The script exits
1 when a snippet no longer occurs exactly once in its file or a mutant
survives, else 0.  Each entry's line gives its seconds, and the summary
the three slowest entries.  Standard library only; run from anywhere:

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
     "s02 = xb * s02 + xc * s01", "s02 = xb * s02 + xc * s00",
     "tests/test_lattice.py::TestTopIntersect"),
    ("src/curvejac/lattice.py",
     "p0 * q2 + p1 * q1 + p2 * q0", "p0 * q2 + p2 * q0",
     "tests/test_lattice.py::TestTopIntersect::test_tree_matches_fold"),
    ("src/curvejac/lattice.py",
     "if len(factors) > _LEAF_FACTORS:", "if len(factors) > 10**9:",
     "tests/test_lattice.py::TestTopIntersect::test_intersect_at_genus_50000_within_time"),
    ("src/curvejac/lattice.py",
     "den = lcm(ad, bd, cd)", "den = lcm(ad, bd)",
     "tests/test_lattice.py::TestTopIntersect"),
    ("src/curvejac/lattice.py",
     "if len(factors) != g + 1:", "if len(factors) > g + 1:",
     "tests/test_lattice.py::TestTopIntersect"),
    ("src/curvejac/minima.py",
     "n, m = ((cn // k) * (ad // j),", "n, m = (2 * (cn // k) * (ad // j),",
     "tests/test_minima.py"),
    ("src/curvejac/minima.py",
     "infimum = Fraction(bn * cd * g * m - cn * n * bd,",
     "infimum = Fraction(bn * cd * g * m - cn * n,",
     "tests/test_kernels.py::test_cone_minimum_matches_formulas"),
    ("src/curvejac/minima.py",
     "r.violation_margin * gf)", "r.violation_margin)",
     "tests/test_factored.py::test_factorial_times_coeff_at_small_genera"),
    ("src/curvejac/minima.py",
     "minima_attained = True", "minima_attained = False",
     "tests/test_kernels.py::test_zhang_audit_matches_formulas"),
    ("src/curvejac/minima.py",
     "self.violation_margin >= 0", "self.violation_margin > 0",
     "tests/test_cli.py::test_golden_output"),
    ("src/curvejac/heights.py",
     "(scale // dd) * k * dn", "scale * k * dn",
     "tests/test_kernels.py::test_height_point_matches_formula"),
    ("src/curvejac/heights.py",
     "return height_point_coeff(L, point) * factorial(L.genus)",
     "return height_point_coeff(L, point)",
     "tests/test_factored.py::TestPublicWrappers::test_factorial_times_r"),
    ("src/curvejac/cones.py",
     "return self.boundary_part.is_zero", "return False",
     "tests/test_cones.py::TestNefDecomposition"),
    ("src/curvejac/heights.py",
     "return NSClass(g, g, 1, 1)", "return NSClass(g, g, 1, g)",
     "tests/test_heights.py::TestStandardPolarization"),
    ("src/curvejac/cones.py",
     "num = an * bn * cd * cd - ", "num = an * bn * cd - ",
     "tests/test_kernels.py::test_classify_matches_defect"),
    ("src/curvejac/cones.py",
     "is not Region.OUTSIDE", "is Region.BOUNDARY",
     "tests/test_kernels.py::test_classify_matches_defect"),
    ("src/curvejac/cli.py",
     "if double > den or (double == den and _EXACT.remainder(quo, 2)):",
     "if double >= den:",
     "tests/test_cli.py::TestDecimalAnnotation"),
    ("src/curvejac/cli.py",
     "d = gcd(int(_EXACT.remainder(self.gf, q_dec)), q)", "d = 1",
     "tests/test_factored.py"),
    ("src/curvejac/cli.py",
     "_EXACT.divide_int(self.gf, d)", "_EXACT.divide(self.gf, d)",
     "tests/test_factored.py::TestFactoredText"),
    # The kept q is not reset on a carry or a rebuild of g!.
    ("src/curvejac/cli.py",
     "self.q = 0  # a kept division", "pass  # a kept division",
     "tests/test_factored.py::TestFactoredText::test_one_writer_at_any_genera"),
    ("src/curvejac/cli.py",
     "self.d // k * r.numerator", "self.d * r.numerator",
     "tests/test_factored.py::TestFactoredText::test_shared_denominator"),
    ("src/curvejac/cli.py",
     "if q != self.q:", "if True:",
     "tests/test_factored.py::test_one_division_of_g_per_record"),
    ("src/curvejac/cli.py",
     '".000000" if den == 1', '".000000" if den >= 1',
     "tests/test_factored.py::TestFactoredText::test_one_writer_at_any_genera"),
    ("src/curvejac/cli.py",
     "self.gf = g, _EXACT.multiply(self.gf, g)", "self.gf = g, _decimal_product(0, g)",
     "tests/test_cli.py::TestTable"),
    ("src/curvejac/cli.py",
     "if self.genus == g - 1:", "if self.genus == g:",
     "tests/test_cli.py::TestTable"),
    ("src/curvejac/cli.py",
     "_decimal_product(mid, hi)", "_decimal_product(mid + 1, hi)",
     "tests/test_factored.py"),
    ("src/curvejac/cli.py",
     "(hi - lo) * hi.bit_length() <= 1000:", "(hi - lo) * hi.bit_length() <= 10**9:",
     "tests/test_factored.py::test_audit_exact_at_genus_10_5"),
    ("src/curvejac/cli.py",
     '"mean": e1,', '"mean": h,',
     "tests/test_cli.py::test_golden_output"),
    ("src/curvejac/cli.py",
     "except (CLIError, ValueError, OverflowError) as err:",
     "except (CLIError, ValueError) as err:",
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     '    parser = _parser_class()(\n        prog="curvejac",',
     '    parser = __import__("argparse").ArgumentParser(\n        prog="curvejac",',
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     'raise CLIError(message.replace("\\n", "\\\\n"))', "raise CLIError(message)",
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/lattice.py",
     '(?:/(\\d+))?", re.ASCII)', '(?:/(\\d+))?")',
     "tests/test_cli.py::TestParsing::test_string_grammar_matches_split_parse"),
    ("src/curvejac/cli.py",
     "_INTEGER_RE = re.compile(_NUMERATOR, re.ASCII)", "_INTEGER_RE = re.compile(_NUMERATOR)",
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/cli.py",
     '"/+" not in run and ', "",
     "tests/test_cli.py::test_run_reader_matches_per_literal"),
    ("src/curvejac/cli.py",
     " and len(tokens) == 2 * len(keys)", "",
     "tests/test_cli.py::test_run_reader_matches_per_literal"),
    ("src/curvejac/cli.py",
     "__getitem__, parts)", "__getitem__, sorted(keys))",
     "tests/test_cli.py::test_run_reader_matches_per_literal"),
    ("src/curvejac/cli.py",
     "for a, b, c in zip(*[iter(parts)] * 3)]", "for a, b, c in zip(*[iter(sorted(keys))] * 3)]",
     "tests/test_cli.py::test_intersect_matches_reference"),
    ("src/curvejac/cli.py",
     "if 2 * len(keys) > len(parts):", "if True:",
     "tests/test_cli.py::test_intersect_renders_classes_for_json_only"),
    ("src/curvejac/cli.py",
     " and len(parts) == 3 * len(texts)", "",
     "tests/test_cli.py::test_run_reader_matches_per_literal"),
    ("src/curvejac/cli.py",
     "if all(ints[1::2]):", "if True:",
     "tests/test_cli.py::test_run_reader_matches_per_literal"),
    ("src/curvejac/cli.py",
     "if not _INTEGER_RE.fullmatch(text):", "if False:",
     "tests/test_cli.py::TestErrorPaths"),
    ("src/curvejac/lattice.py",
     "        if den == 0:\n", "        if False:\n",
     "tests/test_cli.py::TestParsing::test_string_grammar_matches_split_parse"),
    # A string goes to Fraction(str), which reads '1.5', '1e3' and ' 1/2 '.
    ("src/curvejac/lattice.py",
     "if isinstance(value, str):", "if False:",
     "tests/test_cli.py::TestParsing::test_string_grammar_matches_split_parse"),
    ("src/curvejac/cli.py",
     "d = gcd(num, den)", "d = 1",
     "tests/test_cli.py::test_intersect_renders_classes_for_json_only"),
    ("src/curvejac/cli.py",
     "        _check_genus(args.genus)\n", "",
     "tests/test_cli.py::test_intersect_matches_reference"),
    ("src/curvejac/cli.py",
     'if args.format == "json" else {}', "if args.format else {}",
     "tests/test_cli.py::test_intersect_renders_classes_for_json_only"),
    ("src/curvejac/cli.py",
     "if argv and argv[0] in _COMMANDS else None", "if False else None",
     "tests/test_cli.py::test_import_leaves_heavy_modules_out"),
    ("src/curvejac/cli.py",
     "if not run or lead", "if lead",
     "tests/test_cli.py::TestPlainReader"),
    ("src/curvejac/cli.py",
     "dest in given or ", "",
     "tests/test_cli.py::TestPlainReader"),
    ("src/curvejac/cli.py",
     'required = {o["dest"] for o in flags.values() if o.get("required")}', "required = set()",
     "tests/test_cli.py::TestPlainReader"),
    ("src/curvejac/cli.py",
     "defaults.copy()", "defaults",
     "tests/test_cli.py::TestPlainReader::test_calls_do_not_share_namespaces"),
    ("src/curvejac/cli.py",
     "value not in choices", "False",
     "tests/test_cli.py::TestPlainReader"),
    ("src/curvejac/cli.py",
     "if not flag.startswith(\"--\"):  # '-g=3'", "if False:  # '-g=3'",
     "tests/test_cli.py::TestPlainReader"),
    # A flag with no value at the end of the line reads past it.
    ("src/curvejac/cli.py",
     "elif i + 1 < end:", "elif i < end:",
     "tests/test_cli.py::TestPlainReader"),
    ("src/curvejac/cli.py",
     "f'\"{k}\": {_json_text(v)}'", "f'\"{k}\":{_json_text(v)}'",
     "tests/test_cli.py::test_golden_output"),
    ("src/curvejac/cli.py",
     '"true" if value else "false"', '"True" if value else "false"',
     "tests/test_cli.py::test_golden_output"),
    ("src/curvejac/cli.py",
     "        sys.stdout.flush()  # a reader", "        pass  # a reader",
     "tests/test_cli.py::test_reader_gone_leaves_stderr_empty"),
    ("src/curvejac/cli.py",
     "            sys.stdout.flush()\n            super().exit", "            super().exit",
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
    bad, seconds = 0, []
    with tempfile.TemporaryDirectory(prefix="curvejac-mutants-") as tmp:
        if not imports_from(Path(tmp) / "probe"):
            print("curvejac is not imported from the mutated copy; nothing was judged")
            return 1
        for index, (path, old, new, tests) in enumerate(MUTANTS):
            start = time.monotonic()
            verdict = run_mutant(Path(tmp) / str(index), path, old, new, tests)
            bad += verdict != "killed"
            label = f"{path}: {old.strip().splitlines()[0]}"
            seconds.append((time.monotonic() - start, label))
            print(f"{verdict:>8}  {seconds[-1][0]:5.1f} s  {label}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed"
          f" in {sum(t for t, _ in seconds):.1f} s; slowest:")
    for elapsed, label in sorted(seconds, reverse=True)[:3]:
        print(f"          {elapsed:5.1f} s  {label}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
