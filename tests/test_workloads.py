"""The benchmark's operations, run against the command line in tier 1.

Every operation of each workload at seeds 1-10 goes through ``cli.main`` in
this process, with stdout and stderr captured as ``benchmark/run.py``'s
``call`` captures them.  Each must exit 0, write nothing to stderr and pass
``checks.check`` at the interpreter's default digit limit; a JSON output must
be the bytes the standard library's encoder writes for it, and every string
value in it must need no escape.  ``run.py`` itself exits 0 whatever its
operations do, and its ``call`` catches only ``Exception``; so a
``BaseException`` out of ``main``, a check that raises anything but
``CheckError``, or a failed set-up probe ends a benchmark run with a nonzero
status.  Every operation line must be read by ``cli._read_plain``, not left
to argparse: the benchmark times the plain reader.  One short run of
``run.py`` in a subprocess must exit 0 and report every output correct.
``run.py`` writes its result under its own directory, so that run is made
from a copy of ``src/`` and ``benchmark/``, and the checkout's results are
left as they are.  The benchmark's modules are imported
from ``benchmark/`` and only read.
"""

import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from curvejac import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))

from checks import check  # noqa: E402
from oracles import bad_record_strings, stdlib_json_line  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


# Each workload's operations at a seed, generated once for the tests here.
workload_ops = functools.cache(make_ops)


@contextlib.contextmanager
def default_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_op_exits_zero_and_checks(workload, seed):
    with default_digit_limit():
        for op in workload_ops(workload, seed):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = cli.main(list(op.argv))
            except BaseException as exc:
                pytest.fail(f"{list(op.argv)} raised {type(exc).__name__}: {exc}")
            assert (status, err.getvalue()) == (0, ""), list(op.argv)
            try:
                check(op, out.getvalue())
            except BaseException as exc:
                pytest.fail(f"{list(op.argv)} failed its check: {type(exc).__name__}: {exc}")
            if op.fmt == "json":  # the CLI's writer, which escapes nothing
                assert stdlib_json_line(out.getvalue()) == out.getvalue(), list(op.argv)
                assert bad_record_strings(json.loads(out.getvalue())) == [], list(op.argv)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_op_line_is_plain(workload):
    # A reader that left the benchmark's lines to argparse would still agree
    # with argparse on every line it read; each line here must be read, and
    # at seed 1 to the namespace that argparse gives it.
    parser = cli.build_parser()
    for seed in range(1, 11):
        for op in workload_ops(workload, seed):
            argv = list(op.argv)
            plain = cli._read_plain(argv[0], argv[1:])
            assert plain is not None, argv
            if seed == 1:
                assert vars(plain) == vars(parser.parse_args(argv)), argv


def results(directory: Path) -> dict:
    """Each file under ``directory`` with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.rglob("*") if p.is_file()}


def test_benchmark_run_exits_zero(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")
    for name in ("src", "benchmark"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    recorded = results(ROOT / "benchmark" / "out")
    result = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "audit_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), result.stderr
    assert (tmp_path / "benchmark" / "out" / "result-audit_sweep-seed1-trace0.json").is_file()
    assert results(ROOT / "benchmark" / "out") == recorded
