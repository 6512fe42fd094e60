#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

    python scripts/bench_pairs.py --base HEAD~1 --label my_change
    python scripts/bench_pairs.py --base HEAD --label self --workloads small_calls

For each workload and each seed S, S+1, ..., the script runs
``benchmark/run.py --workload W --seed S --seconds T`` once on each side, one
after the other: the base revision's ``src/`` (from ``git archive``) and the
working tree's ``src/``.  Both sides run the working tree's ``benchmark/``
and ``BENCHMARK.json``, copied beside each side in a temporary directory, so
a harness change is not read as a program change and the checkout's
``benchmark/out/`` is left as it is.  An odd seed runs the base first, an
even one the change.

It writes ``BENCH_<label>.json`` at the repository root: the interpreter,
the CPU count, both revisions, every run's metrics, and, for each workload
and end-to-end metric, each side's median and quartiles, the relative
change of the medians, the pairs won, lost and tied, the metric's bound
from ``BENCHMARK.json`` and the verdict on it, and whether a gain is shown:
at least ten pairs ran, the change wins at least nine tenths of them and
its median is better by more than the distance between the base's
quartiles.  A run that exits nonzero, or prints no result, is kept with the
tail of its stderr and counted, and runs once more on the same seed and
side; the second record is marked ``"rerun": true``, and the statistics
read it.  The script exits 1, after writing the file, when any run failed,
any output was incorrect or any operation failed, on either side of any
workload; else 0.  Standard library only; run from anywhere.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Fewer pairs show no gain: with one pair the base's quartiles coincide, so
# a single win would read as one.
MIN_PAIRS = 10


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_summary(base: dict, change: dict, better: str, bound: float) -> dict:
    """Statistics of one metric.  ``base`` and ``change`` map a seed to the
    metric's value in that side's run of the seed, for the runs that gave a
    result; a pair that lacks one counts as run but not won.

    The verdict on the bound is "inside" when the change's median is worse
    than the base's by at most ``bound`` (a fraction), else "outside";
    "unresolved" when the base's quartiles lie further apart than the bound,
    unless every change run is better than every base run.
    """
    sign = 1 if better == "higher" else -1
    both = sorted(base.keys() & change.keys())
    diffs = [sign * (change[s] - base[s]) for s in both]
    summary = {
        "better": better,
        "bound": bound,
        "pairs": len(base.keys() | change.keys()),
        "won": sum(d > 0 for d in diffs),
        "lost": sum(d < 0 for d in diffs),
        "tied": sum(d == 0 for d in diffs),
    }
    if not base or not change:
        return {**summary, "verdict": "no runs", "gain_shown": False}
    b1, bm, b3 = quartiles(sorted(base.values()))
    c1, cm, c3 = quartiles(sorted(change.values()))
    relative = (cm - bm) / bm if bm else 0.0
    every_better = all(sign * (c - b) > 0 for c in change.values() for b in base.values())
    if bm and (b3 - b1) / abs(bm) > bound and not every_better:
        verdict = "unresolved"
    elif -sign * relative <= bound:
        verdict = "inside"
    else:
        verdict = "outside"
    gap_exceeds_iqr = sign * (cm - bm) > b3 - b1
    return {
        **summary,
        "base": {"q1": b1, "median": bm, "q3": b3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "relative_change": relative,
        "verdict": verdict,
        "median_gap_exceeds_base_iqr": gap_exceeds_iqr,
        "gain_shown": (summary["pairs"] >= MIN_PAIRS and gap_exceeds_iqr
                       and 10 * summary["won"] >= 9 * summary["pairs"]),
    }


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: run, failure and rerun counts, and ``metric_summary``
    of each end-to-end metric of ``BENCHMARK.json``.  A seed's failed run
    gave no result, so its rerun is the run that the metrics read."""
    out = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        entry = {}
        for side in ("base", "change"):
            ran = [run for run in mine if run["side"] == side]
            ok = [run for run in ran if run["result"] is not None]
            entry[side] = {
                "runs": len(ran),
                "runs_failed": len(ran) - len(ok),
                "reruns": sum(run["rerun"] for run in ran),
                "incorrect": sum(not run["result"]["correct"] for run in ok),
                "ops_attempted": sum(run["result"]["attempted"] for run in ok),
                "ops_failed": sum(run["result"]["failed"] for run in ok),
            }
        entry["metrics"] = {}
        for m in end_to_end:
            base, change = ({run["seed"]: run["result"]["metrics"][m["name"]]["value"]
                             for run in mine if run["side"] == side and run["result"]}
                            for side in ("base", "change"))
            entry["metrics"][m["name"]] = metric_summary(base, change, m["better"], m["bound"])
        out[workload] = entry
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def make_side(dest: Path, rev: str | None) -> None:
    """``src/`` of ``rev`` (the working tree when None), with the working
    tree's ``benchmark/`` and ``BENCHMARK.json`` beside it."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", "out")
    if rev is None:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    else:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # The "data" filter refuses links and paths out of ``dest``
            # where this Python has it (3.10.12, 3.11.4 and later).
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:
                tar.extractall(dest)
    shutil.copytree(ROOT / "benchmark", dest / "benchmark", ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run_once(side_dir: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the benchmark: its result, or None with why it failed."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side_dir, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"exit": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def main(argv: list | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]],
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    if not args.label.replace("_", "").replace("-", "").isalnum():
        parser.error(f"--label takes letters, digits, '-' and '_', got {args.label!r}")

    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", "benchmark", "BENCHMARK.json"))
    runs = []
    with tempfile.TemporaryDirectory(prefix="curvejac-pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        make_side(sides["base"], base_rev)
        make_side(sides["change"], None)
        for workload in args.workloads:
            for seed in range(args.first_seed, args.first_seed + args.pairs):
                order = ("base", "change") if seed % 2 else ("change", "base")
                for side in order:
                    for rerun in (False, True):
                        run = run_once(sides[side], workload, seed, args.seconds)
                        runs.append({"workload": workload, "seed": seed, "side": side,
                                     "first": side == order[0], "rerun": rerun, **run})
                        value = (run["result"] or {}).get("metrics", {}).get("ops_per_s", {})
                        label = f"{workload} seed {seed} {side}{' rerun' * rerun}"
                        print(f"{label}: exit {run['exit']}, "
                              f"ops_per_s {value.get('value', float('nan')):.1f}", flush=True)
                        if run["result"] is not None:
                            break
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "base": {"rev": base_rev, "requested": args.base},
        "change": {"rev": change_rev, "working_tree_changes": dirty},
        "harness": "the working tree's benchmark/ and BENCHMARK.json on both sides",
        "settings": {"pairs": args.pairs, "seconds": args.seconds,
                     "first_seed": args.first_seed, "workloads": args.workloads},
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    bad = [f"{workload} {side}" for workload, entry in record["summary"].items()
           for side in ("base", "change")
           if entry[side]["runs_failed"] or entry[side]["incorrect"] or entry[side]["ops_failed"]]
    print("failed runs, incorrect outputs or failed operations:", ", ".join(bad) or "none")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
