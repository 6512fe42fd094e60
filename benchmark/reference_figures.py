#!/usr/bin/env python3
"""Reference figures quoted in benchmark/README.md.

    python3 benchmark/reference_figures.py

Raw wall times (no speed correction), each the median of repeated runs:

* start-up of a bare interpreter (``python3 -c pass``);
* whole ``curvejac`` processes on four fixed invocations;
* in-process ``top_intersect`` on g+1 dense classes (every coordinate a
  nonzero rational) and ``zhang_audit`` of the standard polarization, at
  g in {2, 12, 100, 400, 800}.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from curvejac import NSClass, standard_polarization, top_intersect, zhang_audit  # noqa: E402
from workloads import _rat  # noqa: E402

INVOCATIONS = [["audit", "-g", "2"], ["audit", "-g", "1000"],
               ["table", "2", "12"], ["table", "2", "400"]]
GENERA = [2, 12, 100, 400, 800]


def median_s(fn, repeats: int, budget_s: float) -> tuple[float, int]:
    """Median wall time of fn() over up to ``repeats`` runs, stopping early
    once ``budget_s`` is spent (at least one run)."""
    times = []
    start = time.perf_counter()
    while len(times) < repeats and (not times or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def run_process(argv) -> None:
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, env=env, cwd=ROOT)


def main() -> int:
    print(f"python {platform.python_version()}, {os.cpu_count()} CPUs")
    t, n = median_s(lambda: run_process([sys.executable, "-c", "pass"]), 21, 10)
    print(f"bare interpreter start-up: {t * 1e3:.1f} ms (median of {n})")
    for args in INVOCATIONS:
        t, n = median_s(lambda: run_process([sys.executable, "-m", "curvejac", *args]), 7, 15)
        print(f"curvejac {' '.join(args)}: {t * 1e3:.1f} ms (median of {n})")
    rng = random.Random(0)
    for g in GENERA:
        classes = [NSClass(g, _rat(rng), _rat(rng), _rat(rng)) for _ in range(g + 1)]
        t, n = median_s(lambda: top_intersect(classes), 7, 20)
        print(f"top_intersect, dense, g={g}: {t * 1e3:.3f} ms (median of {n})")
    for g in GENERA:
        L = standard_polarization(g)
        t, n = median_s(lambda: zhang_audit(L), 7, 10)
        print(f"zhang_audit, standard polarization, g={g}: {t * 1e3:.3f} ms (median of {n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
