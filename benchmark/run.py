#!/usr/bin/env python3
"""End-to-end benchmark of the curvejac command line.

    python3 benchmark/run.py --workload audit_sweep --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller, no threads.  Each operation is an argv
list handed to ``curvejac.cli.main`` in this process with stdout captured, so
it covers parse, compute and render but not interpreter start-up.  The run
builds its operation list from the seed, runs it once untimed (checking every
output against closed forms, see ``checks.py``), then repeats the same list in
whole rounds until ``--seconds`` have passed.  Every repeated output must be
byte-identical to the checked one.

Times are CPU time of this process, speed-corrected: a reference task of
``speedref.py`` runs just before each operation and the operation's time is
scaled by the nominal reference time over the measured one.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of alternating untraced and traced rounds (see ``tracing.py`` and the
README).  The last line of stdout is one JSON object; the same object
and, for a traced run, its spans are written under ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from checks import CheckError, check  # noqa: E402
from speedref import ARITHMETIC, INTERPRETER, Reference  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

# The reference task that slows down like each workload's dominant work: the
# intersection engine for the first two, argument parsing for small_calls.
REFERENCES = {
    "audit_sweep": ARITHMETIC,
    "engine_dense": ARITHMETIC,
    "small_calls": INTERPRETER,
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    "lattice.top_intersect.factors": "count",
    "lattice.top_intersect.us_per_factor": "us",
    "cli.stdout_bytes": "bytes",
    "ref.ms": "ms",
    "trace.overhead_ms": "ms",
}

# One set-up sample in a fresh interpreter: import curvejac.cli, generate the
# workload's inputs, then time the interpreter reference.  Prints three ns
# counts.
SETUP_PROBE = """
import sys, time
src, here, workload, seed = sys.argv[1:]
sys.path.insert(0, src)
start = time.process_time_ns()
import curvejac.cli
import_ns = time.process_time_ns() - start
sys.path.insert(0, here)
from workloads import make_ops
start = time.process_time_ns()
make_ops(workload, int(seed))
gen_ns = time.process_time_ns() - start
from speedref import INTERPRETER
print(import_ns, gen_ns, sorted(INTERPRETER.run_ns() for _ in range(5))[2])
"""


def setup_sample(workload: str, seed: int) -> float:
    """Corrected import plus input-generation time of a fresh interpreter, s."""
    probe = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, SRC, HERE, workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    import_ns, gen_ns, ref = map(int, probe.stdout.split())
    return (import_ns + gen_ns) * INTERPRETER.correction(ref) / 1e9


def call(cli_main, argv) -> tuple[object, str, str, int]:
    """Run one command line; return (exit status, stdout, stderr, CPU ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time_ns()
        try:
            status = cli_main(list(argv))
        except Exception as exc:  # an escaped exception is a failed operation
            status = f"{type(exc).__name__}: {exc}"
        elapsed = time.process_time_ns() - start
    return status, out.getvalue(), err.getvalue(), elapsed


class Session:
    """Runs rounds of one operation list and keeps the tallies."""

    def __init__(self, ops, cli_main, reference: Reference) -> None:
        self.ops = ops
        self.cli_main = cli_main
        self.reference = reference
        self.checked: list = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def note(self, op, message: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(f"{' '.join(op.argv)[:120]}: {message}")

    def round(self, tracer: Tracer | None = None) -> list[tuple]:
        """One pass over the list: (index, ns, reference ns, ok, stdout bytes)
        per operation."""
        samples = []
        for i, op in enumerate(self.ops):
            ref = self.reference.run_ns()
            if tracer is not None:
                tracer.op = i
            status, out, err, ns = call(self.cli_main, op.argv)
            self.attempted += 1
            ok = status == 0
            if not ok:
                self.failed += 1
                self.note(op, f"exit {status}: {err.strip()}")
            elif self.checked[i] is None:
                try:
                    check(op, out)
                except CheckError as exc:
                    self.wrong += 1
                    self.note(op, f"wrong output: {exc}"[:400])
                self.checked[i] = out
            elif out != self.checked[i]:
                self.wrong += 1
                self.note(op, "output differs from the checked output")
            samples.append((i, ns, ref, ok, len(out.encode())))
        return samples

    def corrected_ms(self, samples) -> list[float]:
        """Corrected times of the operations that succeeded, in ms."""
        fix = self.reference.correction
        return [ns * fix(ref) / 1e6 for _, ns, ref, ok, _ in samples if ok]


def end_to_end(session: Session, seconds: float, setup) -> dict:
    """Whole rounds until ``seconds`` have passed.  A set-up sample is taken
    before the first round and after each one, so that set-up samples, like
    operations, are spread over the run's slow and fast spells."""
    samples = []
    setups = [setup()]
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples += session.round()
        setups.append(setup())
    ms = session.corrected_ms(samples)
    return {
        "ops_per_s": len(ms) * 1000 / sum(ms),
        "p50_ms": statistics.median(ms),
        "p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(session: Session, seconds: float, tracer: Tracer) -> dict:
    """Alternate untraced and traced rounds; per-round layer figures are the
    median over traced rounds, and counts must repeat exactly."""
    rounds = []
    refs: list[int] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain = session.round()
        first = len(tracer.spans)
        tracer.work.clear()
        tracer.install()
        try:
            traced = session.round(tracer)
        finally:
            tracer.remove()
        scale = {i: session.reference.correction(ref) for i, _, ref, _, _ in traced}
        totals = tracer.layer_totals(first, scale)
        counts = {f"{layer}.calls": calls for layer, (calls, _) in totals.items()}
        counts.update(tracer.work)
        counts["cli.stdout_bytes"] = sum(s[4] for s in traced)
        overhead = (sum(session.corrected_ms(traced))
                    - sum(session.corrected_ms(plain))) / len(plain)
        rounds.append((counts, totals, overhead))
        refs += [s[2] for s in plain + traced]
        if len(rounds) > 1:
            del tracer.spans[first:]  # keep the first traced round's spans only
    counts = rounds[0][0]
    if any(other != counts for other, _, _ in rounds[1:]):
        session.notes.append("trace counts differ between rounds")
    metrics = dict(counts)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = statistics.median(
            layer_totals[layer][1] / 1e6 for _, layer_totals, _ in rounds)
    factors = counts.get("lattice.top_intersect.factors", 0)
    metrics["lattice.top_intersect.factors"] = factors
    metrics["lattice.top_intersect.us_per_factor"] = (
        metrics["lattice.top_intersect.self_ms"] * 1000 / factors if factors else 0.0)
    metrics["ref.ms"] = statistics.median(refs) / 1e6
    metrics["trace.overhead_ms"] = statistics.median(o for _, _, o in rounds)
    return metrics


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "curvejac", "cli.py")):
        raise SystemExit(f"error: no curvejac sources under {SRC}")
    sys.path.insert(0, SRC)
    import curvejac.cli

    if not os.path.abspath(curvejac.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported curvejac from {curvejac.cli.__file__}")
    return curvejac.cli.main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = import_cli()
    session = Session(make_ops(args.workload, args.seed), cli_main,
                      REFERENCES[args.workload])
    session.round()  # untimed: checks every output and fills lazy caches
    gc.collect()
    gc.freeze()  # later collections skip the operation list and checked outputs
    tracer = Tracer()
    if args.trace:
        values = per_layer(session, args.seconds, tracer)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(session, args.seconds,
                            lambda: setup_sample(args.workload, args.seed))
        units = END_TO_END_UNITS
    result = {
        "correct": session.wrong == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for line in session.notes + [f"missing trace hook: {m}" for m in tracer.missing]:
        print(line, file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "ops": [list(op.argv) for op in session.ops],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
