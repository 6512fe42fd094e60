"""The statistics of ``scripts/bench_pairs.py``, on canned run results.

No benchmark runs here: the paired runs take minutes.  These check the
medians and quartiles, the pairs won, the verdict on each metric's bound,
the gain rule, and the counting of failed runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script()
metric_summary = bench_pairs.metric_summary


def seeds(values):
    return dict(enumerate(values, start=1))


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_higher_is_better():
    base = seeds([100, 101, 102, 103, 104, 105, 106, 107, 108, 109])
    change = seeds([112, 113, 114, 115, 116, 117, 118, 119, 120, 121])
    s = metric_summary(base, change, "higher", 0.1)
    assert (s["pairs"], s["won"], s["lost"], s["tied"]) == (10, 10, 0, 0)
    assert s["base"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert s["change"]["median"] == 116.5
    assert s["relative_change"] == pytest.approx(12 / 104.5)
    assert s["verdict"] == "inside"
    assert s["median_gap_exceeds_base_iqr"] and s["gain_shown"]


def test_lower_is_better_and_outside_the_bound():
    # A latency 30% higher is a loss of every pair, outside a 0.2 bound.
    base = seeds([1.0, 1.01, 0.99, 1.0, 1.02, 0.98])
    change = {seed: 1.3 * value for seed, value in base.items()}
    s = metric_summary(base, change, "lower", 0.2)
    assert (s["won"], s["lost"]) == (0, 6)
    assert s["relative_change"] == pytest.approx(0.3)
    assert s["verdict"] == "outside"
    assert not s["gain_shown"]
    # 15% higher is inside the same bound.
    change = {seed: 1.15 * value for seed, value in base.items()}
    assert metric_summary(base, change, "lower", 0.2)["verdict"] == "inside"


def test_nine_of_ten_pairs_and_the_iqr_rule():
    base = seeds([100.0] * 10)
    change = seeds([110.0] * 9 + [90.0])
    s = metric_summary(base, change, "higher", 0.1)
    assert (s["won"], s["lost"]) == (9, 1)
    assert s["gain_shown"]
    # Eight of ten is not enough, whatever the medians say.
    change = seeds([110.0] * 8 + [90.0, 90.0])
    assert not metric_summary(base, change, "higher", 0.1)["gain_shown"]
    # Ties count for neither side.
    change = seeds([110.0] * 9 + [100.0])
    s = metric_summary(base, change, "higher", 0.1)
    assert (s["won"], s["tied"], s["gain_shown"]) == (9, 1, True)


def test_fewer_than_ten_pairs_show_no_gain():
    # One pair has quartiles that coincide, so its single win once read as
    # a shown gain; nine pairs, all won by a wide margin, are still too few.
    s = metric_summary(seeds([100.0]), seeds([120.0]), "higher", 0.1)
    assert (s["pairs"], s["won"], s["median_gap_exceeds_base_iqr"]) == (1, 1, True)
    assert not s["gain_shown"]
    base = seeds([100.0 + i for i in range(9)])
    s = metric_summary(base, {seed: v + 50 for seed, v in base.items()}, "higher", 0.1)
    assert (s["pairs"], s["won"], s["median_gap_exceeds_base_iqr"]) == (9, 9, True)
    assert not s["gain_shown"]


def test_gain_must_exceed_the_base_spread():
    # Every pair won, but by less than the base's quartiles lie apart.
    base = seeds([90.0, 95.0, 100.0, 105.0, 110.0])
    change = {seed: value + 1 for seed, value in base.items()}
    s = metric_summary(base, change, "higher", 0.5)
    assert s["won"] == 5
    assert not s["median_gap_exceeds_base_iqr"]
    assert not s["gain_shown"]


def test_spread_wider_than_the_bound_is_unresolved():
    base = seeds([80.0, 100.0, 120.0, 90.0, 110.0])
    change = seeds([82.0, 99.0, 118.0, 91.0, 112.0])
    assert metric_summary(base, change, "higher", 0.1)["verdict"] == "unresolved"
    # Unless every change run is better than every base run.
    change = seeds([130.0, 131.0, 132.0, 133.0, 134.0])
    assert metric_summary(base, change, "higher", 0.1)["verdict"] == "inside"


def test_a_failed_run_counts_as_a_pair_not_won():
    base = seeds([100.0] * 10)
    change = seeds([120.0] * 10)
    del change[3]  # that run gave no result
    s = metric_summary(base, change, "higher", 0.1)
    assert (s["pairs"], s["won"]) == (10, 9)
    assert s["gain_shown"]
    del change[4]
    assert not metric_summary(base, change, "higher", 0.1)["gain_shown"]
    assert metric_summary(base, {}, "higher", 0.1)["verdict"] == "no runs"


def run(workload, seed, side, ops_per_s, failed=0, correct=True):
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}
    return {"workload": workload, "seed": seed, "side": side, "rerun": False, "exit": 0,
            "result": result}


def failed(workload, seed, side):
    return {"workload": workload, "seed": seed, "side": side, "rerun": False, "exit": 1,
            "result": None}


def test_summarize_counts_runs_and_failures():
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.1}]
    runs = [run("w", 1, "base", 100.0), run("w", 1, "change", 110.0, failed=2),
            run("w", 2, "change", 111.0), run("w", 2, "base", 101.0, correct=False),
            failed("w", 3, "base"), run("w", 3, "change", 112.0)]
    summary = bench_pairs.summarize(runs, end_to_end)["w"]
    assert summary["base"] == {"runs": 3, "runs_failed": 1, "reruns": 0, "incorrect": 1,
                               "ops_attempted": 200, "ops_failed": 0}
    assert summary["change"] == {"runs": 3, "runs_failed": 0, "reruns": 0, "incorrect": 0,
                                 "ops_attempted": 300, "ops_failed": 2}
    ops = summary["metrics"]["ops_per_s"]
    assert (ops["pairs"], ops["won"], ops["lost"]) == (3, 2, 0)
    assert ops["base"]["median"] == 100.5 and ops["change"]["median"] == 111.0


def test_summarize_reads_the_rerun_of_a_failed_run():
    # Seed 2's base run failed and ran once more; seed 3's change run failed
    # twice.  Both failures are counted, and seed 2's rerun is the base run
    # that the statistics read.
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.1}]
    runs = [run("w", 1, "base", 100.0), run("w", 1, "change", 110.0),
            run("w", 2, "change", 111.0), failed("w", 2, "base"),
            {**run("w", 2, "base", 90.0), "rerun": True},
            failed("w", 3, "change"), {**failed("w", 3, "change"), "rerun": True},
            run("w", 3, "base", 102.0)]
    summary = bench_pairs.summarize(runs, end_to_end)["w"]
    assert summary["base"] == {"runs": 4, "runs_failed": 1, "reruns": 1, "incorrect": 0,
                               "ops_attempted": 300, "ops_failed": 0}
    assert summary["change"] == {"runs": 4, "runs_failed": 2, "reruns": 1, "incorrect": 0,
                                 "ops_attempted": 200, "ops_failed": 0}
    ops = summary["metrics"]["ops_per_s"]
    assert (ops["pairs"], ops["won"], ops["lost"]) == (3, 2, 0)
    assert ops["base"]["median"] == 100.0 and ops["change"]["median"] == 110.5


def fake_main(monkeypatch, tmp_path, outcomes):
    """Run ``main`` with ``run_once`` faked: each outcome is None (a run
    that gave no result), an ops_per_s value, or a (value, correct, failed)
    triple.  Returns main's exit status and the (side, seed) of each run."""
    outcomes = iter(outcomes)
    calls = []

    def fake_run_once(side_dir, workload, seed, seconds):
        calls.append((side_dir.name, seed))
        outcome = next(outcomes)
        if outcome is None:
            return {"exit": 1, "result": None, "stderr_tail": ["ZeroDivisionError"]}
        value, correct, failed = outcome if isinstance(outcome, tuple) else (outcome, True, 0)
        result = {"correct": correct, "attempted": 10, "failed": failed,
                  "metrics": {m: {"value": value} for m in
                              ("ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb", "setup_s")}}
        return {"exit": 0, "result": result, "stderr_tail": []}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "make_side", lambda dest, rev: None)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "git",
                        lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
    status = bench_pairs.main(["--base", "HEAD", "--label", "t", "--pairs", "2",
                               "--workloads", "small_calls"])
    return status, calls


def test_a_failed_run_runs_once_more(monkeypatch, tmp_path):
    # main reruns a failed run once, on the same seed and side, and marks
    # the second record; a run that gives a result is not run again.  A
    # failed run makes main exit 1, after it writes the file.
    status, calls = fake_main(monkeypatch, tmp_path, [None, 100.0, None, None, 101.0, 102.0])
    assert status == 1
    # Seed 1 runs base then change, seed 2 change then base.
    assert calls == [("base", 1), ("base", 1), ("change", 1), ("change", 1),
                     ("change", 2), ("base", 2)]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(r["seed"], r["side"], r["rerun"], r["exit"]) for r in record["runs"]] == [
        (1, "base", False, 1), (1, "base", True, 0), (1, "change", False, 1),
        (1, "change", True, 1), (2, "change", False, 0), (2, "base", False, 0)]
    summary = record["summary"]["small_calls"]
    assert (summary["base"]["runs_failed"], summary["base"]["reruns"]) == (1, 1)
    assert (summary["change"]["runs_failed"], summary["change"]["reruns"]) == (2, 1)


@pytest.mark.parametrize("outcome, status", [
    (103.0, 0), ((103.0, False, 0), 1), ((103.0, True, 1), 1), (None, 1)])
def test_exit_status_says_whether_every_run_was_clean(monkeypatch, tmp_path, outcome, status):
    # The last run (seed 2, base) is clean, incorrect, has a failed
    # operation, or fails on both tries; only the clean one exits 0.
    outcomes = [100.0, 101.0, 102.0, outcome] + [None] * (outcome is None)
    assert fake_main(monkeypatch, tmp_path, outcomes)[0] == status
    assert (tmp_path / "BENCH_t.json").exists()
