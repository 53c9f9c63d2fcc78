"""The paired benchmark script: each side's quartiles and the pairs the
working tree wins."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(metrics_per_run, calibration=2.5, failed=0):
    return [
        {"metrics": metrics, "failed": failed, "calibration_ms": calibration}
        for metrics in metrics_per_run
    ]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    runs = {
        "base": side([{"ops": 10, "ms": 5, "other": 1}, {"ops": 10, "ms": 5, "other": 1}]),
        "change": side([{"ops": 12, "ms": 5, "other": 2}, {"ops": 9, "ms": 4, "other": 0}]),
    }
    got = bench_pairs.compare("join", 7193, runs, {"ops": "higher", "ms": "lower"})
    assert (got["workload"], got["seed"], got["pairs"]) == ("join", 7193, 2)
    assert got["metrics"]["ops"]["change_wins"] == 1
    assert got["metrics"]["ms"]["change_wins"] == 1
    assert "change_wins" not in got["metrics"]["other"]
    assert got["failed"] == {"base": [0, 0], "change": [0, 0]}
    assert got["calibration_median_ms"] == {"base": 2.5, "change": 2.5}


def test_summary_gives_the_median_and_quartiles():
    assert bench_pairs.summary([1, 2, 3, 4, 5]) == {"median": 3, "q1": 2, "q3": 4}
    assert bench_pairs.summary([7]) == {"median": 7, "q1": 7, "q3": 7}
