"""The paired benchmark script: each side's quartiles, the pairs the
working tree wins and the export of the working tree."""

import importlib.util
import subprocess
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


END_TO_END = [
    {"name": "ops", "better": "higher", "bound": 0.2},
    {"name": "ms", "better": "lower", "bound": 0.25},
    {"name": "absent", "better": "lower", "bound": 0.25},
]


def test_summary_lines_give_medians_change_wins_and_the_bound():
    runs = {
        "base": side([{"ops": 10, "ms": 4, "x": 1}, {"ops": 10, "ms": 4, "x": 1}]),
        "change": side([{"ops": 7, "ms": 5, "x": 0}, {"ops": 12, "ms": 5, "x": 0}]),
    }
    result = bench_pairs.compare("join", 7193, runs, {"ops": "higher", "ms": "lower"})
    assert bench_pairs.summary_lines(result, END_TO_END) == [
        "join seed 7193 ops: 10 [10-10] -> 9.5 -5.0% 1/2 wins",
        "join seed 7193 ms: 4 [4-4] -> 5 +25.0% 0/2 wins",
    ]
    runs["change"] = side([{"ops": 7, "ms": 5.2, "x": 0}, {"ops": 8.9, "ms": 5.2, "x": 0}])
    result = bench_pairs.compare("join", 7193, runs, {"ops": "higher", "ms": "lower"})
    assert bench_pairs.summary_lines(result, END_TO_END) == [
        "join seed 7193 ops: 10 [10-10] -> 7.95 -20.5% 0/2 wins OVER BOUND",
        "join seed 7193 ms: 4 [4-4] -> 5.2 +30.0% 0/2 wins OVER BOUND",
    ]


def test_summary_lines_flag_more_failed_requests_in_the_working_tree():
    runs = {name: side([{"ops": 10, "ms": 4}] * 2, failed=1) for name in ("base", "change")}
    result = bench_pairs.compare("closure", 101, runs, {"ops": "higher", "ms": "lower"})
    assert not any("FAILED" in line for line in bench_pairs.summary_lines(result, END_TO_END))
    runs["change"][1]["failed"] = 3
    result = bench_pairs.compare("closure", 101, runs, {"ops": "higher", "ms": "lower"})
    assert bench_pairs.summary_lines(result, END_TO_END)[-1] == (
        "closure seed 101 failed requests: 2 -> 4 MORE FAILED"
    )


def git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=root, check=True, capture_output=True,
    )


def test_the_working_tree_export_holds_edits_and_untracked_files_but_not_ignored_ones(tmp_path):
    root, dest = tmp_path / "repo", tmp_path / "export"
    (root / "src").mkdir(parents=True)
    (root / "src" / "kept.py").write_text("committed\n")
    (root / "gone.py").write_text("committed\n")
    (root / ".gitignore").write_text(".perfbench_work/\n")
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "base")
    (root / "src" / "kept.py").write_text("edited\n")
    (root / "src" / "new.py").write_text("untracked\n")
    (root / "gone.py").unlink()
    (root / ".perfbench_work").mkdir()
    (root / ".perfbench_work" / "out.json").write_text("{}\n")

    bench_pairs.export_worktree(dest, root)

    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/kept.py", "src/new.py"]
    assert (dest / "src" / "kept.py").read_text() == "edited\n"
