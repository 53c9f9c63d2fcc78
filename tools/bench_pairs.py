"""Paired benchmark runs of a base commit against the working tree.

    python3 tools/bench_pairs.py --pr N --base HEAD --workload join \
        --seed 7193 --pairs 10 --seconds 20

Exports the tree of the base commit into ``base/`` of one temporary
directory and a tree of the working tree (tracked and untracked files, not
ignored ones), written through a temporary index, into ``work/``, both by
``git archive``, so that both sides start from a fresh copy made the same
way and without a bytecode cache.  Then runs ``perfbench/run.py --trace 0``
of each side alternately, one process at a time: pair i runs the base
first when i is even and the working tree first when it is odd.  Each run
is read from the JSON object on the last line of its stdout and from its
``calibration:`` line.

Writes ``BENCH_<pr>.json`` at the repository root: per workload and seed,
each end-to-end metric's median and quartiles on each side, the number of
pairs the working tree won (by the metric's ``better`` direction in
``BENCHMARK.json``), the failed-request counts, and the calibration
medians.  Runs an earlier invocation wrote there against the same base
and run length, for other workloads or seeds, are kept; a file written
against another base or run length stops the script before it runs
anything.  Then prints one line per workload,
seed and end-to-end metric of this invocation: the base median and
quartiles, the working tree's median, the signed change and the pairs won,
marked ``OVER BOUND`` where the working tree's median is worse than the
base's by more than the metric's bound in ``BENCHMARK.json``, and one
``MORE FAILED`` line per workload and seed where the working tree's runs
failed more requests in total than the base's.  Standard library only;
nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION = re.compile(r"^calibration: \d+ samples, median ([0-9.]+) ms", re.MULTILINE)


def git(root: Path, *args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def worktree_tree(root: Path = ROOT) -> str:
    """The id of a git tree of the working tree at ``root``: the tracked
    files as they are now, uncommitted edits included, and the untracked
    ones that are not ignored.  It is written from a temporary index, so
    the repository's own index and status stay as they are."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git(root, "add", "-A", env=env)
        return git(root, "write-tree", env=env)


def export(tree: str, dest: Path, root: Path = ROOT) -> None:
    """Write the git tree ``tree`` of the repository at ``root`` into
    ``dest``."""
    archive = subprocess.run(["git", "archive", tree], cwd=root, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the "data" filter where this Python has it
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``root``: its metrics, failures and
    calibration median."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    calibration = CALIBRATION.search(proc.stdout)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "calibration_ms": float(calibration.group(1)) if calibration else None,
    }


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(workload: str, seed: int, runs: dict, directions: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    working tree won."""
    metrics = {}
    for name in runs["change"][0]["metrics"]:
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        entry = {"base": summary(base), "change": summary(change)}
        better = directions.get(name)
        if better:
            sign = 1 if better == "higher" else -1
            entry["better"] = better
            entry["change_wins"] = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        metrics[name] = entry
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(runs["change"]),
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "calibration_median_ms": {
            side: statistics.median(r["calibration_ms"] for r in rs if r["calibration_ms"])
            for side, rs in runs.items()
        },
        "metrics": metrics,
    }


def summary_lines(result: dict, end_to_end: list) -> list:
    """One line per end-to-end metric of one workload and seed, such as
    ``join seed 7193 throughput_ops_s: 60.1 [59.1-61.6] -> 77.8 +29.5% 10/10
    wins``; ``end_to_end`` is the list of that name in ``BENCHMARK.json``.
    A last line such as ``join seed 7193 failed requests: 0 -> 3 MORE
    FAILED`` follows when the working tree's runs failed more requests in
    total than the base's."""
    lines = []
    for spec in end_to_end:
        entry = result["metrics"].get(spec["name"])
        if entry is None:
            continue
        base, change = entry["base"], entry["change"]
        delta = (change["median"] - base["median"]) / base["median"]
        worse = delta if spec["better"] == "lower" else -delta
        lines.append(
            f"{result['workload']} seed {result['seed']} {spec['name']}: "
            f"{base['median']:.4g} [{base['q1']:.4g}-{base['q3']:.4g}] -> "
            f"{change['median']:.4g} {delta:+.1%} {entry['change_wins']}/{result['pairs']} wins"
            + (" OVER BOUND" if worse > spec["bound"] else "")
        )
    base_failed, change_failed = sum(result["failed"]["base"]), sum(result["failed"]["change"])
    if change_failed > base_failed:
        lines.append(
            f"{result['workload']} seed {result['seed']} failed requests: "
            f"{base_failed} -> {change_failed} MORE FAILED"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    results = []
    commit = git(ROOT, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    out = ROOT / f"BENCH_{args.pr}.json"
    # an earlier output is checked before any run, and its runs are kept
    # when they are against the same base and run length
    earlier = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    if earlier and (earlier["base"], earlier["seconds"]) != (commit, args.seconds):
        raise SystemExit(f"{out} holds runs against another base or run length")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # both sides leave git the same way, under names of equal length
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        export(f"{commit}^{{tree}}", sides["base"])
        export(worktree_tree(), sides["change"])
        for workload in args.workload:
            for seed in args.seed:
                runs: dict = {"base": [], "change": []}
                for i in range(args.pairs):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    for side in order:
                        runs[side].append(run_once(sides[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} pair {i + 1}/{args.pairs} done", file=sys.stderr)
                results.append(compare(workload, seed, runs, directions))
    payload = {
        "pr": args.pr,
        "base": commit,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "command": "perfbench/run.py --trace 0",
        "runs": results,
    }
    if earlier:
        fresh = {(r["workload"], r["seed"]) for r in results}
        payload["runs"] = [
            r for r in earlier["runs"] if (r["workload"], r["seed"]) not in fresh
        ] + results
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(out)
    for result in results:
        print("\n".join(summary_lines(result, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
