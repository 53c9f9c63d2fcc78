"""The dbmorph benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload join --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program under
test is ``src/dbmorph`` of that checkout, driven in-process through
``dbmorph.cli.main(argv)`` with stdout captured.  The client sends the next
request only when the previous one has returned.

Set-up generates the workload's input files from ``--seed`` (see
``workloads.py``), imports dbmorph and runs a short untimed warm-up; it is
repeated ``SETUP_REPEATS`` times and ``setup_s`` is the median.  The timed
stream then repeats whole passes over the request pool until ``--seconds``
have gone by, so every run issues the same mix.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs passes
untraced for half the time, then traced (``tracing.py``) for the other half,
and prints the per-layer metrics per request plus the tracing overhead; the
spans are written to ``.perfbench_out/``.

Every response is checked (exit code and stdout, see ``workloads.py``); the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5
# Host load on a small shared machine moves every timing of a run together
# by 10-40% for tens of seconds.  A fixed calibration loop that shares no
# code with dbmorph is timed every CALIBRATION_PERIOD seconds, and each
# timing is scaled by CALIBRATION_REFERENCE / (median of the last
# CALIBRATION_WINDOW samples), so that a reported time reads as if the
# calibration loop had taken CALIBRATION_REFERENCE seconds.
CALIBRATION_PERIOD = 0.05
CALIBRATION_WINDOW = 5
CALIBRATION_REFERENCE = 0.0025
_CALIBRATION_BYTES = bytes(range(256)) * 80
UNITS = {"setup_s": "s", "throughput_ops_s": "1/s", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    pass


def import_cli():
    """A fresh import of ``dbmorph.cli`` from this checkout's ``src``."""
    src = ROOT / "src"
    for name in [n for n in sys.modules if n == "dbmorph" or n.startswith("dbmorph.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import dbmorph.cli as cli
    except ImportError as exc:
        raise MissingProgram(f"cannot import dbmorph from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise MissingProgram(f"dbmorph was imported from {cli.__file__}, not from {src}")
    return cli


def calibrate() -> float:
    """Seconds for FNV-1a over 20 KiB in pure Python."""
    start = time.perf_counter()
    acc = 0xCBF29CE484222325
    for byte in _CALIBRATION_BYTES:
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return time.perf_counter() - start


class Calibration:
    """Rolling scale factor from the calibration samples taken so far."""

    def __init__(self):
        self.samples: list = []
        self.last = 0.0

    def sample(self) -> None:
        self.samples.append(calibrate())
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CALIBRATION_PERIOD

    @property
    def scale(self) -> float:
        return CALIBRATION_REFERENCE / statistics.median(self.samples[-CALIBRATION_WINDOW:])


class Client:
    """One closed-loop client calling ``cli.main`` with captured output."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, req) -> tuple:
        """(seconds inside main, failure message or None)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(req.argv))
            except Exception as exc:  # a crash is a failed request, not a crashed run
                return time.perf_counter() - start, f"{req.cmd} raised {exc!r}"
            elapsed = time.perf_counter() - start
        if code != req.code:
            return elapsed, f"{req.cmd} exited {code}, expected {req.code}: {err.getvalue().strip()[:200]}"
        if req.check is None:
            return elapsed, None
        try:
            return elapsed, req.check(out.getvalue())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return elapsed, f"{req.cmd} output unreadable: {exc!r}"


class Stream:
    """Latencies (raw, and scaled by the calibration) and failures of the
    requests one client issued."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.raw: list = []
        self.latencies: list = []
        self.by_cmd: dict = {}
        self.failures: list = []

    def run(self, client, pool, seconds, hook=None) -> None:
        start = time.perf_counter()
        while True:
            for req in pool:
                if self.calibration.due():
                    self.calibration.sample()
                if hook:
                    hook(len(self.latencies))
                elapsed, failure = client.call(req)
                self.raw.append(elapsed)
                scaled = elapsed * self.calibration.scale
                self.latencies.append(scaled)
                self.by_cmd.setdefault(req.cmd, []).append(scaled)
                if failure:
                    self.failures.append(failure)
            if time.perf_counter() - start >= seconds:
                return

    @property
    def throughput(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def raw_throughput(self) -> float:
        return len(self.raw) / sum(self.raw)


def setup(workload: str, seed: int, work: Path, calibration: Calibration) -> tuple:
    """Generate and write the inputs, import dbmorph, warm up; timed and
    scaled by the calibration."""
    for _ in range(CALIBRATION_WINDOW):
        calibration.sample()
    start = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    load = workloads.BUILD[workload](seed, work)
    client = Client(import_cli())
    failures = [f for req in load.warmup if (f := client.call(req)[1])]
    elapsed = time.perf_counter() - start
    return elapsed * calibration.scale, elapsed, load, client, failures


def end_to_end(stream: Stream, setup_s: float) -> dict:
    ms = [t * 1000 for t in stream.latencies]
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": stream.throughput,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for cmd in workloads.COMMANDS:
        metrics[f"cmd_p50_ms.{cmd}"] = 1000 * statistics.median(stream.by_cmd[cmd])
    return metrics


def traced(client, pool, seconds: float, out: Path, calibration: Calibration) -> tuple:
    import tracing

    plain = Stream(calibration)
    plain.run(client, pool, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seen = Stream(calibration)
        seen.run(client, pool, seconds / 2, hook=lambda i: setattr(tracer, "request", i))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(seen.latencies))
    metrics["trace.overhead_ratio"] = seen.throughput / plain.throughput
    out.parent.mkdir(exist_ok=True)
    tracer.dump(out)
    return metrics, plain, seen


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.startswith("cmd_p50_ms."):
        return "ms"
    if name.endswith(".self_s"):
        return "s/req"
    if name.endswith(("_ratio", "_yield", "_share")):
        return "ratio"
    if name.startswith(("project.bytes", "dsl.bytes")):
        return "B/req"
    return "count/req"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    calibration = Calibration()
    try:
        times, raw_times, failures = [], [], []
        for _ in range(SETUP_REPEATS):
            elapsed, raw, load, client, failed = setup(args.workload, args.seed, work, calibration)
            times.append(elapsed)
            raw_times.append(raw)
            failures += failed
        setup_s = statistics.median(times)
        if args.trace:
            out = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics, plain, stream = traced(client, load.requests, args.seconds, out, calibration)
            failures += plain.failures
            attempted = len(plain.latencies) + len(stream.latencies)
        else:
            stream = Stream(calibration)
            stream.run(client, load.requests, args.seconds)
            metrics = end_to_end(stream, setup_s)
            attempted = len(stream.latencies)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures += stream.failures
    attempted += SETUP_REPEATS * len(load.warmup)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {load.info}")
    print(f"requests {len(stream.latencies)} in the {'traced' if args.trace else 'timed'} stream"
          f"  pool {len(load.requests)}  setup runs {SETUP_REPEATS}")
    raw_ms = [t * 1000 for t in stream.raw]
    print(f"unscaled: setup_s {statistics.median(raw_times):.4f}  throughput_ops_s {stream.raw_throughput:.3f}"
          f"  latency_p50_ms {statistics.median(raw_ms):.3f}"
          f"  latency_p90_ms {statistics.quantiles(raw_ms, n=10)[8]:.3f}")
    print(f"calibration: {len(calibration.samples)} samples, median"
          f" {1000 * statistics.median(calibration.samples):.4f} ms, reference {1000 * CALIBRATION_REFERENCE} ms")
    print(f"failed {len(failures)} of {attempted} attempted  error_rate {len(failures) / attempted:.4f}")
    for failure in failures[:10]:
        print(f"  failure: {failure}")
    for cmd in workloads.COMMANDS:
        print(f"  {cmd:10s} samples {len(stream.by_cmd.get(cmd, ())):5d}")
    if args.trace:
        print(f"throughput_ops_s untraced {plain.throughput:.3f}  traced {stream.throughput:.3f}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit(name)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
