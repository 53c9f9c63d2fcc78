"""The benchmark's own tests.

    python -m pytest perfbench -q

They check that the generators are deterministic, that the output checks
catch a wrong answer, that every reported metric is declared in
BENCHMARK.json, and that the traced profile puts the self time of each
workload in the layers the workload was built to load.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _files(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _argv(load, root: Path) -> list:
    return [[a.replace(str(root), "") for a in r.argv] for r in load.requests]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, name):
    build = workloads.BUILD[name]
    loads = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        root = tmp_path / tag
        loads[tag] = (build(seed, root), root)
    (a, ra), (b, rb), (c, rc) = loads["a"], loads["b"], loads["c"]
    assert _files(ra) == _files(rb)
    assert _argv(a, ra) == _argv(b, rb)
    assert [r.code for r in a.requests] == [r.code for r in b.requests]
    assert _files(ra) != _files(rc) or _argv(a, ra) != _argv(c, rc)


def _errors(client, requests) -> int:
    stream = run.Stream(run.Calibration())
    stream.run(client, requests, 0)
    return len(stream.failures)


def _small(load, dirs) -> list:
    return [r for r in load.requests if any(f"/{d}/" in " ".join(r.argv) for d in dirs)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_planted_wrong_answer_raises_the_error_rate(tmp_path, monkeypatch, cli, name):
    load = workloads.BUILD[name](3, tmp_path)
    requests = {
        "join": lambda: _small(load, ["join0"]),
        "closure": lambda: [r for r in load.requests if r.cmd == "flux"][:12],
        "corpus": lambda: load.requests[:40],
    }[name]()
    client = run.Client(cli)
    assert _errors(client, requests) == 0

    if name == "join":
        real = cli.saturate

        def saturate(it, arrow):  # one extra goes missing
            sat = real(it, arrow)
            return type(sat)(sat.base, sat.extras[:-1], sat.skipped)

        monkeypatch.setattr(cli, "saturate", saturate)
    elif name == "closure":
        from dbmorph.flux import ClosureVerdict

        monkeypatch.setattr(cli, "in_closure", lambda *a: ClosureVerdict(True, "g1", False))
    else:
        real = cli.canonical_json
        monkeypatch.setattr(cli, "canonical_json", lambda obj: real(obj).replace("\n", " \n", 1))
    assert _errors(client, requests) > 0


def test_every_reported_metric_is_declared():
    stream = run.Stream(run.Calibration())
    for cmd in workloads.COMMANDS:
        stream.latencies += [0.001, 0.002]
        stream.by_cmd[cmd] = [0.001, 0.002]
    reported = set(run.end_to_end(stream, 1.0))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert reported == set(declared)
    assert all(run.unit(n) == u for n, u in declared.items())

    per_layer = set(tracing.Tracer().metrics(1)) | {"trace.overhead_ratio"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == set(declared)
    assert all(run.unit(n) == u for n, u in declared.items())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# layers that should hold most of the traced self time on each workload
INTENDED = {
    "join": ("interp", "saturation"),
    "closure": ("flux",),
    "corpus": ("cli", "project", "dsl", "logic", "operads"),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_profile_puts_self_time_in_the_intended_layers(tmp_path, cli, name):
    load = workloads.BUILD[name](5, tmp_path)
    requests = {
        "join": lambda: _small(load, ["join1", "join2"]),
        "closure": lambda: load.requests,
        "corpus": lambda: load.requests[:200],
    }[name]()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stream = run.Stream(run.Calibration())
        stream.run(run.Client(cli), requests, 0, hook=lambda i: setattr(tracer, "request", i))
    finally:
        tracer.uninstall()
    assert not stream.failures
    metrics = tracer.metrics(len(stream.latencies))
    shares = {layer: metrics[f"{layer}.self_share"] for layer in tracing.LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.02)
    assert sum(shares[layer] for layer in INTENDED[name]) > 0.5, shares


def test_witness_replay_reads_both_meanings_of_a_numeric_selection():
    gens = workloads.generators([frozenset({(2, 1), (1, 1)}), frozenset({(0,)})])
    assert gens == [frozenset({(0,)}), frozenset({(1, 1), (2, 1)})]
    seen = workloads.eval_witness("select[1=2](g2)", gens)
    assert seen == {frozenset({(2, 1)}), frozenset({(1, 1)})}
    seen = workloads.eval_witness("(project[2,1](g2) u (g1 x g1))", gens)
    assert seen == {frozenset({(1, 2), (1, 1), (0, 0)})}
    with pytest.raises(ValueError):
        workloads.eval_witness("project[1](g2", gens)


@pytest.mark.xfail(raises=TypeError, strict=True, reason=(
    "validation_to_json sorts witness items whose values mix int and str; "
    "the corpus keeps key-violation values integer until this is fixed"
))
def test_known_defect_mixed_witness_sort(tmp_path, cli, capsys):
    (tmp_path / "a.json").write_text(json.dumps({"schema": "A", "relations": {
        "K": {"columns": ["k", "v"], "rows": [[0, 1], [0, "a"]]},
    }}))
    (tmp_path / "project.json").write_text(json.dumps({
        "schemas": {"A": {"relations": {"K": ["k", "v"]},
                          "constraints": "forall k, v, w . K(k, v) & K(k, w) -> v = w"}},
        "instances": {"a": {"schema": "A", "file": "a.json"}},
    }))
    assert cli.main(["validate", "--project", str(tmp_path / "project.json"), "--instance", "a"]) == 1
