"""Golden record of the CLI on the fixture projects.

Runs every fixture invocation in process, with ``tests/fixtures`` as the
working directory so that messages hold relative paths, and records per
invocation the exit code and the sha256 of stdout and of stderr in
``tests/fixtures/cli_golden.json``:

- ``compile`` of every mapping;
- ``eval``, ``eval --verbose``, ``saturate``, ``flux``, ``equal`` and
  ``pfunction --op 0..12`` of every mapping with every interpretation file
  of its project;
- ``equal --mapping2 --interp2`` of every ordered pair of those
  (mapping, interpretation) choices;
- ``parse``, ``parse --roundtrip`` and ``validate`` of every instance;
- the same set for the join-shaped project ``join``, which pins the bytes
  of the compiled head terms, the row lists and the saturated kernel;
- the same set for ``skips``, whose ``saturate`` record pins the
  ``skipped`` block: candidates skipped for both reasons, with NULL in a
  trigger and in a candidate row;
- the same set for ``ints``, whose values are all ints, so that its
  ``saturate`` extras and ``pfunction`` graphs are written from their
  ``%`` templates;
- the same set for ``arity``, whose ``eval`` records pin that a place
  whose atom has another arity than its relation exits 3 whatever its
  sign, while a negated place of the relation's arity reads its
  complement over values that only an ``extras`` instance holds;
- the same set for ``capped``, whose ``equal`` of ``m1`` against ``m2``
  is unknown within the default bounds and, under ``--bounds 3,2,2``
  (``CAPPED_BOUNDS``), says that its search was capped;
- the same set for ``crlf``, whose files end their lines in CR LF, and
  ``compile`` of the mapping of ``crlf/faults.json`` (``CRLF_FAULT``): a
  lone CR comes before the fault of that mapping and of
  ``interp_bad.json``, so that the records pin the line and column of a
  DSL and of a JSON fault as text mode counts them;
- ``flux --member`` on example1 (``FLUX_MEMBERS``): witnesses of depth 2
  and 3, fixpoint searches that cannot find a foreign, a too-wide or a
  NULL-bearing probe, a cap hit in each bounds regime, and the caps just
  under and at the size of a fixpoint.

Usage (stdlib only):

    python tests/cli_golden.py           # check; exit 1 listing each mismatch
    python tests/cli_golden.py --write   # record the current behaviour
    python tests/cli_golden.py --processes join skips

``--processes`` checks the named fixtures' invocations, those whose
``--project`` lies in that fixture, each run as its own ``python -m
dbmorph.cli`` process, against the same record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
SRC = HERE.parent / "src"
EXAMPLES = (
    "example1", "example3", "example4", "example5", "join", "skips", "ints", "arity", "capped",
    "crlf",
)
PFUNCTION_OPS = range(13)
# (mapping, interpretation, member file, --bounds or None), all of example1
FLUX_MEMBERS = (
    ("m_ac", "interp_ac", "member_rect.json", None),
    ("m_ab", "interp_ab", "member_pairs.json", "none,2,4000"),
    ("m_ac", "interp_ac", "member_foreign.json", "none,2,4000"),
    ("m_ab", "interp_ab", "member_pairs.json", "none,2,40"),
    ("m_ab", "interp_ab", "member_foreign.json", "3,6,200"),
    ("m_ab", "interp_ab", "member_wide.json", "none,2,4000"),
    ("m_ac", "interp_ac", "member_null.json", "none,2,4000"),
    ("m_ab", "interp_ab", "member_foreign.json", "none,2,400"),
    ("m_ac", "interp_ac", "member_foreign.json", "none,1,8"),
    ("m_ac", "interp_ac", "member_foreign.json", "none,1,9"),
)
# --bounds of ``equal --mapping2 m2`` from each mapping of capped, a relation
# cap under the size of the kernels' closures
CAPPED_BOUNDS = "3,2,2"
# the mapping of crlf with a DSL fault, declared by a project file of its
# own, as every mapping that a fixture's project.json declares compiles
CRLF_FAULT = ["compile", "--project", "crlf/faults.json", "--mapping", "bad"]

sys.path.insert(0, str(SRC))

from dbmorph import cli  # noqa: E402


def invocations() -> list:
    """Every argv of the golden set, paths relative to ``tests/fixtures``."""
    out = []
    for example in EXAMPLES:
        project = json.loads((FIXTURES / example / "project.json").read_text(encoding="utf-8"))
        proj = f"{example}/project.json"
        interps = sorted(p.name for p in (FIXTURES / example).glob("interp*.json"))
        pairs = [(m, f"{example}/{i}") for m in project["mappings"] for i in interps]
        for mapping in project["mappings"]:
            out.append(["compile", "--project", proj, "--mapping", mapping])
        for mapping, interp in pairs:
            common = ["--project", proj, "--mapping", mapping, "--interp", interp]
            for command in ("eval", "saturate", "flux", "equal"):
                out.append([command, *common])
            out.append(["eval", *common, "--verbose"])
            out.extend(["pfunction", *common, "--op", str(k)] for k in PFUNCTION_OPS)
            for mapping2, interp2 in pairs:
                out.append(["equal", *common, "--mapping2", mapping2, "--interp2", interp2])
        for instance in project["instances"]:
            base = ["--project", proj, "--instance", instance]
            out.extend([["parse", *base], ["parse", *base, "--roundtrip"], ["validate", *base]])
    for mapping, interp, member, bounds in FLUX_MEMBERS:
        argv = ["flux", "--project", "example1/project.json", "--mapping", mapping,
                "--interp", f"example1/{interp}.json", "--member", f"example1/{member}"]
        out.append(argv + ["--bounds", bounds] if bounds else argv)
    for mapping in ("m1", "m2"):
        out.append(["equal", "--project", "capped/project.json", "--mapping", mapping,
                    "--interp", "capped/interp.json", "--mapping2", "m2",
                    "--interp2", "capped/interp.json", "--bounds", CAPPED_BOUNDS])
    out.append(CRLF_FAULT)
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list) -> dict:
    """Exit code and output digests of one in-process invocation; an
    uncaught exception is recorded as exit 1 with its traceback's last line
    on stderr, as the interpreter would end the process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is behaviour too
            code = 1
            print(traceback.format_exc().splitlines()[-1], file=sys.stderr)
    return {
        "exit": code,
        "stdout": _digest(stdout.getvalue().encode("utf-8")),
        "stderr": _digest(stderr.getvalue().encode("utf-8")),
    }


def run_process(argv: list) -> dict:
    """Exit code and output digests of one ``python -m dbmorph.cli``
    process, run in ``tests/fixtures``."""
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "dbmorph.cli", *argv],
        cwd=FIXTURES, env=env, capture_output=True, timeout=120,
    )
    return {"exit": done.returncode, "stdout": _digest(done.stdout), "stderr": _digest(done.stderr)}


def record() -> dict:
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        return {" ".join(argv): run(argv) for argv in invocations()}
    finally:
        os.chdir(cwd)


def _differences(current: dict, subset: bool = False) -> list:
    """One line per invocation whose result in ``current`` differs from
    the golden file: every invocation of either, or with ``subset`` those
    of ``current`` only."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    keys = current.keys() if subset else golden.keys() | current.keys()
    return [
        f"{key}: recorded {golden.get(key)}, now {current.get(key)}"
        for key in sorted(keys)
        if golden.get(key) != current.get(key)
    ]


def mismatches() -> list:
    """One line per invocation whose result differs from the golden file."""
    return _differences(record())


def process_mismatches(fixtures) -> list:
    """One line per invocation of the given fixtures whose result, run as
    a process, differs from the golden file."""
    chosen = [
        argv for argv in invocations()
        if argv[argv.index("--project") + 1].split("/")[0] in fixtures
    ]
    current = {" ".join(argv): run_process(argv) for argv in chosen}
    return _differences(current, subset=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write"]:
        results = record()
        GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(results)} invocations in {GOLDEN.name}")
        return 0
    if argv[:1] == ["--processes"] and len(argv) > 1 and set(argv[1:]) <= set(EXAMPLES):
        lines = process_mismatches(argv[1:])
    elif argv:
        print("usage: cli_golden.py [--write | --processes FIXTURE...]", file=sys.stderr)
        return 2
    else:
        lines = mismatches()
    for line in lines:
        print(line)
    print(f"{len(lines)} mismatches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
