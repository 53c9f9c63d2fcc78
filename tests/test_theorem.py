"""The paper's theorem end to end: a morphism can be replaced by its
saturation.  Each generated case of the saturation oracle test is written
out as a project directory and run through ``cli.main``; ``equal`` of a
mapping against its saturation may say "equal" or "unknown within bounds",
never "unequal"."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings

from dbmorph import saturate
from dbmorph.cli import main
from dbmorph.project import instance_to_json

import law_oracle
from test_saturation import oracle_cases


def write_project(d: Path, text: str, it) -> Path:
    """Schemas, both instances, the mapping and an interpretation listing
    every skolem entry."""
    schemas = {
        inst.schema.name: {
            "relations": {s.name: list(s.columns) for s in inst.schema.ordinary_symbols()}
        }
        for inst in (it.source, it.target)
    }
    for name, inst in (("a", it.source), ("b", it.target)):
        (d / f"{name}.json").write_text(json.dumps(instance_to_json(inst)), encoding="utf-8")
    (d / "m.map").write_text(text, encoding="utf-8")
    skolem = {
        name: {
            "entries": [[args, value] for args, value in table.entries.items()]
        }
        for name, table in it.skolem.items()
    }
    (d / "interp.json").write_text(
        json.dumps({"source": "a", "target": "b", "skolem": skolem}), encoding="utf-8"
    )
    project = {
        "schemas": schemas,
        "instances": {
            "a": {"schema": it.source.schema.name, "file": "a.json"},
            "b": {"schema": it.target.schema.name, "file": "b.json"},
        },
        "mappings": {
            "m": {"source": it.source.schema.name, "target": it.target.schema.name, "file": "m.map"}
        },
    }
    (d / "project.json").write_text(json.dumps(project), encoding="utf-8")
    return d / "project.json"


def run(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=50, deadline=None)
@given(oracle_cases())
def test_saturation_stands_in_for_the_morphism(case):
    text, arrow, it = case
    assert law_oracle.check_flux_invariance(it, arrow).ok
    with tempfile.TemporaryDirectory() as d:
        project = write_project(Path(d), text, it)
        argv = ["--project", str(project), "--mapping", "m", "--interp", str(Path(d) / "interp.json")]
        code, out, err = run("saturate", *argv)
        assert code == 0, err
        # the files hold the generated case
        assert len(json.loads(out)["extras"]) == len(saturate(it, arrow).extras)
        code, out, err = run("flux", *argv)
        assert code == 0, err
        code, out, err = run("equal", *argv)
        assert code in (0, 2), err
        assert json.loads(out)["verdict"] == ("equal" if code == 0 else "unknown-within-bounds")
