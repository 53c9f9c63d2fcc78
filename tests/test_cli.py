"""The dbmorph command line: subcommands, exit codes, canonical output."""

import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dbmorph import cli, interp as interp_module, logic, saturation as saturation_module
from dbmorph import project as project_module
from dbmorph.cli import main
from dbmorph.dsl import _MAX_NESTING as DSL_NESTING, parse_mapping
from dbmorph.errors import DbmorphError, ParseError, SchemaError
from dbmorph.interp import ComponentFunction
from dbmorph.project import (
    compile_project_mapping,
    load_interpretation_file,
    load_project,
)

from conftest import FIXTURES

REPO = FIXTURES.parent.parent

P1 = str(FIXTURES / "example1" / "project.json")
P3 = str(FIXTURES / "example3" / "project.json")
P4 = str(FIXTURES / "example4" / "project.json")
P5 = str(FIXTURES / "example5" / "project.json")


def interp(example, name="interp.json"):
    return str(FIXTURES / example / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# compile


def test_compile_writes_canonical_json(capsys):
    code, out, err = run(
        capsys, "compile", "--project", P3, "--mapping", "m_ab"
    )
    assert code == 0 and err == ""
    assert out.startswith("{\n") and out.endswith("}\n")
    data = payload(out)
    assert data["name"] == "m_ab"
    assert data["operations"][0]["S"] == [
        [[1, 1], [2, 2]],
        [[1, 3], [2, 1]],
        [[2, 3], [3, 1]],
        [[3, 2], [4, 3]],
    ]


def test_compile_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "compile", "--project", P1, "--mapping", "m_ac")
    _, second, _ = run(capsys, "compile", "--project", P1, "--mapping", "m_ac")
    assert first == second


def test_out_writes_the_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "arrow.json"
    code, out, _ = run(
        capsys,
        "compile", "--project", P3, "--mapping", "m_ab", "--out", str(target),
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert data["name"] == "m_ab"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("compile", []),
        ("eval", ["--interp", "interp_ab.json"]),
        ("saturate", ["--interp", "interp_ab.json"]),
        ("pfunction", ["--interp", "interp_ab.json", "--op", "1"]),
        ("flux", ["--interp", "interp_ab.json"]),
        ("equal", ["--interp", "interp_ab.json"]),
        ("parse", []),
        ("validate", []),
    ],
)
def test_out_file_holds_the_bytes_of_stdout(capsys, tmp_path, command, extra):
    project = copy_example1(tmp_path)
    for name in ("a.json", "b.json"):  # non-ASCII text and escapes in every value shown
        path = tmp_path / name
        text = path.read_text(encoding="utf-8").replace('"e1"', '"é\\u2028\\n\\""')
        path.write_text(text, encoding="utf-8")
    target = "--instance" if command in ("parse", "validate") else "--mapping"
    argv = [command, "--project", str(project), target, "a" if target == "--instance" else "m_ab"]
    argv += [str(tmp_path / a) if a.endswith(".json") else a for a in extra]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2) and out.startswith("{"), err
    out_file = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(out_file)) == (code, "", "")
    assert out_file.read_bytes() == out.encode("utf-8")


# ---------------------------------------------------------------------------
# eval


def test_eval_satisfied(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--project", P3, "--mapping", "m_ab",
        "--interp", interp("example3"),
    )
    assert code == 0
    data = payload(out)
    assert data["satisfied"] is True
    assert data["components"][0]["image"] == [[1, 3, 5, 7]]


def test_eval_violation_exits_one(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4", "interp_bad.json"),
    )
    assert code == 1
    data = payload(out)
    assert data["satisfied"] is False
    assert data["violations"] == [{"operation": "q_1", "row": [132, "opera"]}]


def test_eval_verbose_traces_on_stderr(capsys):
    code, out, err = run(
        capsys,
        "eval", "--project", P1, "--mapping", "m_bc",
        "--interp", interp("example1", "interp_bc.json"), "--verbose",
    )
    assert code == 0
    assert payload(out)["satisfied"] is True
    assert "q_1: S = [[(1, 1), (1, 2)]]" in err
    assert "join guard failed -> <>" in err
    assert '-> <"e1", "o1">' in err


def test_eval_verbose_shows_guard_checks(capsys):
    _, _, err = run(
        capsys,
        "eval", "--project", P3, "--mapping", "m_ab",
        "--interp", interp("example3"), "--verbose",
    )
    assert "guards [ok] -> <1, 3, 5, 7>" in err


def short_circuit_fixture(tmp_path):
    """f is defined only where the guard x = 1 holds, so evaluating f(x)
    for the row (3, 4) would fail."""
    files = {
        "a.json": {
            "schema": "A",
            "relations": {"R": {"columns": ["c1", "c2"], "rows": [[1, 2], [3, 4]]}},
        },
        "b.json": {
            "schema": "B", "relations": {"T": {"columns": ["c1"], "rows": [[1]]}}
        },
        "interp.json": {
            "source": "a", "target": "b", "skolem": {"f": {"entries": [[[1], 2]]}}
        },
        "project.json": {
            "schemas": {
                "A": {"relations": {"R": ["c1", "c2"]}},
                "B": {"relations": {"T": ["c1"]}},
            },
            "instances": {
                "a": {"schema": "A", "file": "a.json"},
                "b": {"schema": "B", "file": "b.json"},
            },
            "mappings": {"m": {"source": "A", "target": "B", "file": "m.map"}},
        },
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "m.map").write_text(
        "exists f . forall x, y . R(x, y) & x = 1 & f(x) = y -> T(x)", encoding="utf-8"
    )
    return str(tmp_path / "project.json"), str(tmp_path / "interp.json")


def test_eval_verbose_traces_the_short_circuit_evaluation(capsys, tmp_path):
    project, it = short_circuit_fixture(tmp_path)
    argv = ("eval", "--project", project, "--mapping", "m", "--interp", it)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    verbose_code, verbose_out, trace = run(capsys, *argv, "--verbose")
    assert (verbose_code, verbose_out) == (code, out)
    assert trace.splitlines() == [
        "q_1: S = []",
        "  (<1, 2>) g: x=1, y=2 guards [ok] [ok] -> <1>",
        "  (<3, 4>) g: x=3, y=4 guards [fail] -> <>",
    ]


def control_character_fixture(tmp_path):
    """R and T both hold a string with a newline and one with a tab, and
    the mapping copies R into T."""
    rows = [["a\nb"], ["c\td"]]
    files = {
        "a.json": {"schema": "A", "relations": {"R": {"columns": ["c1"], "rows": rows}}},
        "b.json": {"schema": "B", "relations": {"T": {"columns": ["c1"], "rows": rows}}},
        "interp.json": {"source": "a", "target": "b"},
        "project.json": {
            "schemas": {"A": {"relations": {"R": ["c1"]}}, "B": {"relations": {"T": ["c1"]}}},
            "instances": {
                "a": {"schema": "A", "file": "a.json"},
                "b": {"schema": "B", "file": "b.json"},
            },
            "mappings": {"m": {"source": "A", "target": "B", "file": "m.map"}},
        },
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "m.map").write_text("forall x . R(x) -> T(x)", encoding="utf-8")
    return str(tmp_path / "project.json"), str(tmp_path / "interp.json")


def test_eval_verbose_escapes_control_characters_as_the_dsl_does(capsys, tmp_path):
    project, it = control_character_fixture(tmp_path)
    code, _, trace = run(
        capsys, "eval", "--project", project, "--mapping", "m", "--interp", it, "--verbose"
    )
    assert code == 0
    assert trace.splitlines() == [
        "q_1: S = []",
        '  (<"a\\nb">) g: x="a\\nb" -> <"a\\nb">',
        '  (<"c\\td">) g: x="c\\td" -> <"c\\td">',
    ]


@pytest.mark.parametrize(
    "value, witness",
    [("a\nb", 'select[1="a\\nb"](g1)'), ("c\td", 'select[1="c\\td"](g1)')],
)
def test_flux_witness_escapes_control_characters_as_the_dsl_does(
    capsys, tmp_path, value, witness
):
    project, it = control_character_fixture(tmp_path)
    member = tmp_path / "member.json"
    member.write_text(json.dumps([[value]]), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "flux", "--project", project, "--mapping", "m", "--interp", it,
        "--member", str(member),
    )
    assert code == 0
    found = payload(out)["member"]["witness"]
    assert found == witness and "\n" not in found and "\t" not in found
    # the constant reads back through the DSL as the member's value
    constant = found.removeprefix("select[1=").removesuffix("](g1)")
    (tgd,) = parse_mapping(f"forall x . R(x) & x = {constant} -> T(x)")
    assert tgd.lhs[1].right.value == value


# ---------------------------------------------------------------------------
# saturate and pfunction


def test_saturate_reports_extras(capsys):
    code, out, _ = run(
        capsys,
        "saturate", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"),
    )
    assert code == 0
    data = payload(out)
    assert data["counts"] == {"extras": 3, "skipped": 0}
    assert [e["b"][1] for e in data["extras"]] == ["music", "photography", "travel"]


def test_saturate_requires_satisfaction(capsys):
    code, out, err = run(
        capsys,
        "saturate", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4", "interp_bad.json"),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "q_1" in err


def test_pfunction_unions_the_family(capsys):
    code, out, _ = run(
        capsys,
        "pfunction", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"), "--op", "1",
    )
    assert code == 0
    data = payload(out)
    assert data["name"] == "f_q_1" and data["codomain"] == "Hobbies"
    ((entry),) = data["graph"]
    assert sorted(r[1] for r in entry["rows"]) == [
        "art", "music", "photography", "travel"
    ]


def test_pfunction_index_out_of_range_is_a_usage_error(capsys):
    code, out, err = run(
        capsys,
        "pfunction", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"), "--op", "7",
    )
    assert code == 3 and err.startswith("error:")


# ---------------------------------------------------------------------------
# flux


def test_flux_prints_the_kernel(capsys):
    code, out, _ = run(
        capsys,
        "flux", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"),
    )
    assert code == 0
    assert payload(out) == {"members": [[[]], [[132]]]}


def test_flux_member_found(capsys, tmp_path):
    member = tmp_path / "member.json"
    member.write_text("[[132]]", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "flux", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"), "--member", str(member),
    )
    assert code == 0
    data = payload(out)
    assert data["member"] == {"found": True, "witness": "g1", "capped": False}


def test_flux_member_not_derivable_exits_two(capsys, tmp_path):
    member = tmp_path / "member.json"
    member.write_text("[[999]]", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "flux", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"), "--member", str(member),
    )
    assert code == 2
    data = payload(out)
    assert data["member"]["found"] is False
    assert data["member"]["witness"] is None


def test_flux_bounds_are_validated(capsys):
    code, _, err = run(
        capsys,
        "flux", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"), "--bounds", "1,2",
    )
    assert code == 3 and "--bounds" in err


def test_flux_accepts_none_depth(capsys, tmp_path):
    member = tmp_path / "member.json"
    member.write_text("[[132]]", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "flux", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"),
        "--member", str(member), "--bounds", "none,4,1000",
    )
    assert code == 0 and payload(out)["member"]["found"] is True


@pytest.mark.parametrize("spec", ["x,1,1", "3,6,0"])
def test_flux_bounds_values_are_validated(capsys, spec):
    code, _, err = run(
        capsys,
        "flux", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"), "--bounds", spec,
    )
    assert code == 3 and err.startswith("error: --bounds")


# ---------------------------------------------------------------------------
# equal


def test_equal_base_against_saturation(capsys):
    code, out, _ = run(
        capsys,
        "equal", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"),
    )
    assert code == 0
    data = payload(out)
    assert data["verdict"] == "equal"
    assert data["left"] == data["right"] == {"members": [[[]], [[132]]]}


def test_equal_against_the_tautology_is_unequal(capsys):
    code, out, _ = run(
        capsys,
        "equal", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"),
        "--mapping2", "m_taut", "--interp2", interp("example4", "interp_taut.json"),
    )
    assert code == 1
    data = payload(out)
    assert data["verdict"] == "unequal"
    assert data["right"] == {"members": [[[]]]}


def test_equal_requires_both_second_arguments(capsys):
    code, _, err = run(
        capsys,
        "equal", "--project", P4, "--mapping", "m_ab",
        "--interp", interp("example4"), "--mapping2", "m_taut",
    )
    assert code == 3 and "--mapping2" in err


def unknown_fixture(tmp_path):
    (tmp_path / "a.json").write_text(
        json.dumps(
            {
                "schema": "A",
                "relations": {
                    "p": {"columns": ["c1"], "rows": [[1]]},
                    "p2": {"columns": ["c1"], "rows": []},
                },
            }
        ),
        encoding="utf-8",
    )
    (tmp_path / "b.json").write_text(
        json.dumps({"schema": "B", "relations": {}}), encoding="utf-8"
    )
    (tmp_path / "m1.map").write_text(
        "forall x . p(x) -> s(x)\n&& forall x . p2(x) -> t(x)", encoding="utf-8"
    )
    (tmp_path / "m2.map").write_text("forall x . p(x) -> s(x)", encoding="utf-8")
    (tmp_path / "interp.json").write_text(
        json.dumps({"source": "a", "target": "b"}), encoding="utf-8"
    )
    (tmp_path / "project.json").write_text(
        json.dumps(
            {
                "schemas": {
                    "A": {"relations": {"p": ["c1"], "p2": ["c1"]}},
                    "B": {"relations": {"s": ["c1"], "t": ["c1"]}},
                },
                "instances": {
                    "a": {"schema": "A", "file": "a.json"},
                    "b": {"schema": "B", "file": "b.json"},
                },
                "mappings": {
                    "m1": {"source": "A", "target": "B", "file": "m1.map"},
                    "m2": {"source": "A", "target": "B", "file": "m2.map"},
                },
            }
        ),
        encoding="utf-8",
    )
    return str(tmp_path / "project.json"), str(tmp_path / "interp.json")


def test_equal_unknown_within_bounds_exits_two(capsys, tmp_path):
    project, it = unknown_fixture(tmp_path)
    code, out, _ = run(
        capsys,
        "equal", "--project", project, "--mapping", "m1", "--interp", it,
        "--mapping2", "m2", "--interp2", it,
    )
    assert code == 2
    data = payload(out)
    assert data["verdict"] == "unknown-within-bounds"
    # the empty projection of the idle operation separates the kernels
    assert data["left"]["members"] == [[[]], [], [[1]]]
    assert data["right"]["members"] == [[[]], [[1]]]


# ---------------------------------------------------------------------------
# parse


def test_parse_flattens_the_instance(capsys, tmp_path):
    out_file = tmp_path / "v.json"
    code, _, _ = run(
        capsys,
        "parse", "--project", P5, "--instance", "a", "--out", str(out_file),
    )
    assert code == 0
    checked_in = (FIXTURES / "example5" / "v.json").read_text(encoding="utf-8")
    assert out_file.read_text(encoding="utf-8") == checked_in


def test_parse_roundtrip_recovers_null_rows(capsys):
    code, out, _ = run(
        capsys, "parse", "--project", P5, "--instance", "a_nulls", "--roundtrip"
    )
    assert code == 0
    assert payload(out)["roundtrip"] == {"ok": True, "mismatches": []}


def test_parse_roundtrip_keeps_an_int_and_its_digit_string_apart(capsys):
    """``P(1, "x")`` and ``P("1", "x")`` get two t-indexes, so both rows
    come back."""
    code, out, _ = run(
        capsys, "parse", "--project", P5, "--instance", "kinds", "--roundtrip"
    )
    assert code == 0
    data = payload(out)
    assert len({row[1] for row in data["relations"]["r_V"]["rows"]}) == 2
    assert data["roundtrip"] == {"ok": True, "mismatches": []}


def test_parse_roundtrip_loses_all_null_rows(capsys, tmp_path):
    (tmp_path / "x.json").write_text(
        json.dumps(
            {
                "schema": "X",
                "relations": {"p": {"columns": ["c1", "c2"], "rows": [[None, None]]}},
            }
        ),
        encoding="utf-8",
    )
    (tmp_path / "project.json").write_text(
        json.dumps(
            {
                "schemas": {"X": {"relations": {"p": ["c1", "c2"]}}},
                "instances": {"x": {"schema": "X", "file": "x.json"}},
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "parse", "--project", str(tmp_path / "project.json"),
        "--instance", "x", "--roundtrip",
    )
    assert code == 1
    data = payload(out)
    # the flattening of an all-NULL row is empty
    assert data["relations"]["r_V"]["rows"] == []
    assert data["roundtrip"]["ok"] is False
    assert data["roundtrip"]["mismatches"] == [
        {"relation": "p", "missing": [None, None]}
    ]


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_instance(capsys):
    code, out, _ = run(capsys, "validate", "--project", P4, "--instance", "a")
    assert code == 0
    assert payload(out) == {"valid": True, "violations": []}


def test_validate_violation_exits_one(capsys):
    code, out, _ = run(capsys, "validate", "--project", P4, "--instance", "a_dup")
    assert code == 1
    data = payload(out)
    assert data["valid"] is False
    assert len(data["violations"]) == 2


@pytest.mark.parametrize(
    "row, code", [((1, 2, 3), 0), ((1, 1, 3), 3)], ids=["disagrees", "agrees"]
)
def test_validate_exits_three_once_a_row_agrees_before_a_function_term(
    capsys, tmp_path, row, code
):
    # the row (1, 2, 3) fails the repeated x before it reaches hash(x)
    relations = {"P": ["a", "b", "c"], "Q": ["a"]}
    project = {
        "schemas": {
            "A": {"relations": relations, "constraints": "forall x . P(x, x, hash(x)) -> Q(x)"}
        },
        "instances": {"a": {"schema": "A", "file": "a.json"}},
        "mappings": {},
    }
    instance = {
        "schema": "A",
        "relations": {
            "P": {"columns": relations["P"], "rows": [list(row)]},
            "Q": {"columns": relations["Q"], "rows": []},
        },
    }
    (tmp_path / "project.json").write_text(json.dumps(project), encoding="utf-8")
    (tmp_path / "a.json").write_text(json.dumps(instance), encoding="utf-8")
    got, out, err = run(
        capsys, "validate", "--project", str(tmp_path / "project.json"), "--instance", "a"
    )
    assert got == code
    if code == 0:
        assert payload(out) == {"valid": True, "violations": []}
    else:
        assert out == "" and "function terms" in err


# ---------------------------------------------------------------------------
# usage and input errors


def test_missing_project_file_exits_three(capsys):
    code, _, err = run(
        capsys, "compile", "--project", "/nonexistent/p.json", "--mapping", "m"
    )
    assert code == 3 and err.startswith("error:")


def test_unknown_mapping_exits_three(capsys):
    code, _, err = run(capsys, "compile", "--project", P4, "--mapping", "zzz")
    assert code == 3 and "zzz" in err


@pytest.mark.parametrize(
    "argv, kind",
    [(["compile", "--mapping", "zzz"], "mapping"), (["parse", "--instance", "zzz"], "instance")],
)
def test_a_name_the_project_lacks_is_an_unlocated_input_error(capsys, argv, kind):
    # a name given on the command line sits in no file
    code, out, err = run(capsys, argv[0], "--project", P1, *argv[1:])
    assert (code, out, err) == (3, "", f"error: project declares no {kind} zzz\n")


@pytest.mark.parametrize(
    "schema_columns, instance_columns, message",
    [
        # an instance file whose relation repeats a column
        (["c1"], ["c1", "c1"], "a.json: relation p: duplicate column names in p: ('c1', 'c1')"),
        # a schema relation that repeats a column
        (["c1", "c1"], ["c1"],
         "project.json: schema A: relation p: duplicate column names in p: ('c1', 'c1')"),
        # a schema relation with no columns
        ([], [], "project.json: schema A: ordinary symbol p must have arity >= 1"),
    ],
    ids=["instance-duplicate", "schema-duplicate", "schema-no-columns"],
)
def test_relation_symbol_faults_name_their_file(
    capsys, tmp_path, schema_columns, instance_columns, message
):
    project = {
        "schemas": {"A": {"relations": {"p": schema_columns}}},
        "instances": {"a": {"schema": "A", "file": "a.json"}},
    }
    instance = {"schema": "A", "relations": {"p": {"columns": instance_columns, "rows": []}}}
    (tmp_path / "project.json").write_text(json.dumps(project), encoding="utf-8")
    (tmp_path / "a.json").write_text(json.dumps(instance), encoding="utf-8")
    code, out, err = run(
        capsys, "parse", "--project", str(tmp_path / "project.json"), "--instance", "a"
    )
    assert (code, out) == (3, "")
    assert err == f"error: {tmp_path}/{message}\n"


def test_unknown_subcommand_exits_three(capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_no_arguments_exits_three(capsys):
    assert main([]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    for _ in range(2):  # the parser is built once and reused
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in (
            "compile", "eval", "saturate", "pfunction", "flux", "equal", "parse", "validate"
        ):
            assert sub in out


def test_dsl_errors_surface_as_input_errors(capsys, tmp_path):
    (tmp_path / "a.json").write_text(
        json.dumps({"schema": "A", "relations": {"p": {"columns": ["c1"], "rows": []}}}),
        encoding="utf-8",
    )
    (tmp_path / "m.map").write_text("forall x . p(x) ->", encoding="utf-8")
    (tmp_path / "project.json").write_text(
        json.dumps(
            {
                "schemas": {"A": {"relations": {"p": ["c1"]}}, "B": {"relations": {"s": ["c1"]}}},
                "instances": {"a": {"schema": "A", "file": "a.json"}},
                "mappings": {"m": {"source": "A", "target": "B", "file": "m.map"}},
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(
        capsys,
        "compile", "--project", str(tmp_path / "project.json"), "--mapping", "m",
    )
    assert code == 3 and err.startswith("error:")


def flux_on_unknown_fixture(capsys, tmp_path, breaking):
    """Run flux --member on the fixture after ``breaking`` edits its files."""
    project, it = unknown_fixture(tmp_path)
    (tmp_path / "member.json").write_text("[[1]]", encoding="utf-8")
    breaking(tmp_path)
    code, out, err = run(
        capsys,
        "flux", "--project", project, "--mapping", "m1", "--interp", it,
        "--member", str(tmp_path / "member.json"),
    )
    assert code == 3 and out == "" and err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("project.json", '{"schemas": ', "project.json:1:13:"),
        ("a.json", "{\n  ]", "a.json:2:3:"),
        ("interp.json", "", "interp.json:1:1:"),
        ("member.json", "[[1]", "member.json:1:5:"),
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        ("project.json", '{"schemas": \udcff', "project.json: byte 12: invalid UTF-8"),
        ("a.json", '{\n  "\udcff"', "a.json: byte 5: invalid UTF-8"),
        ("interp.json", "\udcff", "interp.json: byte 0: invalid UTF-8"),
        ("member.json", "[[1]\udcff]", "member.json: byte 4: invalid UTF-8"),
        ("m1.map", "forall x . p(x) -> s(\udcff)", "m1.map: byte 21: invalid UTF-8"),
        (
            "project.json",
            '{"domain": [1.5]}',
            "project.json: 'domain': floats are not domain values",
        ),
        # a JSON escape of an unpaired surrogate, in a value or in a key
        ("project.json", '{"domain": ["\\udcff"]}', "project.json: unpaired surrogate \\udcff"),
        ("a.json", '{"schema": "A\\ud83d"}', "a.json: unpaired surrogate \\ud83d"),
        ("interp.json", '{"\\ude00x": 1}', "interp.json: unpaired surrogate \\ude00"),
        ("member.json", '[["e\\ude00\\ud83d"]]', "member.json: unpaired surrogate \\ude00"),
        # nested past the recursion limit
        pytest.param(
            "member.json",
            "[" * 100_000 + "]" * 100_000,
            "member.json: JSON nests too deeply",
            id="member.json-deep",
        ),
        pytest.param(
            "project.json",
            '{"domain": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "project.json: JSON nests too deeply",
            id="project.json-deep",
        ),
        # an integer past the interpreter's limit on digits (4300 by default)
        pytest.param(
            "a.json",
            '{"schema": "A", "relations": {"p": {"columns": ["c1"], "rows": [[1], [%s]]}}}'
            % ("9" * 5000),
            "a.json: an integer has too many digits",
            id="a.json-long-integer",
        ),
        pytest.param(
            "member.json",
            "[[-%s]]" % ("9" * 5000),
            "member.json: an integer has too many digits",
            id="member.json-long-integer",
        ),
    ],
)
def test_malformed_json_is_a_located_input_error(capsys, tmp_path, name, text, where):
    err = flux_on_unknown_fixture(
        capsys,
        tmp_path,
        lambda d: (d / name).write_bytes(text.encode("utf-8", "surrogateescape")),
    )
    assert where in err


def test_json_surrogate_pair_is_one_character(capsys, tmp_path):
    project = copy_example1(tmp_path)
    path = tmp_path / "a.json"
    path.write_text(
        path.read_text(encoding="utf-8").replace('"e1"', '"\\ud83d\\ude00"'), encoding="utf-8"
    )
    code, out, _ = run(capsys, "parse", "--project", str(project), "--instance", "a")
    assert code == 0 and "\U0001f600" in out
    out.encode("utf-8")


@pytest.mark.parametrize(
    "text, where",
    [
        ("0", "member.json: the top level must be an array"),
        ("{}", "member.json: the top level must be an array"),
        ("[1]", "member.json: member row: each row must be a JSON array"),
    ],
)
def test_wrongly_typed_member_file_is_an_input_error(capsys, tmp_path, text, where):
    err = flux_on_unknown_fixture(
        capsys, tmp_path, lambda d: (d / "member.json").write_text(text, encoding="utf-8")
    )
    assert where in err


@pytest.mark.parametrize(
    "text, widths",
    [
        ('[["e1"], ["e1", "e2"]]', "1 and 2"),
        ('[[], ["e1"]]', "0 and 1"),
        ("[[1], [], [1, 2]]", "0 and 1"),
    ],
)
def test_member_rows_of_different_widths_are_an_input_error(capsys, tmp_path, text, widths):
    # no view derives such a set, so the closure search is not run
    err = flux_on_unknown_fixture(
        capsys, tmp_path, lambda d: (d / "member.json").write_text(text, encoding="utf-8")
    )
    assert f"member.json: member rows differ in width: {widths} values" in err


def edit_project(tmp_path, edit):
    path = tmp_path / "project.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize(
    "section, entry, key",
    [
        ("instances", "a", "schema"),
        ("instances", "b", "file"),
        ("mappings", "m1", "source"),
        ("mappings", "m2", "target"),
        ("mappings", "m1", "file"),
    ],
)
def test_project_entry_without_a_key_is_an_input_error(
    capsys, tmp_path, section, entry, key
):
    def drop_key(data):
        del data[section][entry][key]

    err = flux_on_unknown_fixture(
        capsys, tmp_path, lambda d: edit_project(d, drop_key)
    )
    assert f"project.json: {section[:-1]} {entry}: missing '{key}'" in err


def test_graph_edge_must_be_a_triple(capsys, tmp_path):
    def pair_edge(data):
        data["graph"] = [["A", "B"]]

    err = flux_on_unknown_fixture(
        capsys, tmp_path, lambda d: edit_project(d, pair_edge)
    )
    assert "project.json: graph edge ['A', 'B'] is not" in err


@pytest.mark.parametrize("value", [0, None, ["forall x . p(x) -> p(x)"]])
def test_schema_constraints_must_be_text(capsys, tmp_path, value):
    def set_constraints(data):
        data["schemas"]["A"]["constraints"] = value

    err = flux_on_unknown_fixture(
        capsys, tmp_path, lambda d: edit_project(d, set_constraints)
    )
    assert "project.json: schema A: 'constraints' must be a string" in err


def json_places(value, depth):
    """Key paths of ``value`` and its nested values down to ``depth``."""
    yield ()
    if depth and isinstance(value, (dict, list)):
        for key in value if isinstance(value, dict) else range(len(value)):
            for rest in json_places(value[key], depth - 1):
                yield (key,) + rest


def wrongly_typed_inputs():
    """Each value down to depth 4 of example1's project, interpretation and
    instance-a files, replaced by each kind of JSON value."""
    for name in ("project.json", "interp_ab.json", "a.json"):
        data = json.loads((FIXTURES / "example1" / name).read_text(encoding="utf-8"))
        for place in json_places(data, 4):
            for replacement in ([], {}, 0, "x", None):
                label = ".".join(map(str, place)) or "top"
                yield pytest.param(
                    name, place, replacement, id=f"{name}:{label}={json.dumps(replacement)}"
                )


def copy_example1(d):
    for src in (FIXTURES / "example1").iterdir():
        (d / src.name).write_bytes(src.read_bytes())
    return d / "project.json"


@pytest.mark.parametrize("name, place, replacement", wrongly_typed_inputs())
def test_wrongly_typed_json_is_an_input_error(capsys, tmp_path, name, place, replacement):
    copy_example1(tmp_path)
    path = tmp_path / name
    data = json.loads(path.read_text(encoding="utf-8"))
    holder, original = None, data
    for key in place:
        holder, original = original, original[key]
    if holder is None:
        data = replacement
    else:
        holder[place[-1]] = replacement
    path.write_text(json.dumps(data), encoding="utf-8")

    code, _, err = run(
        capsys,
        "eval", "--project", str(tmp_path / "project.json"), "--mapping", "m_ab",
        "--interp", str(tmp_path / "interp_ab.json"),
    )
    assert code in (0, 3), err
    if type(replacement) is not type(original):
        # the fixture is well formed, so another kind of value is misplaced
        assert code == 3 and f"error: {path}: " in err


@pytest.mark.parametrize("value, code", [("music", 3), ("art", 0)])
def test_a_skolem_table_with_two_values_at_one_point_is_an_input_error(
    capsys, tmp_path, value, code
):
    for src in (FIXTURES / "example4").iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    path = tmp_path / "interp.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["skolem"]["f1"]["entries"].append([[132], value])
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["--project", str(tmp_path / "project.json"), "--mapping", "m_ab", "--interp", str(path)]
    for command in ("eval", "saturate", "equal"):
        got, out, err = run(capsys, command, *argv)
        assert got == code
        if code == 3:
            assert out == ""
            assert err == f'error: {path}: skolem f1: arguments [132] have two values, "art" and "music"\n'


@pytest.mark.parametrize(
    "table, code, err",
    [
        ({"entries": [], "default": None}, 0, ""),
        ({"entries": []}, 3, "error: function f1 has no entry for (132,) and no default\n"),
    ],
)
def test_a_null_default_is_a_value(capsys, tmp_path, table, code, err):
    """``"default": null`` maps a missing argument tuple to NULL; a table
    without a default still rejects it."""
    for src in (FIXTURES / "example4").iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    path = tmp_path / "interp.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["skolem"]["f1"] = table
    path.write_text(json.dumps(data), encoding="utf-8")
    target = tmp_path / "b.json"
    data = json.loads(target.read_text(encoding="utf-8"))
    data["relations"]["Hobbies"]["rows"].append([132, None])
    target.write_text(json.dumps(data), encoding="utf-8")
    argv = ["--project", str(tmp_path / "project.json"), "--mapping", "m_ab", "--interp", str(path)]
    got, out, message = run(capsys, "eval", *argv)
    assert (got, message) == (code, err)
    if code == 0:
        assert payload(out)["components"][0]["image"] == [[132, None]]


@pytest.mark.parametrize("where", ["mapping", "constraints"])
def test_non_decimal_digits_are_unexpected_characters(capsys, tmp_path, where):
    project = copy_example1(tmp_path)
    text = "forall x . EmpAcme(x) & x = ² -> Emp(x)"
    if where == "mapping":
        (tmp_path / "m_ab.map").write_text(text, encoding="utf-8")
    else:
        edit_project(tmp_path, lambda data: data["schemas"]["A"].update(constraints=text))
    code, out, err = run(capsys, "compile", "--project", str(project), "--mapping", "m_ab")
    assert code == 3 and out == ""
    assert "unexpected character '²'" in err


@pytest.mark.parametrize("where", ["mapping", "constraints"])
def test_too_long_numbers_are_located_parse_errors(capsys, tmp_path, where):
    # past the interpreter's limit on integer digits (4300 by default)
    project = copy_example1(tmp_path)
    text = "forall x . EmpAcme(x) & x = %s -> Emp(x)" % ("9" * 5000)
    if where == "mapping":
        (tmp_path / "m_ab.map").write_text(text, encoding="utf-8")
    else:
        edit_project(tmp_path, lambda data: data["schemas"]["A"].update(constraints=text))
    code, out, err = run(capsys, "compile", "--project", str(project), "--mapping", "m_ab")
    located = {"mapping": tmp_path / "m_ab.map", "constraints": f"{project}: schema A: constraints"}
    assert (code, out) == (3, "")
    assert err == f"error: {located[where]}: line 1, column 29: number has too many digits\n"


@pytest.mark.parametrize(
    "where, text, message",
    [
        ("m_ab.map", "forall x . EmpAcme(x) -> Emp(x",
         "line 1, column 31: expected ')', found 'end of input'"),
        ("m_ab.map", "forall x . EmpAcme(x) -> Emp(f(x))",
         "line 1, column 30: unknown function symbol f (not bound by exists, not a built-in)"),
        ("m_ab.map", "forall x . EmpAcme(x) -> Nope(x)", "schema B has no relation Nope"),
        ("constraints", "forall x . EmpAcme(x) -> Local(x",
         "line 1, column 33: expected ')', found 'end of input'"),
    ],
    ids=["mapping-syntax", "mapping-resolution", "mapping-compile", "constraints-syntax"],
)
def test_dsl_and_compile_faults_name_their_file(capsys, tmp_path, where, text, message):
    project = copy_example1(tmp_path)
    if where == "constraints":
        # every schema's constraints are parsed on load, whatever the mapping
        edit_project(tmp_path, lambda data: data["schemas"]["A"].update(constraints=text))
        located, mapping = f"{project}: schema A: constraints", "m_bc"
    else:
        (tmp_path / where).write_text(text, encoding="utf-8")
        located, mapping = tmp_path / where, "m_ab"
    code, out, err = run(capsys, "compile", "--project", str(project), "--mapping", mapping)
    assert (code, out, err) == (3, "", f"error: {located}: {message}\n")
    # the fault keeps its class and, when it is a parse error, its position
    with pytest.raises(DbmorphError) as fault:
        compile_project_mapping(load_project(project), mapping)
    assert str(fault.value) == f"{located}: {message}"
    if message.startswith("line"):
        assert isinstance(fault.value, ParseError)
        assert message.startswith(f"line {fault.value.line}, column {fault.value.column}: ")
    else:
        assert type(fault.value) is SchemaError


@pytest.mark.parametrize(
    "text, problem",
    [
        ("forall x, y . EmpAcme(x, y) -> Local(x)", "EmpAcme with arity 2, but the schema declares 1"),
        ("forall x . EmpAcme(x) -> Local(x, x)", "Local with arity 2, but the schema declares 1"),
        ("forall x . EmpAcme(x) -> Nope(x)", "relation Nope, which the schema lacks"),
        ("forall x . EmpAcme(x) & not Nope(x) -> Local(x)", "relation Nope, which the schema lacks"),
        ("forall x, y . EmpAcme(x, y) -> x = y", "EmpAcme with arity 2, but the schema declares 1"),
    ],
)
def test_constraints_must_fit_their_schema(capsys, tmp_path, text, problem):
    project = copy_example1(tmp_path)
    edit_project(tmp_path, lambda data: data["schemas"]["A"].update(constraints=text))
    for argv in (["compile", "--mapping", "m_ab"], ["validate", "--instance", "a"]):
        code, out, err = run(capsys, argv[0], "--project", str(project), *argv[1:])
        assert code == 3 and out == ""
        assert f"{project}: schema A: constraints use {problem}" in err


def nested_hash(depth):
    return "hash(" * depth + "x" + ")" * depth


# a comparison side holds as many argument lists as it nests hashes, an atom
# one more; the guard x = 1 fails on every name, so b.json need not hold the
# hashed head
@pytest.mark.parametrize(
    "text",
    [
        f"forall x . EmpAcme(x) & {nested_hash(DSL_NESTING)} != x -> Emp(x)",
        f"forall x . EmpAcme(x) & x = 1 -> Emp({nested_hash(DSL_NESTING - 1)})",
    ],
    ids=["comparison", "atom"],
)
def test_nesting_up_to_the_bound_runs_and_one_more_level_is_an_input_error(
    capsys, tmp_path, text
):
    project = copy_example1(tmp_path)
    mapping = tmp_path / "m_ab.map"
    common = ["--project", str(project), "--mapping", "m_ab"]
    it = ["--interp", str(tmp_path / "interp_ab.json")]
    commands = [
        ["compile", *common],
        ["eval", *common, *it, "--verbose"],
        ["saturate", *common, *it],
        ["flux", *common, *it],
        ["equal", *common, *it],
        ["pfunction", *common, *it, "--op", "1"],
    ]
    mapping.write_text(text, encoding="utf-8")
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, (argv, err)

    deeper = text.replace("hash(x)", "hash(hash(x))")
    mapping.write_text(deeper, encoding="utf-8")
    column = deeper.index("hash(x)") + 1
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == (
            f"error: {mapping}: line 1, column {column}: "
            f"argument lists nest deeper than {DSL_NESTING}\n"
        )


@pytest.mark.parametrize("where", ["entry file", "--project", "--interp", "--member", "--out"])
def test_nul_in_a_path_is_a_located_input_error(capsys, tmp_path, where):
    project = copy_example1(tmp_path)
    (tmp_path / "member.json").write_text("[]", encoding="utf-8")
    paths = {
        "--project": str(project),
        "--interp": str(tmp_path / "interp_ab.json"),
        "--member": str(tmp_path / "member.json"),
        "--out": str(tmp_path / "out.json"),
    }
    if where == "entry file":
        edit_project(tmp_path, lambda data: data["instances"]["a"].update(file="a\0.json"))
        bad = str(tmp_path / "a\0.json")
    else:
        bad = paths[where] = paths[where].replace(".json", "\0.json")
    argv = ["flux", "--mapping", "m_ab"]
    for flag, path in paths.items():
        argv += [flag, path]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {bad!r}: embedded null byte\n"


# ---------------------------------------------------------------------------
# fuzzed input files

E1_AB = ("--mapping", "m_ab", "--interp", "interp_ab.json")


def project_argv(d, *argv):
    """argv on the project in directory ``d``; a ``.json`` argument names
    a file there."""
    out = [argv[0], "--project", str(d / "project.json")]
    return out + [str(d / a) if a.endswith(".json") else a for a in argv[1:]]


# the example1 files the fuzzed commands read, and two that none of them reads
FUZZ_FILES = (
    "project.json", "a.json", "b.json", "c.json", "interp_ab.json", "m_ab.map", "m_bc.map",
)
UNREAD = ("c.json", "m_bc.map")
FUZZ_ARGV = {
    "compile": ("--mapping", "m_ab"),
    "eval": E1_AB,
    "saturate": E1_AB,
    "pfunction": (*E1_AB, "--op", "1"),
    "flux": E1_AB,
    "equal": E1_AB,
    "parse": ("--instance", "a"),
    "validate": ("--instance", "a"),
}
CHUNKS = st.one_of(
    st.binary(min_size=1, max_size=3),
    st.text(min_size=1, max_size=2).map(str.encode),
    st.sampled_from(
        (b'"', b"[", b"]", b"{", b"}", b",", b":", b"(", b")", b"&", b"1.5", b"null", b"\xff")
    ),
)
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(("delete", "insert", "replace")), st.integers(0, 2000), CHUNKS),
    min_size=1,
    max_size=3,
)


def mutate(data: bytes, edits) -> bytes:
    for kind, at, chunk in edits:
        i = at % (len(data) + 1)
        end = i if kind == "insert" else i + len(chunk)
        data = data[:i] + (b"" if kind == "delete" else chunk) + data[end:]
    return data


@settings(max_examples=100, deadline=None)
@example("m_ab.map", [("insert", 21, " & x = ²".encode())])
@example("a.json", [("insert", 0, b"\xff")])
@given(st.sampled_from(FUZZ_FILES), BYTE_EDITS)
def test_mutated_input_files_exit_with_a_code(name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        project = copy_example1(d)
        path = d / name
        path.write_bytes(mutate(path.read_bytes(), edits))
        for cmd, rest in FUZZ_ARGV.items():
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                code = main(project_argv(d, cmd, *rest))
            assert code in (0, 1, 2, 3), err.getvalue()
            if code == 1:
                # exit 1 is a verdict, never an input error in disguise:
                # every file the verdict rests on loads
                loaded = load_project(d / "project.json")
                load_interpretation_file(d / "interp_ab.json", loaded)
                for instance in loaded.instances:
                    loaded.instance(instance)
            if name in UNREAD:
                assert (code, out.getvalue()) == unmutated_run(cmd)


@functools.cache
def unmutated_run(cmd):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = main(project_argv(FIXTURES / "example1", cmd, *FUZZ_ARGV[cmd]))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# one evaluation per component


E1_BC = (
    "--project", P1, "--mapping", "m_bc",
    "--interp", interp("example1", "interp_bc.json"),
)
E3 = ("--project", P3, "--mapping", "m_ab", "--interp", interp("example3"))
E4 = ("--project", P4, "--mapping", "m_ab", "--interp", interp("example4"))
E4_TAUT = ("--mapping2", "m_taut", "--interp2", interp("example4", "interp_taut.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", *E1_BC),
        ("eval", *E3),
        ("flux", *E4),
        ("saturate", *E4),
        ("pfunction", *E4, "--op", "1"),
        ("equal", *E4),
        ("equal", *E4, *E4_TAUT),
    ],
    ids=[
        "eval-1", "eval-3", "flux", "saturate", "pfunction", "equal", "equal-mapping2"
    ],
)
def test_each_component_graph_is_built_once(monkeypatch, capsys, argv):
    built = []
    graph = ComponentFunction.graph

    def counting_graph(component):
        if component._graph is None:
            built.append(component.op.name)
        return graph(component)

    monkeypatch.setattr(ComponentFunction, "graph", counting_graph)
    code, _, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    project = load_project(argv[2])
    mappings = [argv[4]]
    if "--mapping2" in argv:
        mappings.append(argv[argv.index("--mapping2") + 1])
    expected = [
        op.name
        for name in mappings
        for op in compile_project_mapping(project, name).operations
    ]
    assert sorted(built) == sorted(expected)


def counting_programs(monkeypatch):
    """Make every generated join count, through ``logic._compiled`` where
    each module imported it: its runs per (mode, atoms), and per (mode,
    atoms, tests, head, args) the evaluations of a matched tuple, one per
    record a graph holds or a trace yields."""
    runs, evaluated = Counter(), Counter()
    compiled = logic._compiled

    def counting_compiled(mode, atoms, tests=(), head=(), bound=(), free=()):
        program, *rest = compiled(mode, atoms, tests, head, bound, free)
        shape = (mode, tuple(map(tuple, atoms)))
        # the tests and head tell two components over the same places apart
        key = shape + (tuple(tests), tuple(head))

        def counted(records):
            for record in records:
                evaluated[key, record[0]] += 1
                yield record

        def run(*args):
            runs[shape] += 1
            result = program.run(*args)
            if mode == "graph":
                evaluated.update((key, args) for args in result)
            elif mode == "trace":
                return counted(result)
            return result

        return (program._replace(run=run), *rest)

    for module in (logic, interp_module, saturation_module):
        monkeypatch.setattr(module, "_compiled", counting_compiled)
    return runs, evaluated


def test_eval_verbose_evaluates_each_joined_tuple_once(monkeypatch, capsys):
    # the trace and the graph come from one run of the generated join
    runs, evaluated = counting_programs(monkeypatch)
    code, _, trace = run(capsys, "eval", *E1_BC, "--verbose")
    assert code == 0
    lines = [line for line in trace.splitlines() if line.startswith("  (")]
    joined = [line for line in lines if "join guard failed" not in line]
    # the trace lists the whole product and evaluates only the joined tuples
    assert len(lines) > len(joined) == len(evaluated) > 0
    assert set(evaluated.values()) == {1}
    ops = compile_project_mapping(load_project(E1_BC[1]), E1_BC[3]).operations
    assert runs == Counter(("trace", tuple(p.variables for p in op.places)) for op in ops)


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--project", P3, "--mapping", "m_ab", "--interp", interp("example3")),
        ("validate", "--project", P4, "--instance", "a_dup"),
    ],
    ids=["eval", "validate"],
)
def test_eval_and_validate_run_the_one_join(monkeypatch, capsys, argv):
    # a component's argument tuples and a constraint's matches both come
    # from generated joins, so a second join loop in either cannot come back
    runs, _ = counting_programs(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert code == (0 if argv[0] == "eval" else 1) and err == ""
    if argv[0] == "eval":
        # one join per component, over its places
        ops = compile_project_mapping(load_project(P3), "m_ab").operations
        assert runs == Counter(("graph", tuple(p.variables for p in op.places)) for op in ops)
    else:
        # the key egd's body matches its two Contacts atoms in one search
        (body,) = [shape for shape in runs if len(shape[1]) == 2]
        assert runs[body] == 1 and body[0] == "search"


# ---------------------------------------------------------------------------
# project files read on first use


@pytest.mark.parametrize(
    "argv", [("compile", "--mapping", "m_ab"), ("eval", *E1_AB)], ids=["compile", "eval"]
)
def test_a_broken_file_the_command_does_not_read_is_ignored(capsys, tmp_path, argv):
    clean = run(capsys, *project_argv(FIXTURES / "example1", *argv))
    copy_example1(tmp_path)
    (tmp_path / "c.json").write_text("{", encoding="utf-8")
    assert run(capsys, *project_argv(tmp_path, *argv)) == clean
    assert clean[0] == 0


def test_a_broken_file_the_command_reads_exits_three(capsys, tmp_path):
    copy_example1(tmp_path)
    (tmp_path / "c.json").write_text("{", encoding="utf-8")
    code, out, err = run(
        capsys,
        *project_argv(tmp_path, "eval", "--mapping", "m_bc", "--interp", "interp_bc.json"),
    )
    assert code == 3 and out == ""
    assert f"error: {tmp_path / 'c.json'}:1:2: invalid JSON" in err


@pytest.mark.parametrize(
    "example, argv, needed",
    [
        (
            "example1",
            ("eval", *E1_AB),
            ("project.json", "interp_ab.json", "m_ab.map", "a.json", "b.json"),
        ),
        (
            "example4",
            (
                "equal", "--mapping", "m_ab", "--interp", "interp.json",
                "--mapping2", "m_taut", "--interp2", "interp_taut.json",
            ),
            (
                "project.json", "interp.json", "interp_taut.json", "m_ab.map",
                "../taut.map", "a.json", "b.json",
            ),
        ),
        ("example4", ("validate", "--instance", "a_dup"), ("project.json", "a_dup.json")),
    ],
    ids=["eval", "equal-mapping2", "validate"],
)
def test_each_needed_file_is_read_once(monkeypatch, capsys, example, argv, needed):
    reads = Counter()
    read_text = project_module._read_text

    def counting_read_text(path):
        reads[path.resolve()] += 1
        return read_text(path)

    monkeypatch.setattr(project_module, "_read_text", counting_read_text)
    d = FIXTURES / example
    code, _, err = run(capsys, *project_argv(d, *argv))
    assert code in (0, 1) and err == ""
    assert reads == Counter((d / name).resolve() for name in needed)


# ---------------------------------------------------------------------------
# one parser per process


COMPILE_E1 = ("compile", "--project", P1, "--mapping", "m_ab")


def test_the_parser_is_built_once(monkeypatch, capsys):
    built = []
    build = cli._build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counting_build)
    for _ in range(10):
        assert main(list(COMPILE_E1)) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_a_usage_error_leaves_the_parser_reusable(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    fresh = run(capsys, *COMPILE_E1)
    code, out, err = run(capsys, *COMPILE_E1, "--bogus")
    assert code == 3 and out == "" and "unrecognized arguments: --bogus" in err
    assert run(capsys, *COMPILE_E1) == fresh
    assert fresh[0] == 0


def test_a_rebound_handler_is_the_one_called(monkeypatch, capsys):
    assert run(capsys, *COMPILE_E1)[0] == 0
    called = []
    monkeypatch.setattr(cli, "cmd_compile", lambda args: called.append(args.mapping) or 0)
    assert run(capsys, *COMPILE_E1) == (0, "", "")
    assert called == ["m_ab"]


def test_the_module_entry_point_runs(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    argv = ["compile", "--project", "tests/fixtures/example1/project.json", "--mapping", "m_ab"]
    env = {**os.environ, "PYTHONPATH": "src"}

    def entry_point(*args):
        return subprocess.run(
            [sys.executable, "-m", "dbmorph.cli", *args],
            cwd=REPO, env=env, capture_output=True, timeout=60,
        )

    done = entry_point(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run(capsys, *argv)[1].encode("utf-8")
    assert entry_point(*argv, "--bogus").returncode == 3
