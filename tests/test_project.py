"""Project files, instance files, and canonical serialization."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dbmorph import (
    FluxKernel,
    NULL,
    SchemaError,
    alpha_star,
    satisfies,
    saturate,
)
from dbmorph.dsl import parse_mapping
from dbmorph.model import Relation, RelationSymbol, Schema
from dbmorph.project import (
    arrow_to_json,
    canonical_json,
    compile_project_mapping,
    instance_to_json,
    kernel_to_json,
    load_instance,
    load_instance_file,
    load_interpretation_file,
    load_member_file,
    load_project,
    morphism_to_json,
    rows_to_json,
    saturation_to_json,
    validation_to_json,
    value_from_json,
    value_to_json,
)
from dbmorph.logic import validate_instance

import project_oracle
from conftest import FIXTURES, arrow_and_interp


# ---------------------------------------------------------------------------
# values


def test_value_json_round_trip():
    assert value_from_json(None) is NULL
    assert value_to_json(NULL) is None
    assert value_from_json(5) == 5
    assert value_from_json("x") == "x"


def test_value_from_json_rejects_non_domain_values():
    with pytest.raises(SchemaError):
        value_from_json(True)
    with pytest.raises(SchemaError):
        value_from_json(1.5)
    with pytest.raises(SchemaError):
        value_from_json([1])


def test_rows_serialize_sorted():
    rows = frozenset({(2,), (1,), (NULL,)})
    assert rows_to_json(rows) == [[None], [1], [2]]


# ---------------------------------------------------------------------------
# instance files


def sample_schema():
    return Schema("A", [RelationSymbol("p", ("c1", "c2")), RelationSymbol("q", ("c1",))])


def test_load_instance_fills_omitted_relations():
    schema = sample_schema()
    inst = load_instance(
        {"schema": "A", "relations": {"p": {"columns": ["c1", "c2"], "rows": [[1, None]]}}},
        schema,
    )
    assert inst.rows("p") == frozenset({(1, NULL)})
    assert inst.rows("q") == frozenset()


def test_load_instance_checks_schema_name():
    with pytest.raises(SchemaError):
        load_instance({"schema": "B", "relations": {}}, sample_schema())


def test_load_instance_checks_columns():
    data = {"relations": {"p": {"columns": ["c1"], "rows": []}}}
    with pytest.raises(SchemaError):
        load_instance(data, sample_schema())


def test_load_instance_rejects_unknown_relations():
    data = {"relations": {"zzz": {"columns": ["c1"], "rows": []}}}
    with pytest.raises(SchemaError):
        load_instance(data, sample_schema())


def test_load_instance_without_schema_infers_one():
    data = {
        "schema": "Fresh",
        "relations": {"p": {"columns": ["c1"], "rows": [[1], [2]]}},
    }
    inst = load_instance(data)
    assert inst.schema.name == "Fresh"
    assert inst.rows("p") == frozenset({(1,), (2,)})


def test_load_instance_shape_errors():
    with pytest.raises(SchemaError):
        load_instance([], sample_schema())
    with pytest.raises(SchemaError):
        load_instance({"relations": {"p": {"columns": ["c1", "c2"]}}}, sample_schema())
    with pytest.raises(SchemaError):
        load_instance(
            {"relations": {"p": {"columns": ["c1", "c2"], "rows": ["oops"]}}},
            sample_schema(),
        )


@pytest.mark.parametrize(
    "relations,message",
    [
        (
            {"q": {"columns": ["c1"], "rows": [["x", "x"]]}},
            "a.json: relation q: row ('x', 'x') has 2 values; q has arity 1",
        ),
        (
            {"nope": {"columns": ["c1"], "rows": []}},
            "a.json: schema A has no relation nope",
        ),
    ],
)
def test_instance_errors_name_their_file(relations, message):
    with pytest.raises(SchemaError) as err:
        load_instance({"relations": relations}, sample_schema(), where="a.json")
    assert str(err.value) == message


def test_instance_round_trips_through_json(example5):
    inst = example5.instance("a_nulls")
    data = instance_to_json(inst)
    again = load_instance(data, example5.schema("A"))
    assert again.relations == inst.relations


def test_load_instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {"schema": "A", "relations": {"q": {"columns": ["c1"], "rows": [[3]]}}}
        ),
        encoding="utf-8",
    )
    inst = load_instance_file(path, sample_schema())
    assert inst.rows("q") == frozenset({(3,)})


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_is_stable_and_readable():
    out = canonical_json({"b": 1, "a": [2, 1], "s": "héllo"})
    assert out == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1,\n  "s": "héllo"\n}\n'
    assert canonical_json({"b": 1, "a": [2, 1], "s": "héllo"}) == out


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


def rows_of(values, widths):
    """Lists of one to six rows, each a list or a tuple of ``values``, of a
    width drawn from ``widths`` per row list or per row."""

    def rows(width):
        row = st.lists(values, min_size=width, max_size=width)
        return st.lists(st.one_of(row, row.map(tuple)), min_size=1, max_size=6)

    return widths.flatmap(rows)


huge_ints = st.one_of(st.integers(), st.sampled_from((-(10**40), 10**40, 2**63, -(2**63) - 1)))
escaped_text = st.one_of(st.text(max_size=4), st.sampled_from(("a\"\\\n", "\x00\x7f\u2028", "ü")))
# row lists as the payloads hold them, and the near misses of the int-row
# renderer: strings, NULLs and booleans among the ints, ragged widths,
# empty rows and rows that nest a container
row_lists = st.one_of(
    rows_of(huge_ints, st.integers(1, 4)),
    rows_of(st.one_of(escaped_text, st.none(), st.booleans()), st.integers(0, 3)),
    rows_of(st.one_of(huge_ints, st.booleans(), st.none()), st.just(2)),
    st.lists(st.lists(huge_ints, max_size=3), min_size=1, max_size=5),
    rows_of(st.one_of(huge_ints, st.lists(huge_ints, max_size=2)), st.integers(1, 3)),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        json_documents,
        row_lists,
        # deeper, so that the rows are indented further
        st.dictionaries(st.text(max_size=3), st.one_of(row_lists, st.lists(row_lists, max_size=2)), max_size=3),
    )
)
@example({"é": ["a\"\\\n\x00\x7f\u2028", "ü"], "": [], "z": {}, "n": [[], [{}], ()]})
@example([True, 1, False, 0, None, -(10**40)])
@example(())
@example(True)
@example("\ud800é")
@example([[True, 1]])
@example([[1, 2], [3]])
@example({"rows": [(1, -(10**40)), [2**63, 0]]})
def test_canonical_json_is_json_dumps(document):
    want = json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_json(document) == want


def test_canonical_json_refuses_what_json_cannot_carry():
    for bad in (1.5, {1}, object()):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json({"a": [bad]})


# ---------------------------------------------------------------------------
# project files


def write_project(tmp_path, project_data, files):
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    path = tmp_path / "project.json"
    path.write_text(json.dumps(project_data), encoding="utf-8")
    return path


MINI_INSTANCE = json.dumps(
    {"schema": "A", "relations": {"p": {"columns": ["c1"], "rows": [[1]]}}}
)


def mini_project(graph=None, constraints=None):
    data = {
        "domain": [0, 1],
        "schemas": {
            "A": {"relations": {"p": ["c1"]}},
            "B": {"relations": {"s": ["c1"]}},
        },
        "instances": {"a": {"schema": "A", "file": "a.json"}},
        "mappings": {
            "m": {"source": "A", "target": "B", "file": "m.map"},
        },
    }
    if graph is not None:
        data["graph"] = graph
    if constraints is not None:
        data["schemas"]["A"]["constraints"] = constraints
    return data


def test_load_project_resolves_relative_files(tmp_path):
    path = write_project(
        tmp_path,
        mini_project(graph=[["A", "B", "m"]]),
        {"a.json": MINI_INSTANCE, "m.map": "forall x . p(x) -> s(x)"},
    )
    project = load_project(path)
    assert project.domain == (0, 1)
    assert project.instance("a").rows("p") == frozenset({(1,)})
    assert project.graph == (("A", "B", "m"),)
    arrow = compile_project_mapping(project, "m")
    assert [op.target for op in arrow.operations] == ["s"]


def test_graph_edges_must_match_mapping_schemas(tmp_path):
    path = write_project(
        tmp_path,
        mini_project(graph=[["B", "A", "m"]]),
        {"a.json": MINI_INSTANCE, "m.map": "forall x . p(x) -> s(x)"},
    )
    with pytest.raises(SchemaError):
        load_project(path)


def test_schema_constraints_must_be_first_order(tmp_path):
    path = write_project(
        tmp_path,
        mini_project(constraints="exists f1 . forall x . p(x) -> p(f1(x))"),
        {"a.json": MINI_INSTANCE, "m.map": "forall x . p(x) -> s(x)"},
    )
    with pytest.raises(SchemaError):
        load_project(path)


def test_project_lookups_fail_loudly(example1):
    with pytest.raises(SchemaError):
        example1.schema("Z")
    with pytest.raises(SchemaError):
        example1.instance("zz")
    with pytest.raises(SchemaError):
        example1.mapping("m_zz")


def test_example_projects_parse_constraints(example4):
    (constraint,) = example4.schema("A").constraints
    assert constraint.universals[0] == "x1"
    report = validate_instance(example4.instance("a"))
    assert report.ok
    report_dup = validate_instance(example4.instance("a_dup"))
    assert not report_dup.ok


# ---------------------------------------------------------------------------
# interpretation files


def test_interpretation_file_needs_both_instances(tmp_path, example1):
    path = tmp_path / "interp.json"
    path.write_text(json.dumps({"source": "a"}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_interpretation_file(path, example1)


def test_interpretation_entries_must_be_pairs(tmp_path, example1):
    path = tmp_path / "interp.json"
    path.write_text(
        json.dumps(
            {
                "source": "a",
                "target": "b",
                "skolem": {"f1": {"entries": [[["e1"], "o1", "extra"]]}},
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(SchemaError):
        load_interpretation_file(path, example1)


def test_interpretation_defaults_and_domain(tmp_path, example1):
    path = tmp_path / "interp.json"
    path.write_text(
        json.dumps(
            {
                "source": "b",
                "target": "c",
                "domain": [0, 1, None],
                "skolem": {"f1": {"entries": [], "default": "o9"}},
            }
        ),
        encoding="utf-8",
    )
    it = load_interpretation_file(path, example1)
    assert it.skolem["f1"].lookup(("anything",)) == "o9"
    assert it.domain == frozenset({0, 1, NULL})


def test_interpretation_tables_give_one_value_per_point(tmp_path, example1):
    path = tmp_path / "interp.json"

    def load(entries):
        data = {"source": "a", "target": "b", "skolem": {"f1": {"entries": entries}}}
        path.write_text(json.dumps(data), encoding="utf-8")
        return load_interpretation_file(path, example1)

    # a pair listed twice with one value is the same table
    it = load([[["e1"], "o1"], [[None], "o2"], [["e1"], "o1"]])
    assert it.skolem["f1"].entries == {("e1",): "o1", (NULL,): "o2"}
    # the first conflict in file order is reported
    with pytest.raises(SchemaError) as err:
        load([[["e1"], "o1"], [[None], 1], [[None], "1"], [["e1"], "o2"]])
    assert str(err.value) == f'{path}: skolem f1: arguments [null] have two values, 1 and "1"'


def test_interpretation_unknown_instance(tmp_path, example1):
    path = tmp_path / "interp.json"
    path.write_text(json.dumps({"source": "zz", "target": "b"}), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_interpretation_file(path, example1)


# ---------------------------------------------------------------------------
# report serializers


def test_arrow_serialization_golden(example3):
    arrow = compile_project_mapping(example3, "m_ab")
    data = arrow_to_json(arrow)
    assert data["name"] == "m_ab"
    assert data["identity"] == "1_r_∅"
    (op,) = data["operations"]
    assert op["name"] == "q_1" and op["rq"] == "r_q1"
    assert op["variableOrder"] == ["x", "y", "z", "v", "w", "w'"]
    assert op["S"] == [
        [[1, 1], [2, 2]],
        [[1, 3], [2, 1]],
        [[2, 3], [3, 1]],
        [[3, 2], [4, 3]],
    ]
    assert op["Z"] == [1, 2, 3]
    assert op["guards"] == ["y = f1(x, z)"]
    assert op["places"][2]["char"] is True


def test_morphism_serialization(example1):
    arrow, it = arrow_and_interp(example1, "example1", "m_bc", "interp_bc.json")
    m = alpha_star(it, arrow)
    data = morphism_to_json(m, satisfies(alpha_star(it, arrow)))
    assert data["satisfied"] is True and data["violations"] == []
    q1 = data["components"][0]
    assert q1["operation"] == "q_1"
    assert q1["image"] == [["e1", "o1"], ["e3", "o2"]]


def test_violation_serialization(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp_bad.json")
    m = alpha_star(it, arrow)
    data = morphism_to_json(m, satisfies(alpha_star(it, arrow)))
    assert data["satisfied"] is False
    assert data["violations"] == [{"operation": "q_1", "row": [132, "opera"]}]


def test_kernel_serialization():
    k = FluxKernel([frozenset({(1,), (NULL,)})])
    assert kernel_to_json(k) == {"members": [[[]], [[None], [1]]]}


def test_saturation_serialization(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp.json")
    data = saturation_to_json(saturate(it, arrow))
    assert data["counts"] == {"extras": 3, "skipped": 0}
    first = data["extras"][0]
    assert first["op"] == "q_1"
    assert first["b"] == [132, "music"]
    assert first["perturbation"] == [
        {"function": "f1", "args": [132], "value": "music"}
    ]


def test_validation_serialization(example4):
    data = validation_to_json(validate_instance(example4.instance("a_dup")))
    assert data["valid"] is False
    # one violation per ordered pair of disagreeing rows
    assert len(data["violations"]) == 2
    streets = {
        (entry["witness"]["x4"], entry["witness"]["y4"])
        for entry in data["violations"]
    }
    assert streets == {("Appia", "Nomentana"), ("Nomentana", "Appia")}
    assert all(entry["witness"]["x1"] == 132 for entry in data["violations"])


def test_validation_serialization_orders_mixed_witness_values():
    key = parse_mapping("forall k, v, w . K(k, v) & K(k, w) -> v = w")
    schema = Schema("A", [RelationSymbol("K", ("k", "v"))], key)
    inst = load_instance(
        {"relations": {"K": {"columns": ["k", "v"], "rows": [[0, 1], [0, "a"]]}}}, schema
    )
    data = validation_to_json(validate_instance(inst))
    # integers before strings, as everywhere else
    assert [entry["witness"] for entry in data["violations"]] == [
        {"k": 0, "v": 1, "w": "a"},
        {"k": 0, "v": "a", "w": 1},
    ]


# ---------------------------------------------------------------------------
# bulk loading against the per-value loaders (tests/project_oracle.py)

BAD_VALUES = [True, False, 1.5, {}, {"a": 1}, [1], []]
NOT_ROWS = ["oops", 3, None, True, {"a": [1]}]
plain_values = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(["x", "é", ""]))


def rows_of(width):
    return st.lists(st.lists(plain_values, min_size=width, max_size=width), max_size=5)


@st.composite
def planted(draw, rows, width_matters=True):
    """``rows`` (a list of JSON rows) with up to two faults planted at
    random places: a value that is no domain value, a row of another width,
    or a row that is no array."""
    rows = [list(row) for row in rows]
    kinds = ["value", "row"] + (["width"] if width_matters else [])
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        at = draw(st.integers(0, len(rows)))
        if kind == "row":
            rows.insert(at, draw(st.sampled_from(NOT_ROWS)))
            continue
        if at == len(rows) or not isinstance(rows[at], list):
            rows.insert(at, [draw(plain_values)])
        row = rows[at]
        if kind == "value" or not row:
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(BAD_VALUES)))
        elif draw(st.booleans()):
            row.append(draw(plain_values))
        else:
            del row[draw(st.integers(0, len(row) - 1))]
    return rows


def outcome(load, *args):
    """What ``load(*args)`` returns, or the type and message of its error."""
    try:
        return load(*args)
    except SchemaError as exc:
        return type(exc), str(exc)


@st.composite
def instance_documents(draw):
    relations = {}
    for name, width in (("p", 1), ("q", 2)):
        if draw(st.booleans()):
            relations[name] = {
                "columns": [f"c{i}" for i in range(1, width + 1)],
                "rows": draw(planted(draw(rows_of(width)))),
            }
    return {"schema": "A", "relations": relations}


@settings(max_examples=300, deadline=None)
@given(instance_documents(), st.booleans())
def test_bulk_instance_loading_is_the_per_value_loader(data, with_schema):
    schema = sample_schema() if with_schema else None
    got = outcome(load_instance, data, schema, "a.json")
    want = outcome(project_oracle.load_instance, data, schema, "a.json")
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.schema.name, got.relations) == (want.schema.name, want.relations)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bulk_relation_check_is_the_per_value_check(data):
    sym = RelationSymbol("q", ("c1", "c2"))
    rows = data.draw(planted(data.draw(rows_of(2))))
    rows = [row for row in rows if isinstance(row, list)]
    rows = [tuple(NULL if v is None else v for v in row) for row in rows]
    got = outcome(lambda: Relation(sym, rows).rows)
    assert got == outcome(project_oracle.relation_rows, sym, rows)


def write_json(directory, name, data) -> Path:
    path = Path(directory) / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bulk_member_loading_is_the_per_value_loader(data):
    rows = data.draw(planted(data.draw(rows_of(data.draw(st.integers(0, 3)))), width_matters=False))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "member.json", rows)
        assert outcome(load_member_file, path) == outcome(project_oracle.load_member_file, path)


PAIR_FAULTS = [[["e1"]], [["e1"], "o1", "o2"], "pair", None, {"a": 1}]


@st.composite
def interpretation_documents(draw):
    """An interpretation of example1 whose skolem entries and domain hold
    up to two faults: args that are no row, a value or an argument that is
    no domain value, or an entry that is no [args, value] pair."""
    pairs = st.tuples(st.lists(plain_values, max_size=2), plain_values).map(list)
    entries = draw(st.lists(pairs, max_size=5))
    for fault in draw(st.lists(st.sampled_from(["args", "value", "pair"]), max_size=2)):
        at = draw(st.integers(0, len(entries)))
        if fault == "pair" or at == len(entries) or entries[at] in PAIR_FAULTS:
            entries.insert(at, json.loads(json.dumps(draw(st.sampled_from(PAIR_FAULTS)))))
        elif fault == "args":
            args, bad = entries[at][0], draw(st.sampled_from(NOT_ROWS + BAD_VALUES))
            entries[at][0] = [*args, bad] if isinstance(args, list) and bad not in NOT_ROWS else bad
        else:
            entries[at][-1] = draw(st.sampled_from(BAD_VALUES))
    data = {"source": "a", "target": "b", "skolem": {"f1": {"entries": entries, "default": "o9"}}}
    if draw(st.booleans()):
        data["domain"] = draw(planted([draw(st.lists(plain_values, max_size=4))]))[0]
    return data


def skolem_tables(it):
    return {name: (t.entries, t.default) for name, t in it.skolem.items()}, it.domain


@settings(max_examples=300, deadline=None)
@given(interpretation_documents())
def test_bulk_interpretation_loading_is_the_per_value_loader(example1, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "interp.json", data)
        got = outcome(load_interpretation_file, path, example1)
        want = outcome(project_oracle.load_interpretation_file, path, example1)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert skolem_tables(got) == skolem_tables(want)
