"""Project files, instance files, and canonical serialization."""

import enum
import itertools
import json
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dbmorph import (
    DbmorphError,
    FluxKernel,
    NULL,
    SchemaError,
    alpha_star,
    derive_pfunction,
    flux_kernel,
    parse_database,
    satisfies,
    saturate,
)
from dbmorph.dsl import parse_mapping
from dbmorph.model import Relation, RelationSymbol, Schema, check_values, sort_rows
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
    pfunction_to_json,
    saturation_to_json,
    validation_to_json,
)
from dbmorph import project as project_module
from dbmorph.logic import validate_instance
from dbmorph.saturation import ExtraFunction, PFunction, SaturatedMorphism, SkippedCandidate

import project_oracle
from cli_golden import EXAMPLES
from conftest import FIXTURES, arrow_and_interp, load_example


# ---------------------------------------------------------------------------
# values, by the one rule of ``model.check_values``


def test_value_json_round_trip():
    row = json.loads('[null, 5, "x"]')
    assert row == [NULL, 5, "x"]
    assert check_values([row], "value") == [row]
    assert json.loads(canonical_json(row)) == row


def test_value_from_json_rejects_non_domain_values():
    for value, fault in [
        (True, "booleans are not domain values"),
        (1.5, "floats are not domain values"),
        ([1], "[1] is not a domain value"),
    ]:
        with pytest.raises(SchemaError) as err:
            check_values([[value]], "value")
        assert str(err.value) == f"value: {fault}"


def test_rows_serialize_sorted():
    rows = frozenset({(2,), (1,), (NULL,)})
    assert json.loads(canonical_json(sort_rows(rows))) == [[None], [1], [2]]


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
    """An instance written as a file reads back as itself."""
    inst = example5.instance("a_nulls")
    data = json.loads(canonical_json(instance_to_json(inst)))
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


class _Flag(enum.IntEnum):
    ON = 1


class _Name(str):
    pass


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
# int and str subclasses, written as json.dumps writes them
@example([_Flag.ON, {"k": _Name("a\"\n")}, [[_Flag.ON, 2]]])
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
    with pytest.raises(SchemaError) as err:
        load_project(path)
    assert str(err.value) == f"{path}: graph edge ['B', 'A', 'm'] disagrees with mapping m's schemas"


@pytest.mark.parametrize(
    "key, entry, message",
    [
        ("instances", {"a": {"schema": "ZZ", "file": "a.json"}},
         "instance a: project declares no schema ZZ"),
        ("mappings", {"m": {"source": "A", "target": "ZZ", "file": "m.map"}},
         "mapping m: project declares no schema ZZ"),
        ("graph", [["A", "B", "m"], ["A", "B", "m_zz"]],
         "graph edge ['A', 'B', 'm_zz']: project declares no mapping m_zz"),
        ("graph", [["ZZ", "B", "m"]], "graph edge ['ZZ', 'B', 'm']: project declares no schema ZZ"),
    ],
)
def test_undeclared_names_are_located_in_the_project_file(tmp_path, key, entry, message):
    data = mini_project()
    data[key] = entry
    path = write_project(tmp_path, data, {})
    with pytest.raises(SchemaError) as err:
        load_project(path)
    assert str(err.value) == f"{path}: {message}"


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
    for names, message in [
        ({"source": "zz", "target": "b"}, "'source': project declares no instance zz"),
        ({"source": "a", "target": "zz"}, "'target': project declares no instance zz"),
        ({"source": "a", "target": "b", "extras": ["c", "zz"]},
         "'extras' entry: project declares no instance zz"),
    ]:
        path.write_text(json.dumps(names), encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_interpretation_file(path, example1)
        assert str(err.value) == f"{path}: {message}"


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
    assert q1["image"] == [("e1", "o1"), ("e3", "o2")]


def test_violation_serialization(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp_bad.json")
    m = alpha_star(it, arrow)
    data = morphism_to_json(m, satisfies(alpha_star(it, arrow)))
    assert data["satisfied"] is False
    assert data["violations"] == [{"operation": "q_1", "row": (132, "opera")}]


def test_kernel_serialization():
    k = FluxKernel([frozenset({(1,), (NULL,)})])
    assert kernel_to_json(k) == {"members": [[()], [(NULL,), (1,)]]}


def test_saturation_serialization(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp.json")
    data = saturation_to_json(saturate(it, arrow))
    assert data["counts"] == {"extras": 3, "skipped": 0}
    first = data["extras"][0]
    assert first["op"] == "q_1"
    assert first["b"] == (132, "music")
    assert first["perturbation"] == [
        {"function": "f1", "args": (132,), "value": "music"}
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


def fixture_payloads():
    """Every kind of payload that the commands build, over each fixture
    project of the golden record: per instance, its file, its vector
    flattening and its validation report; per mapping, its arrow, and per
    interpretation that it runs under, the morphism, both kernels, the
    saturation and each operation's p-function."""
    for example in EXAMPLES:
        project = load_example(example)
        for name in project.instances:
            inst = project.instance(name)
            yield instance_to_json(inst)
            yield instance_to_json(parse_database(inst))
            report = validate_instance(inst, inst.schema.constraints, project.domain)
            yield validation_to_json(report)
        for mapping in project.mappings:
            arrow = compile_project_mapping(project, mapping)
            yield arrow_to_json(arrow)
            for path in sorted((FIXTURES / example).glob("interp*.json")):
                try:
                    it = load_interpretation_file(path, project)
                    morphism = alpha_star(it, arrow)
                    yield morphism_to_json(morphism, satisfies(morphism))
                    yield kernel_to_json(flux_kernel(morphism))
                    sat = saturate(it, arrow)
                except DbmorphError:  # no morphism, or none that saturates
                    continue
                yield saturation_to_json(sat)
                yield kernel_to_json(flux_kernel(sat))
                for k in range(1, len(arrow.operations) + 1):
                    yield pfunction_to_json(derive_pfunction(sat, k))


def test_payloads_are_plain_json_data():
    """A payload holds rows as the library does, and ``json.dumps`` writes
    it as ``canonical_json`` does: no value needs converting first."""
    kinds = Counter()
    for data in fixture_payloads():
        want = json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert canonical_json(data) == want
        kinds[frozenset(data)] += 1
    # every payload builder ran, on more than one input each
    assert len(kinds) == 7 and min(kinds.values()) > 1


def plain_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def count_calls(monkeypatch, *names) -> Counter:
    """How many times each of the named globals of ``dbmorph.project`` is
    called from here on."""
    calls = Counter()
    for name in names:
        def counted(*args, name=name, call=getattr(project_module, name)):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(project_module, name, counted)
    return calls


int_values = st.one_of(st.integers(-3, 3), huge_ints)
# near misses of the shape templates: strings (a "%" among them), NULL and
# booleans among the ints
near_values = st.one_of(int_values, st.sampled_from(["", "a", "%d", "é\n"]), st.none(), st.booleans())


@st.composite
def pfunctions(draw):
    """P-functions of every shape the writer meets.  A third of them are
    products, as ``derive_pfunction`` builds: the argument tuples, lists
    or tuples, run over every choice of one row per place, so that they
    share each place's row objects, among them lists, and strings, NULL or
    booleans may be among the values.  A third have int arguments of one
    width >= 1 per place and int rows of one width.  The others may hold
    near misses: string, NULL or boolean values, argument tuples of two
    shapes, places or rows of width 0, row sets with rows of two widths."""
    kind = draw(st.sampled_from(["product", "ints", "near"]))
    if kind == "product":
        values = draw(st.sampled_from([int_values, near_values]))
        row = st.integers(0, 3).flatmap(lambda w: st.tuples(*[values] * w))
        places = draw(st.lists(st.lists(st.one_of(row, row.map(list)), min_size=1, max_size=3), max_size=3))
        rows = st.one_of(st.just(frozenset()), st.frozensets(row, max_size=3))
        tuples = st.sampled_from([tuple, list])
        graph = [(draw(tuples)(args), draw(rows)) for args in itertools.product(*places)]
        count = len(places)
    else:
        if kind == "ints":
            arg_values = row_values = int_values
            shapes = [draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
            widths = [draw(st.integers(1, 4))]
        else:
            arg_values = draw(st.sampled_from([int_values, near_values]))
            row_values = draw(st.sampled_from([int_values, near_values]))
            shapes = draw(st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=2))
            widths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
        args = st.one_of(*[st.tuples(*[st.tuples(*[arg_values] * w) for w in shape]) for shape in shapes])
        rows = st.frozensets(st.one_of(*[st.tuples(*[row_values] * w) for w in widths]), max_size=3)
        graph = draw(st.lists(st.tuples(args, st.one_of(st.just(frozenset()), rows)), max_size=8))
        count = len(shapes[0])
    texts = st.text(max_size=3)
    domain = draw(st.tuples(*[st.tuples(texts, st.booleans(), st.booleans()) for _ in range(count)]))
    return PFunction(draw(texts), domain, draw(texts), tuple(graph))


def pfunction_of(*graph):
    return PFunction("f_q", (("R", False, False),), "T", graph)


@settings(max_examples=400, deadline=None)
@given(pfunctions())
@example(pfunction_of((((1, 2),), frozenset({(3,), (1,)}))))
@example(pfunction_of((((1,),), frozenset({(1,), (2, 3)}))))  # ragged rows
@example(pfunction_of((((1,),), frozenset({()}))))  # a row of width 0
@example(pfunction_of((((True,),), frozenset())))
# equal rows, and equal hashes, of different texts
@example(pfunction_of((((1, 2),), frozenset()), (((True, 2),), frozenset({(True, 2), (1, 3)}))))
@example(PFunction("f", (), "T", (((), frozenset({(1,)})),)))  # no places
@example(PFunction("f", (), "T", (((), frozenset({(1,)})), ((), frozenset()), ([], frozenset({("a",), (None,)})))))
def test_a_pfunction_is_written_as_its_plain_data(pf):
    """The CLI writes a p-function by ``canonical_json(pf)`` (``cli._emit``):
    the bytes ``json.dumps`` writes of ``pfunction_to_json(pf)``."""
    assert canonical_json(pf) == plain_dumps(pfunction_to_json(pf))


def fixture_pfunctions():
    """Every p-function of the fixture projects, with its project's name."""
    for example in EXAMPLES:
        project = load_example(example)
        for mapping in project.mappings:
            arrow = compile_project_mapping(project, mapping)
            for path in sorted((FIXTURES / example).glob("interp*.json")):
                try:
                    sat = saturate(load_interpretation_file(path, project), arrow)
                except DbmorphError:
                    continue
                for k in range(1, len(arrow.operations) + 1):
                    yield example, derive_pfunction(sat, k)


def test_the_fixture_pfunctions_are_written_from_their_graphs():
    """Each fixture graph, whatever its values, is written by
    ``_graph_text``; the property test above covers the generic writer."""
    written = []
    for _, pf in fixture_pfunctions():
        assert canonical_json(pf) == plain_dumps(pfunction_to_json(pf))
        written.append(project_module._graph_text(pf.graph, "  ") is not None)
    assert written and all(written)


def test_a_graph_is_written_at_the_cost_of_its_rows(monkeypatch):
    """Writing the ``join`` p-functions runs the generic writer at most
    once per distinct argument row object, plus a constant: the payload
    around the graph and the rows of its row sets, which hold strings.
    More entries over the same argument rows, with no rows, add no run."""
    calls = Counter()
    generic = project_module._write_json

    def counted(value, indent, chunks):
        calls["runs"] += 1
        generic(value, indent, chunks)

    monkeypatch.setattr(project_module, "_write_json", counted)

    def runs(pf) -> int:
        canonical_json(pf)  # the templates are cached from here on
        calls.clear()
        assert canonical_json(pf) == plain_dumps(pfunction_to_json(pf))
        return calls["runs"]

    pfs = [pf for example, pf in fixture_pfunctions() if example == "join"]
    assert len(pfs) == 2
    for pf in pfs:
        distinct = len({id(row) for args, _ in pf.graph for row in args})
        rows = sum(len(rs) for _, rs in pf.graph)
        assert distinct < len(pf.graph)
        assert runs(pf) <= distinct + rows + 20
        more = pf.graph + tuple((args, frozenset()) for args, _ in pf.graph) * 3
        assert runs(replace(pf, graph=more)) == runs(pf)


def test_int_rows_are_written_at_the_cost_of_their_list(monkeypatch):
    """A list of rows of ints, as lists, tuples or both, is written with one
    row template: the generic writer runs for the payload and the list, not
    per row.  So are the argument rows and the row sets of a p-function's
    graph whose values are all ints, its argument rows lists or tuples:
    the writer's runs do not grow with the graph."""
    calls = count_calls(monkeypatch, "_write_json")
    for rows in ([[1, 2], [3, 4]] * 5, [(1, 2), (3, 4)] * 5, [[1, 2], (3, 4)] * 5):
        canonical_json({"rows": rows})  # the row template is cached from here on
        calls.clear()
        assert canonical_json({"rows": rows}) == plain_dumps({"rows": rows})
        assert calls == {"_write_json": 2}

    def runs(pf) -> int:
        canonical_json(pf)  # the templates are cached from here on
        calls.clear()
        assert canonical_json(pf) == plain_dumps(pfunction_to_json(pf))
        return calls["_write_json"]

    pfs = [pf for example, pf in fixture_pfunctions() if example == "ints"]
    assert max(len(pf.graph) for pf in pfs) > 2
    for pf in pfs:
        mixed = tuple((list(a) if i % 2 else a, rs) for i, (a, rs) in enumerate(pf.graph))
        assert runs(pf) == runs(replace(pf, graph=mixed)) == runs(replace(pf, graph=pf.graph[:1]))


@st.composite
def saturations(draw):
    """Saturated morphisms of every shape the writer meets.  Half of them
    have int values in every row and perturbation, the payloads the
    templates write; the others may hold near misses: string, NULL or
    boolean values.  Triggers have up to three places of width 0 to 3,
    outputs width 0 to 3, and perturbations up to two demands, whose
    arguments may be empty; there may be no extras and there may be
    skips.  Only the fields that ``saturation_to_json`` reads are set."""
    values = int_values if draw(st.booleans()) else near_values
    texts = st.text(max_size=3)
    rows = st.integers(0, 3).flatmap(lambda w: st.tuples(*[values] * w))
    triggers = st.lists(rows, max_size=3).map(tuple)
    demand = st.tuples(st.tuples(texts, rows), values)
    extras = st.lists(
        st.builds(
            ExtraFunction,
            component=st.none(),
            op_index=st.integers(1, 12),
            op_name=texts,
            trigger=triggers,
            output=rows,
            perturbation=st.lists(demand, max_size=2).map(tuple),
        ),
        max_size=6,
    )
    skipped = st.lists(
        st.builds(SkippedCandidate, st.integers(1, 12), texts, triggers, rows, texts), max_size=3
    )
    base = SimpleNamespace(arrow=SimpleNamespace(name=draw(texts)))
    return SaturatedMorphism(base, tuple(draw(extras)), tuple(draw(skipped)))


def saturation_of(*extras, skipped=()):
    return SaturatedMorphism(SimpleNamespace(arrow=SimpleNamespace(name="m")), extras, skipped)


def extra_of(trigger, output, *perturbation):
    return ExtraFunction(None, 1, "q_1", trigger, output, perturbation)


@settings(max_examples=400, deadline=None)
@given(saturations())
@example(saturation_of())  # no extras
@example(saturation_of(extra_of(((1, 2), (3,)), (1, 4), (("f", (1,)), 4), (("g", (3, 2)), 5))))
@example(saturation_of(extra_of(((), (1,)), (), (("f", ()), 1))))  # rows of width 0
@example(saturation_of(extra_of(((1,),), (1, "%d"), (("f", (1,)), "%d"))))
@example(saturation_of(ExtraFunction(None, 1, "%d", ((1,),), (1,), ((("%s", (1,)), 2),))))
@example(saturation_of(extra_of(((1,),), (1, 2), (("f", (1,)), None))))  # a NULL value
@example(saturation_of(extra_of(((True,),), (1,)), skipped=(SkippedCandidate(1, "q", ((1,),), (2,), "r"),)))
def test_a_saturation_is_written_as_its_plain_data(sat):
    """The CLI writes a saturation by ``canonical_json(sat)`` (``cli._emit``):
    the bytes ``json.dumps`` writes of ``saturation_to_json(sat)``."""
    assert canonical_json(sat) == plain_dumps(saturation_to_json(sat))


def test_the_fixture_saturations_are_written_from_their_extras():
    written = []
    for example in EXAMPLES:
        project = load_example(example)
        for mapping in project.mappings:
            arrow = compile_project_mapping(project, mapping)
            for path in sorted((FIXTURES / example).glob("interp*.json")):
                try:
                    sat = saturate(load_interpretation_file(path, project), arrow)
                except DbmorphError:
                    continue
                assert canonical_json(sat) == plain_dumps(saturation_to_json(sat))
                written.append(project_module._extras_text(sat.extras, "  ") is not None)
    # both the templates and the generic writer are taken
    assert any(written) and not all(written)


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


def interpretation_of(entries, default="o9"):
    return {"source": "a", "target": "b", "skolem": {"f1": {"entries": entries, "default": default}}}


@st.composite
def interpretation_documents(draw):
    """An interpretation of example1 whose skolem entries and domain hold
    up to two faults: args that are no row, a value or an argument that is
    no domain value, or an entry that is no [args, value] pair; and whose
    table's default may be no domain value, a fault reported after every
    fault of the table's entries."""
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
    data = interpretation_of(entries, draw(st.sampled_from(["o9", *BAD_VALUES])))
    if draw(st.booleans()):
        data["domain"] = draw(planted([draw(st.lists(plain_values, max_size=4))]))[0]
    return data


def skolem_tables(it):
    return {name: (t.entries, t.default) for name, t in it.skolem.items()}, it.domain


@settings(max_examples=300, deadline=None)
@given(interpretation_documents())
# a conflicting duplicate, then a bad value: the value is reported
@example(interpretation_of([[["e1"], "o1"], [["e1"], "o2"], [["e2"], 1.5]]))
# a bad value, then an entry that is no pair: the value is reported
@example(interpretation_of([[["e1"], "o1"], [["e2"], True], "pair"]))
# a bad value and bad args in one pair: the value is reported
@example(interpretation_of([[["e1"], "o1"], [["e2", 1.5], True]]))
# a conflicting duplicate and a bad default: the duplicate is reported
@example(interpretation_of([[["e1"], "o1"], [["e1"], "o2"]], default=[1]))
def test_bulk_interpretation_loading_is_the_per_value_loader(example1, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(tmp, "interp.json", data)
        got = outcome(load_interpretation_file, path, example1)
        want = outcome(project_oracle.load_interpretation_file, path, example1)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert skolem_tables(got) == skolem_tables(want)


def test_an_instance_is_loaded_over_its_schemas_symbols(monkeypatch):
    """Loading an instance file over its schema builds no ``RelationSymbol``
    and formats no located text when every relation's columns are the
    schema's: each relation is built over the schema's own symbol.  A
    relation whose columns differ builds one, and is refused."""
    projects = [load_example(example) for example in EXAMPLES]
    calls = count_calls(monkeypatch, "RelationSymbol", "_columns", "_arrays")
    loaded = 0
    for project in projects:
        for name in project.instances:
            inst = project.instance(name)
            for rel, relation in inst.relations.items():
                assert relation.symbol is inst.schema.symbols[rel]
            loaded += 1
    assert calls == {} and loaded > 20
    data = {"relations": {"p": {"columns": ["c2", "c1"], "rows": []}}}
    with pytest.raises(SchemaError, match="relation p disagrees with the schema's columns"):
        load_instance(data, sample_schema())
    assert calls == {"RelationSymbol": 1, "_columns": 1, "_arrays": 1}


def test_sound_interpretations_and_members_are_checked_in_bulk(monkeypatch):
    """The skolem tables of a sound interpretation file and the rows of a
    sound member file pass one class test each: no pair or row of them is
    checked on its own."""
    projects = {example: load_example(example) for example in EXAMPLES}
    calls = count_calls(monkeypatch, "_arrays", "check_values")
    tables = 0
    for example, project in projects.items():
        for path in sorted((FIXTURES / example).glob("interp*.json")):
            try:
                tables += len(load_interpretation_file(path, project).skolem)
            except DbmorphError:
                continue
            assert calls["_arrays"] == 0
    assert tables > 10
    with tempfile.TemporaryDirectory() as tmp:  # a table of every value class
        path = write_json(tmp, "interp.json", interpretation_of([[[1], "o1"], [["e1"], None]]))
        load_interpretation_file(path, projects["example1"])
    assert calls["_arrays"] == 0
    members = sorted((FIXTURES / "example1").glob("member_*.json"))
    for path in members:
        calls.clear()
        load_member_file(path)
        assert calls == {"_arrays": 1, "check_values": 1}
    assert len(members) == 5


def test_a_project_file_is_checked_without_located_texts(monkeypatch):
    """Loading a project file whose entries and column lists are sound runs
    none of the checks that format a located text per field or per
    relation; a faulty entry does, and is refused."""
    calls = count_calls(monkeypatch, "_entry_field", "_columns")
    for example in EXAMPLES:
        load_example(example)
    assert calls == {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "project.json"
        path.write_text(json.dumps(mini_project()), encoding="utf-8")
        load_project(path)
        assert calls == {}
        data = mini_project()
        data["mappings"]["m"]["target"] = "ZZ"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match="mapping m: project declares no schema ZZ"):
            load_project(path)
    assert calls == {"_entry_field": 2}


# ---------------------------------------------------------------------------
# reading input files, and project files, against the readers and the
# project loader as they stood before (tests/project_oracle.py)

BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf0\x9f\x98"]
# strings whose JSON text holds escapes: unpaired surrogates of either half,
# a surrogate pair, control characters, a quote and a backslash
ESCAPED = ["\ud800", "x\udfffy", "\U0001f600", "é", "\t\"\\", "\x00\x1f"]


@st.composite
def input_bytes(draw):
    """The bytes of an input file: mostly JSON text, with non-ASCII
    characters as ``\\u`` escapes or as UTF-8, whose lines end in LF, CR LF
    or a lone CR, drawn per line, with perhaps a raw CR at a drawn offset,
    a UTF-8 BOM in front and an invalid byte at a drawn offset; or any
    bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=24))
    strings = st.one_of(st.sampled_from(ESCAPED), st.text(max_size=4))
    items = st.one_of(st.integers(-2, 2), strings, st.lists(strings, max_size=2))
    doc = draw(st.lists(items, max_size=4))
    ascii_only = draw(st.booleans())
    text = json.dumps(doc, ensure_ascii=ascii_only, indent=draw(st.sampled_from([None, 0, 2])))
    lines = text.split("\n")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    data = text.encode("utf-8", "surrogatepass")  # a raw surrogate is no UTF-8
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


def read(load, path):
    """What ``load(path)`` returns, as its ``repr``, which tells ``1`` from
    ``1.0`` and ``True``, or the type and message of its error."""
    try:
        return repr(load(path))
    except DbmorphError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(input_bytes())
@example(b'\xef\xbb\xbf[1]\r\n')
@example(b'[1,\r\r\n2,\r"a"\r\n}')  # a JSON fault after a lone CR and a CR LF
@example(b'["\\ud800"]\r\n')  # an unpaired surrogate
@example(b'["\\ud83d\\ude00", "\\n"]')  # a pair, and an escape that is none
@example(b'["a\\n"]\r\n')  # a backslash and no \u escape
@example(b'[\r\r\n"\xff"]')  # an invalid byte after a lone CR
@example(b'["\r"]')  # a raw CR in a string: a control character
def test_an_input_file_is_read_as_text_mode_reads_it(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        for reader in ("_read_text", "_read_json"):
            got = read(getattr(project_module, reader), path)
            assert got == read(getattr(project_oracle, reader), path), reader


PROJECT_DOCUMENT = {
    "domain": [0, "a"],
    "schemas": {
        "A": {
            "relations": {"p": ["c1"], "q": ["c1", "c2"]},
            "constraints": "forall x . p(x) -> q(x, x)",
        },
        "B": {"relations": {"s": ["c1"]}},
    },
    "instances": {"a": {"schema": "A", "file": "a.json"}, "b": {"schema": "B", "file": "b.json"}},
    "mappings": {
        "m": {"source": "A", "target": "B", "file": "m.map"},
        "n": {"source": "B", "target": "B", "file": "n.map"},
    },
    "graph": [["A", "B", "m"], ["B", "B", "n"]],
}
WRONG_KINDS = [None, True, 1, 1.5, "s", [], {}, ["s"], {"s": "t"}]
# names a project declares or not, column lists and graph edges that are
# malformed or whose names are not declared, relation names of no symbol
NAMES = ["A", "B", "ZZ", "m", "n", "zz", ""]
COLUMN_FAULTS = [[], ["c1", "c1"], ["c1", 2], ["c1", None], [""]]
EDGE_FAULTS = [
    ["A", "B"], ["A", "B", "m", "m"], ["A", 1, "m"], ["B", "A", "m"], ["A", "B", "zz"],
    ["ZZ", "B", "m"], ["A", "ZZ", "m"], ["A", "B", "n"], "A B m", [None, None, None],
]
RELATION_NAMES = ["", "r_∅", "p"]


def sites(value, at=()):
    """The place of every value inside ``value``, each dict value and list
    item, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, item in items:
        yield (*at, key)
        yield from sites(item, (*at, key))


def with_fault(doc, at, fault):
    """A copy of ``doc`` with the value at ``at`` replaced by ``fault``, or
    its key dropped when ``fault`` is ``DROP``, or renamed when ``fault``
    is ``RENAME`` and a name."""
    doc = json.loads(json.dumps(doc))
    if not at:
        return fault
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if fault is DROP:
        del parent[at[-1]]
    elif isinstance(fault, tuple):  # (RENAME, name)
        parent[fault[1]] = parent.pop(at[-1])
    else:
        parent[at[-1]] = fault
    return doc


DROP, RENAME = object(), object()


def loaded(load, path):
    try:
        return load(path)
    except DbmorphError as exc:
        return type(exc), str(exc)


def assert_project_loads_as_before(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "project.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        got = loaded(load_project, path)
        assert got == loaded(project_oracle.load_project, path)
    return got


def test_every_single_fault_of_a_project_file_is_located_as_before():
    """A value of each wrong JSON kind at each place of a project file, or
    its key dropped, loads as the project loader that formatted a located
    text for every entry loaded it: to the same error."""
    assert isinstance(assert_project_loads_as_before(PROJECT_DOCUMENT), project_module.Project)
    places = [(), *sites(PROJECT_DOCUMENT)]
    messages = set()
    for at in places:
        faults = WRONG_KINDS + ([DROP] if at and not isinstance(at[-1], int) else [])
        for fault in faults:
            got = assert_project_loads_as_before(with_fault(PROJECT_DOCUMENT, at, fault))
            if isinstance(got, tuple):
                messages.add(got[1].partition("project.json")[2])
    assert len(messages) > 100


@st.composite
def project_documents(draw):
    """``PROJECT_DOCUMENT`` with up to three faults at drawn places: a value
    of a wrong JSON kind, a name, a faulty column list or graph edge, a
    dropped key, or a relation renamed to a name that no symbol takes."""
    doc = PROJECT_DOCUMENT
    for _ in range(draw(st.integers(0, 3))):
        places = list(sites(doc))
        if not places:
            break
        at = draw(st.sampled_from(places))
        kind = draw(st.sampled_from(["kind", "name", "columns", "edge", "drop", "rename"]))
        if kind == "kind":
            fault = draw(st.sampled_from(WRONG_KINDS))
        elif kind == "name":
            fault = draw(st.sampled_from(NAMES))
        elif kind == "columns":
            fault = draw(st.sampled_from(COLUMN_FAULTS))
        elif kind == "edge":
            fault = draw(st.sampled_from(EDGE_FAULTS))
        elif isinstance(at[-1], int):
            continue
        elif kind == "drop":
            fault = DROP
        else:
            fault = (RENAME, draw(st.sampled_from(RELATION_NAMES)))
        doc = with_fault(doc, at, fault)
    return doc


@settings(max_examples=400, deadline=None)
@given(project_documents())
@example(with_fault(PROJECT_DOCUMENT, ("schemas", "A", "relations", "q"), ["c1", "c1"]))
@example(with_fault(PROJECT_DOCUMENT, ("schemas", "B", "relations", "s"), []))
@example(with_fault(PROJECT_DOCUMENT, ("instances", "b", "schema"), "ZZ"))
@example(with_fault(PROJECT_DOCUMENT, ("mappings", "m", "target"), "ZZ"))
@example(with_fault(with_fault(PROJECT_DOCUMENT, ("mappings", "m", "target"), "ZZ"),
                    ("mappings", "m", "file"), 1))  # the schema is named first
@example(with_fault(PROJECT_DOCUMENT, ("graph", 1), ["A", "B", "n"]))
@example(with_fault(PROJECT_DOCUMENT, ("schemas", "A", "relations", "p"), (RENAME, "r_∅")))
def test_a_project_file_loads_as_before(doc):
    """Each drawn project file loads as the project loader that formatted a
    located text for every entry loaded it: to an equal ``Project``, or to
    the same error."""
    assert_project_loads_as_before(doc)
