"""Saturation: alternative skolem outcomes and set-valued p-functions."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from dbmorph import (
    FluxKernel,
    FunctionTable,
    PreconditionError,
    RelationSymbol,
    SaturatedMorphism,
    Schema,
    SchemaError,
    TarskiInterpretation,
    alpha_star,
    compile_source,
    derive_pfunction,
    flux_equal,
    flux_kernel,
    saturate,
)
from dbmorph.flux import EQUAL, UNEQUAL, flux_positions
from dbmorph import interp, logic, model, saturation
from dbmorph.model import EMPTY_NAME, NULL, row_key
from dbmorph.saturation import _selector

import law_oracle
import saturation_oracle as oracle
from interp_oracle import component_assignment
from conftest import arrow_and_interp, build_instance, count_index_builds, load_example

CONTACT = (132, "Zoran", "Majkic", "Appia", "0187")


@pytest.fixture(scope="module")
def hobby(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp.json")
    return arrow, it, saturate(it, arrow)


def simple_setup(mapping_text, source_rows, target_rows, skolem=None, target_syms=None):
    a = Schema("A", [RelationSymbol("r", ("c1",)), RelationSymbol("r2", ("c1", "c2"))])
    b = Schema(
        "B",
        target_syms
        or [
            RelationSymbol("s", ("c1",)),
            RelationSymbol("s2", ("c1", "c2")),
            RelationSymbol("s3", ("c1", "c2", "c3")),
        ],
    )
    arrow = compile_source(mapping_text, a, b)
    it = TarskiInterpretation(
        build_instance(a, source_rows),
        build_instance(b, target_rows),
        {name: FunctionTable(name, entries) for name, entries in (skolem or {}).items()},
    )
    return arrow, it


# ---------------------------------------------------------------------------
# selections


def selection(it, op, produced):
    """The sorted target rows that agree with ``produced`` at the
    simple-variable head positions when there are two or more of them, the
    produced row among them; None when it has no alternative."""
    key, kept = _selector(it, op)
    return kept.get(key(produced))


def test_extension_relation_drops_the_produced_row(hobby):
    arrow, it, sat = hobby
    op = arrow.operations[0]
    produced = sat.base.component(op.name).apply((CONTACT,))
    full = selection(it, op, produced)
    assert full == [(132, "art"), (132, "music"), (132, "photography"), (132, "travel")]
    assert frozenset(full) - {produced} == frozenset(
        {(132, "music"), (132, "photography"), (132, "travel")}
    )


def test_selection_agrees_on_every_simple_position(example1):
    arrow, it = arrow_and_interp(example1, "example1", "m_bc", "interp_bc.json")
    op = arrow.operations[0]
    produced = alpha_star(it, arrow).component(op.name).apply((("e1",), ("e1",)))
    assert produced == ("e1", "o1")
    # only (e1, o1) matches e1 at the first position: it has no alternative
    assert it.target.rows("Office") == frozenset({("e1", "o1"), ("e3", "o2")})
    assert selection(it, op, produced) is None
    # one more row at e1 makes a group of two, sorted
    widened = TarskiInterpretation(
        it.source,
        build_instance(it.target.schema, {"Office": [("e3", "o2"), ("e1", "o1"), ("e1", "o0")]}),
        it.skolem,
        it.extras,
    )
    assert selection(widened, op, produced) == [("e1", "o0"), ("e1", "o1")]
    assert selection(widened, op, ("e3", "o2")) is None


def test_only_groups_with_an_alternative_are_kept():
    arrow, it = simple_setup(
        "exists f1 . forall x, y . r2(x, y) -> s2(x, f1(x))",
        {"r2": [(1, 1)]},
        {"s2": [(1, "a"), (1, 2), (1, NULL), (2, "a"), ("b", 3)]},
        skolem={"f1": {(1,): "a"}},
    )
    key, kept = _selector(it, arrow.operations[0])
    # value_key order: NULL, then ints, then strings
    assert kept == {(1,): [(1, NULL), (1, 2), (1, "a")]}
    assert key((1, "a")) == (1,)


# ---------------------------------------------------------------------------
# saturate


def test_hobby_saturation_yields_three_extras(hobby):
    _, _, sat = hobby
    assert len(sat.extras) == 3
    assert sat.skipped == ()
    assert [e.output for e in sat.extras] == [
        (132, "music"),
        (132, "photography"),
        (132, "travel"),
    ]
    first = sat.extras[0]
    assert first.op_index == 1 and first.op_name == "q_1"
    assert first.trigger == (CONTACT,)
    assert first.perturbation == ((("f1", (132,)), "music"),)


def test_extras_deviate_at_the_trigger_only(hobby):
    _, _, sat = hobby
    extra = sat.extras[0]
    assert oracle.apply_extra(extra, (CONTACT,)) == (132, "music")
    assert extra.image() == frozenset({(132, "music")})
    base = sat.base.component("q_1")
    assert base.apply((CONTACT,)) == (132, "art")


def test_saturated_images_follow_the_base_then_the_extras(hobby):
    _, _, sat = hobby
    images = [c.image() for c in sat.base.components] + [e.image() for e in sat.extras]
    assert images[0] == frozenset({(132, "art")})
    assert frozenset({(132, "travel")}) in images[1:]
    assert len(images) == 4


def test_saturation_counts_match_the_extension_relations(hobby):
    arrow, it, sat = hobby
    total = 0
    for op in arrow.operations:
        comp = sat.base.component(op.name)
        for trigger, produced in comp.graph().items():
            if produced == ():
                continue
            total += len(frozenset(selection(it, op, produced) or ()) - {produced})
    assert len(sat.extras) + len(sat.skipped) == total


def test_fully_pinned_heads_saturate_to_nothing(example1):
    arrow, it = arrow_and_interp(example1, "example1", "m_ac", "interp_ac.json")
    sat = saturate(it, arrow)
    assert sat.extras == () and sat.skipped == ()


def test_skolem_free_heads_are_never_candidates():
    arrow, it = simple_setup(
        "forall x, y . r2(x, y) -> s2(x, 5)",
        {"r2": [(1, 2)]},
        {"s2": [(1, 5), (1, 6)]},
    )
    sat = saturate(it, arrow)
    # (1, 6) agrees at the simple position, but there is no skolem to move
    assert sat.extras == () and sat.skipped == ()


def test_conflicting_skolem_demands_are_skipped():
    arrow, it = simple_setup(
        "exists f1 . forall x . r(x) -> s2(f1(x), f1(x))",
        {"r": [(1,)]},
        {"s2": [("a", "a"), ("a", "b"), ("b", "b")]},
        skolem={"f1": {(1,): "a"}},
    )
    sat = saturate(it, arrow)
    assert [e.output for e in sat.extras] == [("b", "b")]
    assert sat.extras[0].perturbation == ((("f1", (1,)), "b"),)
    (skip,) = sat.skipped
    assert skip.candidate == ("a", "b")
    assert skip.reason == "skolem f1 would need two values at one point"
    assert skip.op_name == "q_1" and skip.trigger == ((1,),)


def test_perturbations_order_mixed_arguments_by_value_key():
    arrow, it = simple_setup(
        "exists f1 . forall x, y . r2(x, y) -> s2(f1(x), f1(y))",
        {"r2": [(1, "a")]},
        {"s2": [("p", "q"), ("p2", "q2")]},
        skolem={"f1": {(1,): "p", ("a",): "q"}},
    )
    (extra,) = saturate(it, arrow).extras
    assert extra.perturbation == ((("f1", (1,)), "p2"), (("f1", ("a",)), "q2"))


def test_perturbations_are_sorted_whatever_the_head_order():
    # the head demands f2 before f1, and f1 at ("a",) before f1 at (1,)
    arrow, it = simple_setup(
        "exists f1, f2 . forall x, y . r2(x, y) -> s3(f2(x), f1(y), f1(x))",
        {"r2": [(1, "a")]},
        {"s3": [("u", "q", "p"), ("u2", "q2", "p2")]},
        skolem={"f1": {(1,): "p", ("a",): "q"}, "f2": {(1,): "u"}},
    )
    (extra,) = saturate(it, arrow).extras
    assert extra.perturbation == (
        (("f1", (1,)), "p2"), (("f1", ("a",)), "q2"), (("f2", (1,)), "u2")
    )


def test_constant_positions_cannot_be_reassigned():
    arrow, it = simple_setup(
        "exists f1 . forall x . r(x) -> s3(x, 5, f1(x))",
        {"r": [(1,)]},
        {"s3": [(1, 5, "a"), (1, 5, "b"), (1, 6, "b")]},
        skolem={"f1": {(1,): "a"}},
    )
    sat = saturate(it, arrow)
    assert [e.output for e in sat.extras] == [(1, 5, "b")]
    (skip,) = sat.skipped
    assert skip.candidate == (1, 6, "b")
    assert skip.reason == "head position 2 is not a skolem term and cannot be reassigned"


@pytest.mark.parametrize(
    "head, produced, reason",
    [
        (
            "s3(f1(x), 5, f1(x))",
            ("a", 5, "a"),
            "head position 2 is not a skolem term and cannot be reassigned",
        ),
        (
            "s3(f1(x), f1(x), 5)",
            ("a", "a", 5),
            "skolem f1 would need two values at one point",
        ),
    ],
    ids=["constant-first", "skolem-first"],
)
def test_a_skip_names_the_first_position_that_does_not_fit(head, produced, reason):
    # ("b", 6, "c") fails at positions 2 and 3 of either head
    arrow, it = simple_setup(
        f"exists f1 . forall x . r(x) -> {head}",
        {"r": [(1,)]},
        {"s3": [produced, ("b", 6, "c")]},
        skolem={"f1": {(1,): "a"}},
    )
    sat = saturate(it, arrow)
    assert sat.extras == ()
    assert [(k.candidate, k.reason) for k in sat.skipped] == [(("b", 6, "c"), reason)]


def test_saturate_requires_satisfaction(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp_bad.json")
    with pytest.raises(PreconditionError) as err:
        saturate(it, arrow)
    assert "q_1" in str(err.value)


# ---------------------------------------------------------------------------
# p-functions


def test_pfunction_of_the_hobby_mapping(hobby):
    _, _, sat = hobby
    pf = derive_pfunction(sat, 1)
    assert pf.name == "f_q_1"
    assert pf.codomain == "Hobbies"
    ((args, outputs),) = pf.graph
    assert args == (CONTACT,)
    assert outputs == frozenset(
        {(132, "art"), (132, "music"), (132, "photography"), (132, "travel")}
    )


def test_pfunction_index_bounds(hobby):
    _, _, sat = hobby
    with pytest.raises(SchemaError):
        derive_pfunction(sat, 0)
    with pytest.raises(SchemaError):
        derive_pfunction(sat, 2)


def test_pfunction_is_empty_where_every_member_fails(example1):
    arrow, it = arrow_and_interp(example1, "example1", "m_bc", "interp_bc.json")
    sat = saturate(it, arrow)
    pf = derive_pfunction(sat, 1)
    graph = dict(pf.graph)
    assert graph[(("e1",), ("e3",))] == frozenset()
    assert graph[(("e1",), ("e1",))] == frozenset({("e1", "o1")})


def test_pfunction_unions_operations_with_shared_shape():
    arrow, it = simple_setup(
        "forall x1, x2 . r2(x1, x2) -> s(x1) && forall x1, x2 . r2(x1, x2) -> s(x2)",
        {"r2": [(1, 2)]},
        {"s": [(1,), (2,)]},
    )
    sat = saturate(it, arrow)
    pf = derive_pfunction(sat, 1)
    ((args, outputs),) = pf.graph
    assert args == ((1, 2),)
    assert outputs == frozenset({(1,), (2,)})


# ---------------------------------------------------------------------------
# flux invariance


def test_saturation_leaves_the_kernel_alone(hobby):
    _, it, sat = hobby
    assert flux_kernel(sat).members == flux_kernel(sat.base).members


@pytest.mark.parametrize(
    "example,mapping,interp",
    [
        ("example1", "m_bc", "interp_bc.json"),
        ("example1", "m_ac", "interp_ac.json"),
        ("example3", "m_ab", "interp.json"),
        ("example4", "m_ab", "interp.json"),
    ],
)
def test_flux_invariance_of_the_examples(request, example, mapping, interp):
    project = request.getfixturevalue(example)
    arrow, it = arrow_and_interp(project, example, mapping, interp)
    report = law_oracle.check_flux_invariance(it, arrow)
    assert report.ok, report.failures
    assert report.failures == ()


# ---------------------------------------------------------------------------
# cost


def test_saturate_reads_each_target_relation_once(monkeypatch):
    r, r2 = [(1,), (2,), (3,)], [(1, 1), (1, 2), (2, 1), (3, 3)]
    arrow, it = simple_setup(
        "exists f1, f2 . forall x, y . r2(x, y) -> s2(x, f1(x, y))"
        " && forall x . r(x) -> s3(x, x, f2(x)) && forall x . r(x) -> s(x)",
        {"r": r, "r2": r2},
        {
            "s": r,
            "s2": [(1, "a"), (1, "b"), (2, "a"), (3, "a")],
            "s3": [(1, 1, "a"), (2, 2, "a"), (2, 2, "b"), (3, 3, "a")],
        },
        skolem={"f1": dict.fromkeys(r2, "a"), "f2": dict.fromkeys(r, "a")},
    )
    builds = count_index_builds(monkeypatch)
    sat = saturate(it, arrow)
    assert len(sat.extras) == 3
    # seven triggers, but one index per skolem-headed operation, at its
    # simple-variable head positions
    reads = Counter({key: n for key, n in builds.items() if key[0] in it.target.schema})
    assert reads == Counter({("s2", (0,)): 1, ("s3", (0, 1)): 1})


def test_a_saturate_of_the_join_fixture_indexes_each_relation_once(monkeypatch):
    # both operations join R(x, y) & S(y, z): R is sorted and S grouped by
    # its first column once, not once per operation, and the targets are
    # grouped at the simple-variable head positions; a sort or grouping of
    # a whole relation is counted in whichever module asks for it
    arrow, it = arrow_and_interp(load_example("join"), "join", "m", "interp.json")
    names = {
        rel.rows: name
        for inst in (it.source, it.target)
        for name, rel in inst.relations.items()
        if name != EMPTY_NAME
    }
    builds = Counter()

    def counted(fn):
        # a sort of the whole relation counts as its index at no positions
        def wrapper(rows, *positions):
            rows = list(rows)
            if frozenset(rows) in names:
                builds[names[frozenset(rows)], tuple(positions[0]) if positions else ()] += 1
            return fn(rows, *positions)

        return wrapper

    for module in (model, interp, saturation, logic):
        for name in ("sort_rows", "group_rows"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    assert len(saturate(it, arrow).extras) == 9
    assert builds == Counter({("R", ()): 1, ("S", (0,)): 1, ("T", (0, 1)): 1, ("U", (0,)): 1})


# ---------------------------------------------------------------------------
# the scan, the full-graph images and the per-member p-function as oracle

# (clause, ((skolem symbol, its arity), ...))
ORACLE_CLAUSES = (
    # triggers (x, y) and (x, y') produce one row: preimage count 2
    ("forall x, y . r2(x, y) -> s2(x, f1(x))", (("f1", 1),)),
    # same domain and target as the first: their extras merge in one p-function
    ("forall x, y . r2(x, y) -> s2(y, f2(x, y))", (("f2", 2),)),
    # no simple variable (index key ()), one skolem applied twice (skips)
    ("forall x . r(x) -> s2(f3(x), f3(x))", (("f3", 1),)),
    # head variables in another order than in the body
    ("forall x, y . r2(x, y) -> s3(y, x, f4(x, y))", (("f4", 2),)),
    ("forall x . r(x) -> s(x)", ()),
    # skolem arguments that are no bare variables: a nested application,
    # whose table the first clause shares, and a constant
    ("forall x, y . r2(x, y) -> s2(y, f5(f1(x), 1))", (("f1", 1), ("f5", 2))),
    # the assignment saturation rebuilds from a trigger binds each variable
    # at its first occurrence: two atoms that share a variable, a variable
    # repeated inside one atom, and a negated place
    ("forall x, y, z . r2(x, y) & r2(y, z) -> s2(x, f6(x, z))", (("f6", 2),)),
    ("forall x . r2(x, x) -> s2(x, f7(x))", (("f7", 1),)),
    ("forall x, y . r2(x, y) & not r(y) -> s2(y, f8(x))", (("f8", 1),)),
)
# every skolem symbol of the clauses, with its arity
ORACLE_SKOLEMS = dict(symbol for _, symbols in ORACLE_CLAUSES for symbol in symbols)
ORACLE_VALUES = (0, 1, "a", NULL)


def oracle_case(clauses, source_rows, skolem_values, noise):
    """Mapping text, arrow and satisfying interpretation: the chosen
    clauses, total skolem tables taking ``skolem_values`` in argument order,
    and target relations holding every operation's image plus the ``noise``
    rows."""
    used = [ORACLE_CLAUSES[i] for i in clauses]
    names = dict.fromkeys(f for _, symbols in used for f, _ in symbols)
    text = " && ".join(clause for clause, _ in used)
    if names:
        text = f"exists {', '.join(names)} . {text}"
    skolem = {
        f: dict(zip(itertools.product(ORACLE_VALUES, repeat=ORACLE_SKOLEMS[f]), skolem_values[f]))
        for f in names
    }
    arrow, probe = simple_setup(text, source_rows, noise, skolem)
    target = {name: set(rows) for name, rows in noise.items()}
    for component in alpha_star(probe, arrow).components:
        target.setdefault(component.op.target, set()).update(component.image())
    return (text, *simple_setup(text, source_rows, target, skolem))


@st.composite
def oracle_cases(draw):
    values = st.sampled_from(ORACLE_VALUES)
    clauses = draw(
        st.lists(
            st.integers(0, len(ORACLE_CLAUSES) - 1),
            min_size=1,
            max_size=len(ORACLE_CLAUSES),
            unique=True,
        )
    )
    source_rows = {
        "r": draw(st.frozensets(st.tuples(values), max_size=3)),
        "r2": draw(st.frozensets(st.tuples(values, values), max_size=6)),
    }
    skolem_values = {
        f: [draw(values) for _ in itertools.product(ORACLE_VALUES, repeat=k)]
        for f, k in ORACLE_SKOLEMS.items()
    }
    noise = {
        "s": draw(st.frozensets(st.tuples(values), max_size=2)),
        "s2": draw(st.frozensets(st.tuples(values, values), max_size=8)),
        "s3": draw(st.frozensets(st.tuples(values, values, values), max_size=6)),
    }
    return oracle_case(sorted(clauses), source_rows, skolem_values, noise)


def assert_saturation_matches_the_oracle(arrow, it):
    sat, expected = saturate(it, arrow), oracle.saturate(it, arrow)

    def extras(s):
        return [(e.op_index, e.op_name, e.trigger, e.output, e.perturbation) for e in s.extras]

    def skips(s):
        return [(k.op_index, k.op_name, k.trigger, k.candidate, k.reason) for k in s.skipped]

    assert extras(sat) == extras(expected)
    assert skips(sat) == skips(expected)
    assert [e.image() for e in sat.extras] == [
        oracle.extra_image(e) for e in expected.extras
    ]
    assert flux_kernel(sat).members == oracle.flux_kernel(expected).members
    for op_index in range(1, len(arrow.operations) + 1):
        assert derive_pfunction(sat, op_index) == oracle.derive_pfunction(expected, op_index)
    for component in sat.base.components:
        key, kept = _selector(it, component.op)
        for trigger, produced in component.graph().items():
            if produced != ():
                g = component_assignment(component.op, trigger)
                rows = oracle._selection_rows(it, component.op, g)
                # the rows in value_key order when they hold an alternative
                want = sorted(rows, key=row_key) if len(rows) > 1 else None
                assert kept.get(key(produced)) == want
    return sat


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
# one group whose rows mix ints, strings and NULL: (0, "a") and its
# alternatives (0, NULL) and (0, 1), sorted by value_key
@example(oracle_case([0], {"r2": [(0, 1)]}, {"f1": ["a"] * 4}, {"s2": [(0, 1), (0, NULL)]}))
# every group a single row: no extras, and nothing to sort
@example(
    oracle_case(
        [0, 3],
        {"r2": [(0, 1), (1, 1)]},
        {"f1": ["a"] * 4, "f4": [0] * 16},
        {"s2": [("a", 0)], "s3": [(0, 1, 0)]},
    )
)
def test_saturation_matches_the_scan_oracle(case):
    _, arrow, it = case
    assert_saturation_matches_the_oracle(arrow, it)


def test_the_oracle_cases_reach_every_shape():
    _, arrow, it = oracle_case(
        range(len(ORACLE_CLAUSES)),
        {"r": [(1,)], "r2": [(0, 1), (0, "a")]},
        {
            "f1": [0] * 4,  # q_1 sends both r2 rows to (0, 0)
            "f2": ["a"] * 16,  # q_2 produces (1, "a") and ("a", "a")
            "f3": ["a"] * 4,  # q_3 produces ("a", "a")
            "f4": [1] * 16,
            "f5": ["a"] * 16,  # q_6 produces (1, "a") and ("a", "a"), as q_2 does
            # no r2 row meets another or repeats a value: q_7 and q_8 never
            # fire here, and q_9 produces ("a", "a") at the one y outside r
            "f6": ["a"] * 16,
            "f7": ["a"] * 4,
            "f8": ["a"] * 4,
        },
        {"s2": [(0, 1), ("a", 1), (1, 1)], "s3": [(1, 0, 0)]},
    )
    sat = assert_saturation_matches_the_oracle(arrow, it)
    by_op = Counter(e.op_name for e in sat.extras)
    assert by_op == Counter({"q_1": 2, "q_2": 2, "q_3": 2, "q_4": 1, "q_6": 2, "q_9": 1})
    # q_9's negated place ranges over the active domain outside r
    assert [(e.trigger, e.output, e.perturbation) for e in sat.extras if e.op_name == "q_9"] == [
        (((0, "a"), ("a",)), ("a", 1), ((("f8", (0,)), 1),)),
    ]
    # q_6's skolem argument f1(x) is 0 at both triggers, so both extras
    # demand a new value of f5 at the one point (0, 1)
    assert [(e.trigger, e.output, e.perturbation) for e in sat.extras if e.op_name == "q_6"] == [
        (((0, 1),), (1, 1), ((("f5", (0, 1)), 1),)),
        (((0, "a"),), ("a", 1), ((("f5", (0, 1)), 1),)),
    ]
    # both q_1 triggers produce (0, 0): its extras keep that row in the image
    assert [(e.trigger, e.output, e.image()) for e in sat.extras[:2]] == [
        (((0, 1),), (0, 1), frozenset({(0, 0), (0, 1)})),
        (((0, "a"),), (0, 1), frozenset({(0, 0), (0, 1)})),
    ]
    # q_3's head has no simple variable, so every s2 row is a candidate;
    # those with two different values are skipped
    assert [(k.op_name, k.candidate) for k in sat.skipped] == [
        ("q_3", (0, 1)), ("q_3", (1, "a")), ("q_3", ("a", 1)),
    ]
    # q_1 and q_2 share r2 -> s2: (1, 1) comes only from an extra of q_2
    assert dict(derive_pfunction(sat, 1).graph)[((0, 1),)] == frozenset(
        {(0, 0), (0, 1), (1, "a"), (1, 1)}
    )
    # q_7 and q_8 alone, here q_1 and q_2, over r2 rows that meet and
    # repeat: f6's arguments are x from the first atom and z from the second
    _, arrow, it = oracle_case(
        [6, 7], {"r2": [(0, 0), (0, 1)]}, {"f6": ["a"] * 16, "f7": ["a"] * 4}, {"s2": [(0, 1)]}
    )
    sat = assert_saturation_matches_the_oracle(arrow, it)
    assert [(e.op_name, e.trigger, e.perturbation) for e in sat.extras] == [
        ("q_1", ((0, 0), (0, 0)), ((("f6", (0, 0)), 1),)),
        ("q_1", ((0, 0), (0, 1)), ((("f6", (0, 1)), 1),)),
        ("q_2", ((0, 0),), ((("f7", (0,)), 1),)),
    ]


# ---------------------------------------------------------------------------
# the saturated kernel by deltas, against the extras' whole images


def projected(op, image):
    """The rows of ``image`` at the flux positions of ``op``, or None where
    it has none."""
    pos = flux_positions(op)
    return frozenset(tuple(row[j - 1] for j in pos) for row in image) if pos else None


def image_members(sat):
    """Each component's member, then each extra's, every one projected
    from a whole image: the extras' images are built by
    ``ExtraFunction.image``."""
    images = [(c.op, c.image()) for c in sat.base.components]
    images += [(extra.component.op, extra.image()) for extra in sat.extras]
    return [projected(op, image) for op, image in images]


def kernel_of(members):
    return FluxKernel(m for m in members if m is not None)


def moved(extra, value):
    """A mutant of ``extra`` whose output holds ``value`` at the first flux
    position of its operation."""
    j = flux_positions(extra.component.op)[0] - 1
    return dataclasses.replace(extra, output=(*extra.output[:j], value, *extra.output[j + 1 :]))


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_the_kernel_by_deltas_is_the_kernel_of_the_extra_images(case):
    _, arrow, it = case
    sat = saturate(it, arrow)
    assert flux_kernel(sat) == kernel_of(image_members(sat))
    # extras that break the law, so that a produced row and its projection
    # can lose their last preimage
    mutants = tuple(moved(e, "moved") for e in sat.extras if flux_positions(e.component.op))
    mutant = SaturatedMorphism(sat.base, mutants, ())
    assert flux_kernel(mutant) == kernel_of(image_members(mutant))


def test_an_extra_that_moves_a_flux_position_moves_the_kernel():
    # the deltas compute the member; they do not assume the law that an
    # extra agrees with its base at every flux position
    arrow, it = arrow_and_interp(load_example("join"), "join", "m", "interp.json")
    sat = saturate(it, arrow)
    base = flux_kernel(sat.base)
    assert flux_kernel(sat) == base
    assert flux_equal(base, flux_kernel(sat)).verdict == EQUAL
    # moved, q_1's first extra keeps its produced row (1, 7, "p"), which has
    # a second preimage, and its third drops (2, 2) from the member: the
    # produced row (2, 2, "p") has one preimage, and no other image row
    # projects to (2, 2)
    assert [(e.op_name, e.output) for e in sat.extras[:3]] == [
        ("q_1", (1, 7, "r")), ("q_1", (1, 7, "r")), ("q_1", (2, 2, "s"))
    ]
    for k, extra in enumerate(sat.extras):
        extras = list(sat.extras)
        extras[k] = moved(extra, 99)
        mutant = SaturatedMorphism(sat.base, tuple(extras), sat.skipped)
        assert flux_kernel(mutant) == kernel_of(image_members(mutant)) != base
        assert flux_equal(base, flux_kernel(mutant)).verdict == UNEQUAL
