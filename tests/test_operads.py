"""Operad compilation: places, variable order, equal-variable sets, and
the ``cmp`` reference over them."""

import pytest
from hypothesis import given, strategies as st

from dbmorph import (
    App,
    Comparison,
    Const,
    FuncKind,
    FuncSymbol,
    IDENTITY_OP,
    NormalizedImplication,
    Place,
    RelAtom,
    RelationSymbol,
    SafetyError,
    Schema,
    SchemaError,
    Var,
    build_equal_var_set,
    compile_source,
    make_operads,
    simple_var_positions,
)
from dbmorph.logic import TAUT_IMPLICATION
from dbmorph.operads import (
    IDENTITY_NAME,
    OperadOperation,
    build_variable_order,
    render_expression,
    render_implication,
)
from dbmorph.project import compile_project_mapping

from interp_oracle import cmp


def schema_ab():
    a = Schema("A", [RelationSymbol("r", ("c1", "c2"))])
    b = Schema("B", [RelationSymbol("s", ("c1",)), RelationSymbol("s2", ("c1", "c2"))])
    return a, b


# ---------------------------------------------------------------------------
# the three-atom join example


@pytest.fixture(scope="module")
def join_op(example3):
    arrow = compile_project_mapping(example3, "m_ab")
    (op,) = arrow.operations
    return op


def test_join_op_identity_and_naming(example3):
    arrow = compile_project_mapping(example3, "m_ab")
    assert arrow.name == "m_ab"
    assert [op.name for op in arrow.operations] == ["q_1"]
    assert arrow.operations[0].rq_name == "r_q1"
    assert arrow.identity is IDENTITY_OP
    assert arrow.identity.name == IDENTITY_NAME


def test_join_op_body_keeps_source_order(join_op):
    kinds = [type(item).__name__ for item in join_op.body]
    assert kinds == ["Comparison", "Place", "Place", "Place"]
    guard = join_op.guards[0]
    assert guard.left == Var("y")
    assert guard.right.func.name == "f1"
    assert [p.symbol for p in join_op.places] == ["r1", "r2", "r3"]
    assert join_op.places[2].char  # r3 lives in neither schema A nor B


def test_join_op_variable_order_is_first_occurrence(join_op):
    assert join_op.variable_order == ("x", "y", "z", "v", "w", "w'")


def test_join_op_equal_variable_set(join_op):
    expected = frozenset(
        {
            frozenset({(1, 1), (2, 2)}),  # x
            frozenset({(2, 1), (1, 3)}),  # y
            frozenset({(3, 1), (2, 3)}),  # z
            frozenset({(3, 2), (4, 3)}),  # w
        }
    )
    assert build_equal_var_set(join_op) == expected


def test_join_op_head_terms_and_simple_positions(join_op):
    x, z, w = Var("x"), Var("z"), Var("w")
    assert join_op.target == "rB"
    assert join_op.target_terms[:3] == (x, z, w)
    f2_term = join_op.target_terms[3]
    assert isinstance(f2_term, App)
    assert f2_term.func.name == "f2" and f2_term.args == (Var("v"), z)
    assert simple_var_positions(join_op) == frozenset({1, 2, 3})
    assert len(join_op.target_terms) == 4


def test_cmp_compacts_to_variable_order(join_op):
    s = build_equal_var_set(join_op)
    tuples = (("x", "y", "z"), ("v", "x", "w"), ("y", "z", "w'", "w"))
    assert cmp(s, tuples) == join_op.variable_order


def test_join_op_renderings(join_op):
    assert render_expression(join_op) == (
        "y = f1(x, z) & (_)1(x, y, z) & (_)2(v, x, w) & (_)3(y, z, w', w)"
        " -> (_)(x, z, w, f2(v, z))"
    )
    assert render_implication(join_op) == (
        "y = f1(x, z) & r1(x, y, z) & r2(v, x, w) & f_r3(y, z, w', w) = 1"
        " -> rB(x, z, w, f2(v, z))"
    )


# ---------------------------------------------------------------------------
# characteristic places over a third schema


def test_char_places_for_foreign_relations(example1):
    arrow = compile_project_mapping(example1, "m_ac")
    assert [op.name for op in arrow.operations] == ["q_1", "q_2", "q_3", "q_4"]
    q3, q4 = arrow.operations[2], arrow.operations[3]
    for op, src in ((q3, "EmpAcme"), (q4, "EmpAjax")):
        first, second = op.places
        assert (first.symbol, first.char) == (src, False)
        assert (second.symbol, second.char) == ("Over65", True)
        assert op.target == "CanRetire"
    assert render_implication(q3) == (
        "EmpAcme(x) & f_Over65(x) = 1 -> CanRetire(x)"
    )


def test_negated_char_place_renders_as_zero():
    op = make_operads(
        [
            NormalizedImplication(
                ("x",),
                (RelAtom("r", (Var("x"),), False), RelAtom("q", (Var("x"),), True)),
                RelAtom("s", (Var("x"),)),
            )
        ],
        Schema("A", [RelationSymbol("r", ("c1",))]),
        Schema("B", [RelationSymbol("s", ("c1",))]),
    ).operations[0]
    assert op.places[1].negated and op.places[1].char
    assert render_implication(op) == "r(x) & f_q(x) = 0 -> s(x)"
    assert render_expression(op) == "(_)1(x) & not (_)2(x) -> (_)(x)"


def test_char_arity_checked_against_target_schema():
    a = Schema("A", [RelationSymbol("r", ("c1",))])
    b = Schema("B", [RelationSymbol("s", ("c1",)), RelationSymbol("t", ("c1", "c2"))])
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Var("x"),)), RelAtom("t", (Var("x"),))),
        RelAtom("s", (Var("x"),)),
    )
    with pytest.raises(SchemaError):
        make_operads([impl], a, b)


def test_unknown_char_relation_accepts_any_arity():
    a = Schema("A", [RelationSymbol("r", ("c1",))])
    b = Schema("B", [RelationSymbol("s", ("c1",))])
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Var("x"),)), RelAtom("mystery", (Var("x"), Var("x")))),
        RelAtom("s", (Var("x"),)),
    )
    (op,) = make_operads([impl], a, b).operations
    assert op.places[1] == Place("mystery", ("x", "x"), False, True)


# ---------------------------------------------------------------------------
# compile errors


def test_compile_rejects_egd_sources():
    a, b = schema_ab()
    with pytest.raises(SchemaError):
        compile_source("forall x, y . r(x, y) -> x = y", a, b)


def test_compile_rejects_unknown_target_relation():
    a, b = schema_ab()
    with pytest.raises(SchemaError):
        compile_source("forall x, y . r(x, y) -> nosuch(x)", a, b)


def test_compile_rejects_head_arity_mismatch():
    a, b = schema_ab()
    with pytest.raises(SchemaError):
        compile_source("forall x, y . r(x, y) -> s(x, y)", a, b)


def test_compile_rejects_source_atom_arity_mismatch():
    a, b = schema_ab()
    with pytest.raises(SchemaError):
        compile_source("forall x . r(x) -> s(x)", a, b)


def test_guard_variable_must_occur_in_an_atom():
    a, b = schema_ab()
    impl = NormalizedImplication(
        ("x", "y", "u"),
        (RelAtom("r", (Var("x"), Var("y"))), Comparison(Var("u"), "=", Const(1))),
        RelAtom("s", (Var("x"),)),
    )
    with pytest.raises(SafetyError):
        make_operads([impl], a, b)


def test_head_variable_must_occur_in_an_atom():
    a, b = schema_ab()
    impl = NormalizedImplication(
        ("x", "y", "u"),
        (RelAtom("r", (Var("x"), Var("y"))),),
        RelAtom("s", (Var("u"),)),
    )
    with pytest.raises(SafetyError):
        make_operads([impl], a, b)


def test_an_implication_needs_a_relational_atom():
    a, b = schema_ab()
    impl = NormalizedImplication(
        ("x",), (Comparison(Var("x"), "=", Const(1)),), RelAtom("s", (Var("x"),))
    )
    with pytest.raises(SafetyError):
        make_operads([impl], a, b)


def test_lhs_atom_constants_must_be_hoisted_first():
    a, b = schema_ab()
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Const(3), Var("x"))),),
        RelAtom("s", (Var("x"),)),
    )
    with pytest.raises(SafetyError):
        make_operads([impl], a, b)


def test_constants_hoist_through_the_frontend():
    a, b = schema_ab()
    arrow = compile_source('forall x . r(3, x) -> s(x)', a, b)
    (op,) = arrow.operations
    assert op.variable_order == ("y1", "x")
    (guard,) = op.guards
    assert guard == Comparison(Var("y1"), "=", Const(3))
    assert op.places[0].variables == ("y1", "x")


def test_tautologies_compile_to_no_operation():
    a, b = schema_ab()
    impl = NormalizedImplication(
        ("x", "y"), (RelAtom("r", (Var("x"), Var("y"))),), RelAtom("s", (Var("x"),))
    )
    arrow = make_operads([TAUT_IMPLICATION, impl], a, b)
    assert [op.name for op in arrow.operations] == ["q_1"]
    assert arrow.operations[0].target == "s"


def test_operation_lookup_covers_the_identity(example1):
    arrow = compile_project_mapping(example1, "m_ab")
    assert [op.name for op in arrow.operations] == ["q_1", "q_2", "q_3"]
    assert arrow.operations[1].target == "Emp"
    assert arrow.identity is IDENTITY_OP


def test_identity_operation_shape():
    assert IDENTITY_OP.body == ()
    assert IDENTITY_OP.target_terms == ()
    assert IDENTITY_OP.variable_order == ()
    assert simple_var_positions(IDENTITY_OP) == frozenset()
    assert build_equal_var_set(IDENTITY_OP) == frozenset()


# ---------------------------------------------------------------------------
# cmp and the equal-variable set as such


def test_cmp_without_shared_variables_concatenates():
    assert cmp(frozenset(), ((1, 2), (3,))) == (1, 2, 3)


def test_cmp_skips_all_but_first_occurrence():
    s = frozenset({frozenset({(1, 1), (1, 2), (2, 2)})})
    assert cmp(s, (("a", "b"), ("a", "a"))) == ("a", "b")


def test_variable_order_of_handmade_places():
    places = [Place("r", ("b", "a")), Place("q", ("a", "c"))]
    assert build_variable_order(places) == ("b", "a", "c")


@st.composite
def place_lists(draw):
    n_vars = draw(st.integers(min_value=1, max_value=5))
    names = [f"v{i}" for i in range(n_vars)]
    places = []
    for j in range(draw(st.integers(min_value=1, max_value=4))):
        width = draw(st.integers(min_value=1, max_value=4))
        variables = tuple(draw(st.sampled_from(names)) for _ in range(width))
        places.append(Place(f"r{j}", variables))
    return places


@given(place_lists())
def test_cmp_over_own_equal_set_lists_first_occurrences(places):
    op = OperadOperation(
        name="q_1",
        body=tuple(places),
        target="s",
        target_columns=(),
        target_terms=(),
        variable_order=build_variable_order(places),
        rq_name="r_q1",
    )
    s = build_equal_var_set(op)
    tuples = tuple(p.variables for p in places)
    compacted = cmp(s, tuples)
    assert compacted == op.variable_order
    assert len(compacted) == len(set(compacted))


def test_equal_var_set_ignores_single_occurrences():
    op = make_operads(
        [
            NormalizedImplication(
                ("a", "b"),
                (RelAtom("r", (Var("a"), Var("b"))),),
                RelAtom("s", (Var("a"),)),
            )
        ],
        Schema("A", [RelationSymbol("r", ("c1", "c2"))]),
        Schema("B", [RelationSymbol("s", ("c1",))]),
    ).operations[0]
    assert build_equal_var_set(op) == frozenset()
