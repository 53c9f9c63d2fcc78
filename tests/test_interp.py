"""Evaluation of compiled operations over fixed instances."""

import dataclasses
import io
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dbmorph import (
    App,
    Comparison,
    ComponentFunction,
    Const,
    FuncKind,
    FuncSymbol,
    FunctionTable,
    IncompleteInterpretationError,
    NULL,
    NormalizedImplication,
    Place,
    RelAtom,
    RelationSymbol,
    Schema,
    SchemaError,
    TarskiInterpretation,
    Var,
    alpha_star,
    make_operads,
    satisfies,
)
from dbmorph.cli import _trace_morphism
from dbmorph.interp import _lookups
from dbmorph.irdb import hash_tuple
from dbmorph.logic import COMPARISON_OPS, NotNull, _compiled, hash_symbol
from dbmorph.model import EMPTY_NAME
from dbmorph.operads import IDENTITY_OP, OperadOperation, build_variable_order
from dbmorph.project import compile_project_mapping

import interp_oracle
from conftest import FIXTURES, arrow_and_interp, build_instance, load_example


# ---------------------------------------------------------------------------
# skolem tables


def test_function_table_lookup_and_default():
    t = FunctionTable("f1", {("e1",): "o1"}, default="o9")
    assert t.lookup(("e1",)) == "o1"
    assert t.lookup(("e2",)) == "o9"


def test_function_table_without_default_is_partial():
    t = FunctionTable("f1", {("e1",): "o1"})
    with pytest.raises(IncompleteInterpretationError):
        t.lookup(("e2",))


def test_function_table_with_a_null_default_maps_missing_arguments_to_null():
    t = FunctionTable("f", {}, default=NULL)
    assert t.lookup((1,)) is NULL


def test_interpretation_requires_a_table_per_symbol(example1):
    arrow, it = arrow_and_interp(example1, "example1", "m_bc", "interp_bc.json")
    assert it.skolem_value("f1", ("e1",)) == "o1"
    with pytest.raises(IncompleteInterpretationError):
        it.skolem_value("f9", ("e1",))


# ---------------------------------------------------------------------------
# term and guard evaluation


def plain_interp(example1):
    arrow, it = arrow_and_interp(example1, "example1", "m_bc", "interp_bc.json")
    return arrow, it


def evaluate(g, tests, head, it):
    """The output of the generated join of one atom that binds the names of
    ``g`` to its values, with these tests and head terms: the head values,
    or () where a test fails."""
    program, consts, funcs, _ = _compiled("graph", [tuple(g)], tests, head)
    (out,) = program.run(([tuple(g.values())],), consts, _lookups(it, funcs)).values()
    return out


def eval_term(g, term, it):
    (value,) = evaluate(g, (), (term,), it)
    return value


def eval_guard(g, lit, it):
    return evaluate(g, (lit,), (Const(1),), it) == (1,)


def test_eval_term_variables_constants_and_hash(example1):
    _, it = plain_interp(example1)
    g = {"x": "e1"}
    assert eval_term(g, Var("x"), it) == "e1"
    assert eval_term(g, Const(5), it) == 5
    h = App(hash_symbol(), (Var("x"),))
    assert eval_term(g, h, it) == hash_tuple(("e1",))


def test_eval_term_unbound_variable(example1):
    arrow, it = plain_interp(example1)
    # generated code raises a schema error where it meets a variable that
    # no atom binds; safety keeps such a variable out of compiled operations
    with pytest.raises(SchemaError, match="variable x has no value"):
        eval_term({}, Var("x"), it)
    q1 = arrow.operations[0]
    renamed = dataclasses.replace(q1, target_terms=(Var("w"),) + q1.target_terms[1:])
    with pytest.raises(SchemaError, match="variable w has no value"):
        ComponentFunction(it, renamed).graph()


def test_eval_term_skolem_goes_through_the_table(example1):
    _, it = plain_interp(example1)
    f1 = FuncSymbol("f1", FuncKind.SKOLEM)
    assert eval_term({"x": "e3"}, App(f1, (Var("x"),)), it) == "o2"


def test_eval_guard_notnull_and_negation(example1):
    _, it = plain_interp(example1)
    assert eval_guard({"x": 1}, NotNull(Var("x")), it)
    assert not eval_guard({"x": NULL}, NotNull(Var("x")), it)
    assert eval_guard({"x": NULL}, NotNull(Var("x"), negated=True), it)


# ---------------------------------------------------------------------------
# component assignment and application


def test_join_guard_requires_equal_values(example1):
    arrow, it = plain_interp(example1)
    q1 = ComponentFunction(it, arrow.operations[0])
    assert q1.apply((("e1",), ("e1",))) == ("e1", "o1")
    assert q1.apply((("e1",), ("e3",))) == ()


def joined_assignments(component) -> dict:
    """Each joined tuple's assignment, as the join binds it."""
    return {args: g for args, g, _, _ in component.evaluations()}


def test_component_assignment_compacts_shared_variables(example1):
    arrow, it = plain_interp(example1)
    q1 = ComponentFunction(it, arrow.operations[0])
    joined = joined_assignments(q1)
    assert joined[(("e1",), ("e1",))] == {"x": "e1"}
    assert (("e1",), ("e3",)) in set(q1.domain_product()) - set(joined)


def test_component_assignment_checks_arities(example1):
    arrow, it = plain_interp(example1)
    q1 = arrow.operations[0]
    with pytest.raises(SchemaError, match="outside the domain"):
        ComponentFunction(it, q1).apply((("e1",),))
    first = q1.places[0]
    wide = dataclasses.replace(first, variables=("x", "y"))
    op = dataclasses.replace(q1, body=tuple(wide if b == first else b for b in q1.body))
    with pytest.raises(SchemaError, match="does not fit atom"):
        ComponentFunction(it, op).graph()


def naive_component_assignment(op, args):
    """The reference join: rebuild S from the places, test every member set
    for a single value, and compact with cmp."""
    occurrences = {}
    for j, place in enumerate(op.places, 1):
        for i, v in enumerate(place.variables, 1):
            occurrences.setdefault(v, []).append((i, j))
    equal_sets = frozenset(
        frozenset(pairs) for pairs in occurrences.values() if len(pairs) >= 2
    )
    for group in equal_sets:
        if len({args[j - 1][i - 1] for (i, j) in group}) > 1:
            return None
    return dict(zip(op.variable_order, interp_oracle.cmp(equal_sets, args)))


@st.composite
def ops_and_arguments(draw):
    names = ("x", "y", "z")
    values = st.sampled_from((0, 1, "a", NULL))
    places, args = [], []
    for j in range(draw(st.integers(min_value=1, max_value=3))):
        width = draw(st.integers(min_value=1, max_value=3))
        variables = tuple(draw(st.sampled_from(names)) for _ in range(width))
        places.append(Place(f"r{j}", variables))
        args.append(tuple(draw(values) for _ in range(width)))
    op = OperadOperation(
        name="q_1",
        body=tuple(places),
        target="s",
        target_columns=(),
        target_terms=(),
        variable_order=build_variable_order(places),
        rq_name="r_q1",
    )
    return op, tuple(args)


@given(ops_and_arguments())
def test_component_assignment_matches_the_naive_join(case):
    op, args = case
    # each place ranges over a relation of one row, so that the product is
    # the one argument tuple
    source = Schema(
        "A",
        [RelationSymbol(p.symbol, tuple(f"c{i}" for i in range(p.arity))) for p in op.places],
    )
    rows = {p.symbol: [tup] for p, tup in zip(op.places, args)}
    target = Schema("B", [RelationSymbol("s", ("c0",))])
    it = TarskiInterpretation(build_instance(source, rows), build_instance(target, {}), {})
    got = joined_assignments(ComponentFunction(it, op))
    want = naive_component_assignment(op, args)
    assert list(got) == ([] if want is None else [args])
    if want is not None:
        assert list(got[args].items()) == list(want.items())


def test_null_joins_null_but_fails_comparisons():
    a = Schema("A", [RelationSymbol("r", ("c1",)), RelationSymbol("r2", ("c1",))])
    b = Schema("B", [RelationSymbol("s", ("c1",))])
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Var("x"),)), RelAtom("r2", (Var("x"),))),
        RelAtom("s", (Var("x"),)),
    )
    (op,) = make_operads([impl], a, b).operations
    it = TarskiInterpretation(
        build_instance(a, {"r": [(NULL,)], "r2": [(NULL,)]}),
        build_instance(b, {}),
        {},
    )
    # two NULL place values are syntactically one value, so the join passes
    assert ComponentFunction(it, op).apply(((NULL,), (NULL,))) == (NULL,)
    guarded = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Var("x"),)), RelAtom("r2", (Var("x"),)), Comparison(Var("x"), "=", Var("x"))),
        RelAtom("s", (Var("x"),)),
    )
    (gop,) = make_operads([guarded], a, b).operations
    assert ComponentFunction(it, gop).apply(((NULL,), (NULL,))) == ()


def test_failed_guard_yields_the_empty_tuple():
    a = Schema("A", [RelationSymbol("r", ("c1",))])
    b = Schema("B", [RelationSymbol("s", ("c1",))])
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Var("x"),)), Comparison(Var("x"), "<", Const(10))),
        RelAtom("s", (Var("x"),)),
    )
    (op,) = make_operads([impl], a, b).operations
    it = TarskiInterpretation(
        build_instance(a, {"r": [(5,), (15,)]}), build_instance(b, {}), {}
    )
    comp = ComponentFunction(it, op)
    assert comp.apply(((5,),)) == (5,)
    assert comp.apply(((15,),)) == ()


# ---------------------------------------------------------------------------
# place domains


def test_place_domain_of_a_positive_place(example1):
    _, it = plain_interp(example1)
    assert it.place_relation(Place("Emp", ("x",))).rows == frozenset(
        {("e1",), ("e2",), ("e3",)}
    )


def test_negated_place_complements_over_the_active_domain(example1):
    _, it = plain_interp(example1)
    dom = it.domain_values()
    out = it.place_relation(Place("Local1", ("x",), negated=True)).rows
    assert out == frozenset({(v,) for v in dom} - {("e1",), ("e3",)})


def test_explicit_domain_overrides_the_active_one(example1):
    arrow, it = plain_interp(example1)
    narrowed = TarskiInterpretation(
        it.source, it.target, it.skolem, domain=frozenset({"e1", "e2"})
    )
    out = narrowed.place_relation(Place("Local1", ("x",), negated=True)).rows
    assert out == frozenset({("e2",)})


def test_char_places_resolve_target_then_extras_then_source(example1):
    arrow, it = arrow_and_interp(example1, "example1", "m_ac", "interp_ac.json")
    q3 = arrow.operations[2]
    over65 = q3.places[1]
    assert over65.char
    assert it.place_relation(over65).rows == frozenset({("e2",), ("e3",)})
    without_extras = TarskiInterpretation(it.source, it.target, it.skolem)
    with pytest.raises(SchemaError):
        without_extras.place_relation(over65)


def test_a_negated_place_ranges_over_values_only_the_extras_hold():
    # 9 lies only in the extras instance c, so the complement of t holds
    # exactly the pairs that use it, and without c it is empty
    project = load_example("arity")
    _, it = arrow_and_interp(project, "arity", "ok", "interp.json")
    not_t = Place("t", ("x", "y"), negated=True, char=True)
    pairs = set(itertools.product((0, 1, 9), repeat=2))
    assert it.place_relation(not_t).rows == pairs - set(itertools.product((0, 1), repeat=2))
    without_extras = TarskiInterpretation(it.source, it.target, it.skolem)
    assert not without_extras.place_relation(not_t)


@pytest.mark.parametrize("mapping, row", [("pos", (9,)), ("neg", (0,))])
def test_a_place_that_misfits_its_relation_is_refused_whatever_its_sign(mapping, row):
    # r1 is unary; a negated place reads its complement {0, 1} under r1's
    # own symbol, so the width check of a positive place covers it
    arrow, it = arrow_and_interp(load_example("arity"), "arity", mapping, "interp.json")
    comp = ComponentFunction(it, arrow.operations[0])
    assert comp.relations[2].symbol == it.extras[0].schema.symbol("r1")
    with pytest.raises(SchemaError, match=rf"tuple \({row[0]},\) does not fit atom r1/2"):
        comp.graph()


# ---------------------------------------------------------------------------
# component functions


def test_component_graph_is_total(example1):
    """``apply`` is total on the product; the graph holds the joined tuples."""
    arrow, it = plain_interp(example1)
    op = arrow.operations[0]
    comp, oracle = ComponentFunction(it, op), interp_oracle.ComponentFunction(it, op)
    sizes = [len(rel) for rel in comp.relations]
    assert sizes == [3, 2]
    product = list(comp.domain_product())
    assert len(product) == 6
    assert [comp.apply(args) for args in product] == [oracle.apply(args) for args in product]
    assert comp.graph() == {(("e1",), ("e1",)): ("e1", "o1"), (("e3",), ("e3",)): ("e3", "o2")}
    assert comp.apply((("e3",), ("e3",))) == ("e3", "o2")
    with pytest.raises(SchemaError):
        comp.apply((("e9",), ("e9",)))


def test_component_image_drops_the_failure_sentinel(example1):
    arrow, it = plain_interp(example1)
    comp = ComponentFunction(it, arrow.operations[0])
    assert comp.image() == frozenset({("e1", "o1"), ("e3", "o2")})


def test_identity_component_image_is_the_unit(example1):
    _, it = plain_interp(example1)
    comp = ComponentFunction(it, IDENTITY_OP)
    assert comp.image() == frozenset({()})


# ---------------------------------------------------------------------------
# morphisms and satisfaction


def test_alpha_star_builds_all_components(example1):
    arrow, it = plain_interp(example1)
    morphism = alpha_star(it, arrow)
    assert len(morphism.components) == 2
    assert morphism.component("q_2").op.target == "CanRetire"
    assert morphism.component(arrow.identity.name) is morphism.q_bot
    assert morphism.source is it.source and morphism.target is it.target
    with pytest.raises(SchemaError):
        morphism.component("q_9")


def test_alpha_star_checks_schema_names(example1):
    arrow, it = plain_interp(example1)
    swapped = TarskiInterpretation(it.target, it.source, it.skolem)
    with pytest.raises(SchemaError):
        alpha_star(swapped, arrow)


def test_satisfaction_of_all_three_example_mappings(example1):
    for mapping, interp in (
        ("m_ab", "interp_ab.json"),
        ("m_bc", "interp_bc.json"),
        ("m_ac", "interp_ac.json"),
    ):
        arrow, it = arrow_and_interp(example1, "example1", mapping, interp)
        report = satisfies(alpha_star(it, arrow))
        assert report.satisfied, (mapping, report.violations)
        assert report.violations == ()


def test_violations_name_the_operation_and_row(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp_bad.json")
    report = satisfies(alpha_star(it, arrow))
    assert not report.satisfied
    assert report.violations == (("q_1", (132, "opera")),)


def test_op_images_iterates_ordinary_components(example1):
    arrow, it = plain_interp(example1)
    morphism = alpha_star(it, arrow)
    images = {c.op.name: c.image() for c in morphism.components}
    assert arrow.identity.name not in images
    assert images["q_1"] == frozenset({("e1", "o1"), ("e3", "o2")})
    assert images["q_2"] == frozenset({("e2",), ("e3",)})


# ---------------------------------------------------------------------------
# the join against the product evaluator

JOIN_VALUES = (0, 1, "a", NULL)
JOIN_SOURCE = Schema(
    "A",
    [
        RelationSymbol("r1", ("c1",)),
        RelationSymbol("r2", ("c1", "c2")),
        RelationSymbol("r3", ("c1", "c2")),
    ],
)
JOIN_TARGET = Schema("B", [RelationSymbol("t1", ("c1",)), RelationSymbol("s", ("c1", "c2"))])


def _rows(draw, arity, min_size=1):
    universe = list(itertools.product(JOIN_VALUES, repeat=arity))
    return draw(st.sets(st.sampled_from(universe), min_size=min_size, max_size=5))


F = FuncSymbol("f", FuncKind.SKOLEM)


def join_terms(names):
    """Terms over the place variables: a variable, a constant of any kind,
    f of a term, or hash of one or two terms, f inside hash included."""
    leaves = st.sampled_from(names).map(Var) | st.sampled_from(JOIN_VALUES).map(Const)
    return st.recursive(
        leaves,
        lambda inner: inner.map(lambda t: App(F, (t,)))
        | st.lists(inner, min_size=1, max_size=2).map(lambda a: App(hash_symbol(), tuple(a))),
        max_leaves=3,
    )


@st.composite
def join_cases(draw):
    """An interpretation over small relations and one operation whose places
    may be negated, characteristic, repeat a variable, miss their
    relation's arity or range over an empty relation; guards compare or
    test for NULL, plain or negated, terms that may apply f or hash, and
    may fail; the head may apply f or hash; f may miss some arguments,
    with or without a default, or have no table; the target may be r_∅."""
    # r3 may be empty
    source = build_instance(
        JOIN_SOURCE,
        {
            sym.name: _rows(draw, sym.arity, min_size=0 if sym.name == "r3" else 1)
            for sym in JOIN_SOURCE.ordinary_symbols()
        },
    )
    target = build_instance(JOIN_TARGET, {"t1": _rows(draw, 1), "s": _rows(draw, 2)})
    domain = draw(st.none() | st.frozensets(st.sampled_from(JOIN_VALUES), max_size=3))
    # without a default, a head that applies f to a missing value raises
    entries = {(v,): v for v in draw(st.sets(st.sampled_from(JOIN_VALUES)))}
    default = draw(st.sampled_from(((), (NULL,), ("a",))))
    tables = {"f": FunctionTable("f", entries, *default)}
    if draw(st.integers(0, 9)) == 0:
        tables = {}
    it = TarskiInterpretation(source, target, tables, domain=domain)
    arities = {"r1": 1, "r2": 2, "r3": 2, "t1": 1}
    places = []
    # one case in ten has no places, like the identity operation
    for _ in range(0 if draw(st.integers(0, 9)) == 9 else draw(st.integers(1, 3))):
        symbol = draw(st.sampled_from(sorted(arities)))
        width = arities[symbol]
        if draw(st.integers(0, 9)) == 0:
            width = 3 - width
        variables = tuple(draw(st.sampled_from("xyz")) for _ in range(width))
        negated = symbol != "t1" and draw(st.booleans())
        places.append(Place(symbol, variables, negated=negated, char=symbol == "t1"))
    names = sorted({v for place in places for v in place.variables})
    guards = []
    if names:
        terms = join_terms(names)
        for _ in range(draw(st.integers(0, 2))):
            negated = draw(st.booleans())
            if draw(st.integers(0, 3)):
                op = draw(st.sampled_from(COMPARISON_OPS))
                guards.append(Comparison(draw(terms), op, draw(terms), negated))
            else:
                guards.append(NotNull(draw(terms), negated))
    if names and draw(st.integers(0, 3)):
        target_name = "s"
        terms = tuple(draw(join_terms(names)) for _ in range(2))
    else:
        target_name, terms = EMPTY_NAME, ()
    op = OperadOperation(
        name="q_1",
        body=tuple(places) + tuple(guards),
        target=target_name,
        target_columns=tuple(f"c{j}" for j in range(1, len(terms) + 1)),
        target_terms=terms,
        variable_order=build_variable_order(places),
        rq_name="r_q1",
    )
    return it, op


def outcome(f, *args):
    try:
        return "value", f(*args)
    except (SchemaError, IncompleteInterpretationError) as exc:
        return "error", str(exc)


def trace_text(trace, component) -> tuple:
    """The trace printed, up to the error if one is raised, and the error."""
    stream = io.StringIO()
    error = outcome(trace, SimpleNamespace(components=[component]), stream)
    return stream.getvalue(), error


@settings(max_examples=250, deadline=None)
@given(join_cases())
def test_join_matches_the_product_evaluator(case):
    assert_join_matches_the_product_evaluator(*case)


def assert_join_matches_the_product_evaluator(it, op):
    assert trace_text(_trace_morphism, ComponentFunction(it, op)) == trace_text(
        interp_oracle.trace_morphism, interp_oracle.ComponentFunction(it, op)
    )
    comp, oracle = ComponentFunction(it, op), interp_oracle.ComponentFunction(it, op)
    got, want = outcome(comp.graph), outcome(oracle.graph)
    if want[0] == "error":
        assert got == want
        return
    joined = [
        (args, out)
        for args, out in want[1].items()
        if interp_oracle.component_assignment(op, args) is not None
    ]
    assert list(got[1].items()) == joined
    # each assignment in binding order, the order of first occurrences
    assert [list(g.items()) for _, g, _, _ in comp.evaluations()] == [
        list(interp_oracle.component_assignment(op, args).items()) for args, _ in joined
    ]
    assert comp.image() == oracle.image()
    assert comp.preimage_counts() == oracle.preimage_counts()
    product = list(oracle.domain_product())
    assert list(comp.domain_product()) == product
    outside = (("zz",),) + (product[0][1:] if product else ())
    for args in product + [outside]:
        assert outcome(comp.apply, args) == outcome(oracle.apply, args)


def shape_case(guards, head=(Var("x"),), places=(Place("r2", ("x", "y")),), **table):
    """One operation over r2(x, y), whose rows pair ints, a string and
    NULL, with these guards and head; ``table`` is passed to f's table
    (its default), or is ``{"table": None}`` for no table at all."""
    source = build_instance(
        JOIN_SOURCE,
        {
            "r1": [(0,), (1,), ("a",), (NULL,)],
            "r2": [(0, 0), (0, 1), (1, 0), (1, 1), ("a", NULL), (NULL, "a"), ("a", 1), (1, "a")],
        },
    )
    entries = {(0,): 1, (1,): 0, ("a",): "a", (NULL,): 0}
    tables = {} if table == {"table": None} else {"f": FunctionTable("f", entries, **table)}
    it = TarskiInterpretation(source, build_instance(JOIN_TARGET, {}), tables)
    target = "s" if head else EMPTY_NAME
    op = OperadOperation(
        name="q_1",
        body=tuple(places) + tuple(guards),
        target=target,
        target_columns=tuple(f"c{j}" for j in range(1, len(head) + 1)),
        target_terms=tuple(head),
        variable_order=build_variable_order(places),
        rq_name="r_q1",
    )
    return it, op


x_, y_ = Var("x"), Var("y")


def f(term):
    return App(F, (term,))


def hashed(*terms):
    return App(hash_symbol(), terms)


# each literal kind and term the generator emits; a guard holds at some
# joined tuple and fails at another
JOIN_SHAPES = {
    **{
        f"{'not ' if negated else ''}{op}": shape_case([Comparison(x_, op, y_, negated)])
        for op in COMPARISON_OPS
        for negated in (False, True)
    },
    # x and y take NULL and "a" beside ints, and a constant is NULL
    "NULL constant in an order comparison": shape_case(
        [Comparison(x_, "<", Const(NULL), negated=True), Comparison(x_, "<=", y_)]
    ),
    "notnull": shape_case([NotNull(y_)]),
    "not notnull": shape_case([NotNull(x_, negated=True)]),
    "hash in a guard": shape_case([Comparison(hashed(x_), "!=", hashed(Const(0)))]),
    "f in a guard": shape_case([Comparison(f(x_), "=", y_)], head=(x_, f(y_))),
    "f inside hash": shape_case(
        [Comparison(hashed(f(x_)), "=", hashed(y_))], head=(hashed(f(y_), x_), x_)
    ),
    "a variable repeated in one place": shape_case(
        [Comparison(x_, "=", y_)], places=(Place("r2", ("x", "x")), Place("r1", ("y",)))
    ),
}
# f misses NULL and "a" without a default, has a default, or has no table
FAILING_SHAPES = {
    "f without a default": shape_case([], head=(f(hashed(y_)),)),
    "f with a default": shape_case([], head=(x_, f(hashed(y_))), default="d"),
    "f without a table": shape_case([NotNull(x_)], head=(f(x_),), table=None),
}


@pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
def test_the_join_cases_reach_every_shape(shape):
    it, op = JOIN_SHAPES[shape]
    assert_join_matches_the_product_evaluator(it, op)
    records = list(ComponentFunction(it, op).evaluations())
    outcomes = {holds for _, _, checks, _ in records for holds in checks}
    assert outcomes == {True, False}


@pytest.mark.parametrize("shape", sorted(FAILING_SHAPES))
def test_the_join_cases_reach_every_skolem_fallback(shape):
    it, op = FAILING_SHAPES[shape]
    assert_join_matches_the_product_evaluator(it, op)
    fails = outcome(ComponentFunction(it, op).graph)[0] == "error"
    assert fails == (shape != "f with a default")


def test_a_join_longer_than_one_generated_function():
    # twenty places go on in a second generated function
    n = 20
    source = build_instance(JOIN_SOURCE, {"r1": [(0,)], "r2": [(0, 0), (0, 1), (1, 1)]})
    places = [Place("r2", (f"x{i}", f"x{i + 1}")) for i in range(n)]
    first, last = Var("x0"), Var(f"x{n}")
    op = OperadOperation(
        name="q_1",
        body=tuple(places) + (Comparison(first, "<", last),),
        target="s",
        target_columns=("c1", "c2"),
        target_terms=(first, last),
        variable_order=build_variable_order(places),
        rq_name="r_q1",
    )
    it = TarskiInterpretation(source, build_instance(JOIN_TARGET, {}), {})
    program, *_ = _compiled("graph", [p.variables for p in places], op.guards, op.target_terms)
    assert "def graph_1(" in program.source
    graph = ComponentFunction(it, op).graph()
    # the joined tuples are the non-decreasing 0/1 sequences of n + 1 values
    assert len(graph) == n + 2
    assert Counter(graph.values()) == Counter({(0, 1): n, (): 2})
    records = list(ComponentFunction(it, op).evaluations())
    assert [(args, out) for args, _, _, out in records] == list(graph.items())
    assert {tuple(g) for _, g, _, _ in records} == {op.variable_order}


def test_component_graph_holds_only_the_joined_tuples():
    a = Schema("A", [RelationSymbol("R", ("x", "y")), RelationSymbol("S", ("y", "z"))])
    b = Schema("B", [RelationSymbol("T", ("x", "z"))])
    impl = NormalizedImplication(
        ("x", "y", "z"),
        (RelAtom("R", (Var("x"), Var("y"))), RelAtom("S", (Var("y"), Var("z")))),
        RelAtom("T", (Var("x"), Var("z"))),
    )
    (op,) = make_operads([impl], a, b).operations
    R = [(x, x % 4) for x in range(40)]
    S = [(z % 5, 100 + z) for z in range(40)]
    it = TarskiInterpretation(build_instance(a, {"R": R, "S": S}), build_instance(b, {}), {})
    comp = ComponentFunction(it, op)
    hash_join = sum(1 for _, y in R for y2, _ in S if y == y2)
    assert len(comp.graph()) == hash_join < len(R) * len(S)
    assert comp.preimage_counts()[()] == len(R) * len(S) - hash_join


# ---------------------------------------------------------------------------
# the generated source, pinned so that a reader can see what runs

ONE_PLACE = '''\
def graph(I, C, S):
    i0, = I
    graph = {}
    for r0 in i0:
        v0 = r0[0]
        graph[(r0,)] = (v0,)
    return graph
'''
TWO_PLACES = '''\
def graph(I, C, S):
    i0, i1 = I
    graph = {}
    for r0 in i0:
        v0 = r0[0]
        for r1 in i1.get((v0,), ()):
            graph[(r0, r1)] = (v0,)
    return graph
'''
TWO_PLACES_AND_A_SKOLEM = '''\
def graph(I, C, S):
    i0, i1 = I
    e0, l0 = S[0]
    graph = {}
    for r0 in i0:
        v0 = r0[0]
        for r1 in i1.get((v0,), ()):
            t0 = e0.get((v0,), MISS)
            if t0 is MISS:
                t0 = l0((v0,))
            graph[(r0, r1)] = (v0, t0)
    return graph
'''
# every operation of example1: the shape leaves out names, so operations
# of one shape share one function
EXAMPLE1_SOURCES = {
    ("m_ab", "q_1"): ONE_PLACE,
    ("m_ab", "q_2"): ONE_PLACE,
    ("m_ab", "q_3"): ONE_PLACE,
    ("m_bc", "q_1"): TWO_PLACES_AND_A_SKOLEM,
    ("m_bc", "q_2"): TWO_PLACES,
    ("m_ac", "q_1"): TWO_PLACES_AND_A_SKOLEM,
    ("m_ac", "q_2"): TWO_PLACES_AND_A_SKOLEM,
    ("m_ac", "q_3"): TWO_PLACES,
    ("m_ac", "q_4"): TWO_PLACES,
}


def generated(op, mode="graph"):
    program, *_ = _compiled(mode, [p.variables for p in op.places], op.guards, op.target_terms)
    return program


def test_the_generated_source_of_example1_is_pinned(example1):
    sources = {}
    for mapping in ("m_ab", "m_bc", "m_ac"):
        for op in compile_project_mapping(example1, mapping).operations:
            sources[mapping, op.name] = generated(op).source
    assert sources == EXAMPLE1_SOURCES
    q1 = compile_project_mapping(example1, "m_bc").operations[0]
    assert generated(q1) is generated(dataclasses.replace(q1, name="q_9"))


def test_the_readme_shows_a_generated_function():
    # the join project's second operation, with a guard and a skolem head
    text = (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8")
    (op,) = [o for o in compile_project_mapping(load_example("join"), "m").operations if o.guards]
    assert generated(op).source in text
