"""Dependencies: construction, skolemization, normalization, validation."""

import pytest

from dbmorph import (
    App,
    Comparison,
    Const,
    Egd,
    FuncKind,
    FuncSymbol,
    NormalizedImplication,
    NotNull,
    NULL,
    RelAtom,
    RelationSymbol,
    SafetyError,
    Schema,
    SOtgd,
    SOtgdConjunct,
    Tgd,
    Var,
    hoist_constants,
    normalize,
    skolemize,
    validate_instance,
)
from dbmorph import logic
from dbmorph.logic import (
    TAUT_ATOM,
    TAUT_IMPLICATION,
    TAUT_SOTGD,
    _compiled,
    check_conjunct_safety,
    hash_symbol,
)
from dbmorph.irdb import hash_tuple

import interp_oracle
from conftest import build_instance, load_example


def atom(rel, *names, negated=False):
    return RelAtom(rel, tuple(Var(n) for n in names), negated)


# ---------------------------------------------------------------------------
# tgd / egd construction guards


def test_tgd_rejects_unbound_lhs_variable():
    with pytest.raises(SafetyError):
        Tgd(("x",), (atom("r", "x", "w"),), (atom("s", "x"),))


def test_tgd_rejects_unbound_head_variable():
    with pytest.raises(SafetyError):
        Tgd(("x",), (atom("r", "x"),), (atom("s", "x", "z"),))


def test_tgd_rejects_negated_head():
    with pytest.raises(SafetyError):
        Tgd(("x",), (atom("r", "x"),), (atom("s", "x", negated=True),))


def test_egd_requires_equated_variables_in_lhs():
    with pytest.raises(SafetyError):
        Egd(("x", "y"), (atom("r", "x", "y"),), (("x", "z"),))


def test_egd_rejects_negated_lhs_atom():
    with pytest.raises(SafetyError):
        Egd(("x", "y"), (atom("r", "x", "y", negated=True),), (("x", "y"),))


# ---------------------------------------------------------------------------
# skolemization


def test_skolemize_replaces_rhs_existentials_over_all_universals():
    t = Tgd(
        ("x1", "x2"),
        (atom("r", "x1", "x2"),),
        (RelAtom("s", (Var("x1"), Var("z"))),),
        rhs_exists=("z",),
    )
    so = skolemize([t])
    assert [f.name for f in so.functions] == ["f1"]
    assert so.functions[0].kind is FuncKind.SKOLEM
    (conj,) = so.conjuncts
    assert conj.universals == ("x1", "x2")
    assert conj.lhs == t.lhs
    (head,) = conj.rhs
    assert head.terms == (Var("x1"), App(so.functions[0], (Var("x1"), Var("x2"))))


def test_skolemize_promotes_lhs_existentials_to_universals():
    t = Tgd(
        ("x",),
        (atom("r", "x", "w"),),
        (RelAtom("s", (Var("x"), Var("z"))),),
        lhs_exists=("w",),
        rhs_exists=("z",),
    )
    (conj,) = skolemize([t]).conjuncts
    assert conj.universals == ("x", "w")
    (head,) = conj.rhs
    # the skolem ranges over the promoted variable as well
    assert head.terms[1].args == (Var("x"), Var("w"))


def test_skolemize_uses_disjoint_names_across_tgds():
    t1 = Tgd(("x",), (atom("r", "x"),), (RelAtom("s", (Var("z"),)),), rhs_exists=("z",))
    t2 = Tgd(("x",), (atom("r", "x"),), (RelAtom("s2", (Var("z"),)),), rhs_exists=("z",))
    so = skolemize([t1, t2])
    assert [f.name for f in so.functions] == ["f1", "f2"]


def test_skolemize_skips_function_names_already_in_use():
    clash = FuncSymbol("f1", FuncKind.SKOLEM)
    t1 = Tgd(("x",), (atom("r", "x"),), (RelAtom("s", (App(clash, (Var("x"),)),)),))
    t2 = Tgd(("x",), (atom("r", "x"),), (RelAtom("s2", (Var("z"),)),), rhs_exists=("z",))
    so = skolemize([t1, t2])
    assert [f.name for f in so.functions] == ["f2"]


def test_skolemize_rejects_universal_outside_relational_atoms():
    t = Tgd(
        ("x", "y"),
        (atom("r", "x"), Comparison(Var("y"), "=", Const(3))),
        (atom("s", "x"),),
    )
    with pytest.raises(SafetyError):
        skolemize([t])


def test_conjunct_safety_requires_atom_coverage():
    conj = SOtgdConjunct(("x", "y"), (atom("r", "x"),), (atom("s", "x"),))
    with pytest.raises(SafetyError):
        check_conjunct_safety(conj)


def test_sotgd_rejects_duplicate_function_symbols():
    f = FuncSymbol("f1", FuncKind.SKOLEM)
    g = FuncSymbol("f1", FuncKind.SKOLEM)
    with pytest.raises(Exception):
        SOtgd((f, g), ())


# ---------------------------------------------------------------------------
# constant hoisting


def test_hoist_without_constants_returns_the_same_object():
    impl = NormalizedImplication(("x",), (atom("r", "x"),), atom("s", "x"))
    assert hoist_constants(impl) is impl


def test_hoist_prepends_equality_guards():
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Const(3), Var("x"))),),
        atom("s", "x"),
    )
    out = hoist_constants(impl)
    assert out.universals == ("x", "y1")
    assert out.lhs[0] == Comparison(Var("y1"), "=", Const(3))
    assert out.lhs[1] == RelAtom("r", (Var("y1"), Var("x")))
    assert out.head == impl.head


def test_hoist_skips_variable_names_already_in_scope():
    impl = NormalizedImplication(
        ("y1",),
        (RelAtom("r", (Const(3), Var("y1"))),),
        atom("s", "y1"),
    )
    out = hoist_constants(impl)
    assert out.universals == ("y1", "y2")
    assert out.lhs[0] == Comparison(Var("y2"), "=", Const(3))


def test_hoist_leaves_head_constants_alone():
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Const("a"), Var("x"))),),
        RelAtom("s", (Const("a"), Var("x"))),
    )
    out = hoist_constants(impl)
    assert out.head.terms[0] == Const("a")


def test_hoist_passes_builtin_literals_through():
    impl = NormalizedImplication(
        ("x",),
        (
            NotNull(Var("x")),
            RelAtom("r", (Const(1), Var("x"))),
            Comparison(Var("x"), "<", Const(9)),
        ),
        atom("s", "x"),
    )
    out = hoist_constants(impl)
    # one guard, then the original literal sequence with the atom rewritten
    assert isinstance(out.lhs[0], Comparison) and out.lhs[0].left == Var("y1")
    assert out.lhs[1] == NotNull(Var("x"))
    assert out.lhs[2] == RelAtom("r", (Var("y1"), Var("x")))
    assert out.lhs[3] == Comparison(Var("x"), "<", Const(9))


def test_hoist_rewrites_negated_atoms_too():
    impl = NormalizedImplication(
        ("x",),
        (atom("r", "x"), RelAtom("q", (Const(7),), True)),
        atom("s", "x"),
    )
    out = hoist_constants(impl)
    assert out.lhs[0] == Comparison(Var("y1"), "=", Const(7))
    assert out.lhs[2] == RelAtom("q", (Var("y1"),), True)


def test_hoist_one_variable_per_occurrence():
    impl = NormalizedImplication(
        ("x",),
        (RelAtom("r", (Const(3), Const(3), Var("x"))),),
        atom("s", "x"),
    )
    out = hoist_constants(impl)
    assert out.universals == ("x", "y1", "y2")
    assert out.lhs[2].terms == (Var("y1"), Var("y2"), Var("x"))


# ---------------------------------------------------------------------------
# normalization


def test_normalize_splits_multiple_heads():
    conj = SOtgdConjunct(("x",), (atom("r", "x"),), (atom("s", "x"), atom("t", "x")))
    out = normalize(SOtgd((), (conj,)))
    assert [i.head.relation for i in out] == ["s", "t"]
    assert all(i.lhs == conj.lhs for i in out)
    assert all(i.universals == ("x",) for i in out)


def test_normalize_keeps_the_tautology():
    assert normalize(TAUT_SOTGD) == [TAUT_IMPLICATION]
    assert TAUT_IMPLICATION.is_tautology


def test_normalize_rejects_empty_symbol_heads():
    conj = SOtgdConjunct(("x",), (atom("r", "x"),), (atom("s", "x"), TAUT_ATOM))
    with pytest.raises(SafetyError):
        normalize(SOtgd((), (conj,)))


def test_normalize_hoists_constants():
    conj = SOtgdConjunct(
        ("x",), (RelAtom("r", (Const(5), Var("x"))),), (atom("s", "x"),)
    )
    (impl,) = normalize(SOtgd((), (conj,)))
    assert impl.lhs[0] == Comparison(Var("y1"), "=", Const(5))


def test_normalize_rejects_unsafe_conjuncts():
    conj = SOtgdConjunct(("x", "y"), (atom("r", "x"),), (atom("s", "x"),))
    with pytest.raises(SafetyError):
        normalize(SOtgd((), (conj,)))


# ---------------------------------------------------------------------------
# comparison semantics


def eval_comparison(op, a, b):
    """Whether ``a op b`` holds in generated code: a search with no atoms
    whose one test compares the two constants."""
    program, consts, funcs, _ = _compiled("search", (), [Comparison(Const(a), op, Const(b))])
    holds = next(program.run((), consts, funcs, (), ()), None) is not None
    # the negated test holds exactly where the plain one fails
    negated = Comparison(Const(a), op, Const(b), negated=True)
    program, consts, funcs, _ = _compiled("search", (), [negated])
    assert (next(program.run((), consts, funcs, (), ()), None) is None) is holds
    assert holds is interp_oracle.eval_comparison(op, a, b)
    return holds


@pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
def test_null_satisfies_no_comparison(op):
    assert eval_comparison(op, NULL, NULL) is False
    assert eval_comparison(op, NULL, 1) is False
    assert eval_comparison(op, "a", NULL) is False


def test_equality_is_syntactic():
    assert eval_comparison("=", "a", "a")
    assert not eval_comparison("=", 1, "1")
    assert eval_comparison("!=", 1, "1")


def test_order_is_integer_only():
    assert eval_comparison("<", 1, 2)
    assert eval_comparison("<=", 2, 2)
    assert eval_comparison(">", 3, 2)
    assert eval_comparison(">=", 2, 2)
    assert not eval_comparison("<", "1", "2")
    assert not eval_comparison("<", 1, "2")
    assert not eval_comparison(">", "b", "a")


# ---------------------------------------------------------------------------
# instance validation


def two_rel_schema():
    return Schema(
        "S",
        [RelationSymbol("p", ("c1",)), RelationSymbol("q", ("c1", "c2"))],
    )


def test_validation_report_ok_when_no_violations():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,)], "q": [(1, 1)]})
    dep = Tgd(("x",), (atom("p", "x"),), (atom("q", "x", "x"),))
    report = validate_instance(inst, [dep])
    assert report.ok
    assert report.violations == ()


def test_tgd_violation_carries_universal_witness():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,), (2,)], "q": [(1, 1)]})
    dep = Tgd(("x",), (atom("p", "x"),), (atom("q", "x", "x"),))
    report = validate_instance(inst, [dep])
    assert not report.ok
    (v,) = report.violations
    assert v.constraint == dep
    assert v.witness == (("x", 2),)


def test_rhs_existential_witnessed_by_any_row():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,)], "q": [(1, 9)]})
    dep = Tgd(
        ("x",), (atom("p", "x"),), (atom("q", "x", "z"),), rhs_exists=("z",)
    )
    assert validate_instance(inst, [dep]).ok


def test_lhs_existential_assignments_collapse_to_one_witness():
    schema = two_rel_schema()
    inst = build_instance(schema, {"q": [(1, 5), (1, 6)]})
    dep = Tgd(
        ("x",), (atom("q", "x", "w"),), (atom("p", "x"),), lhs_exists=("w",)
    )
    report = validate_instance(inst, [dep])
    assert [v.witness for v in report.violations] == [(("x", 1),)]


def test_egd_violation_per_conflicting_pair():
    schema = two_rel_schema()
    inst = build_instance(schema, {"q": [(1, 5), (1, 6)]})
    dep = Egd(
        ("x", "y1", "y2"),
        (atom("q", "x", "y1"), atom("q", "x", "y2")),
        (("y1", "y2"),),
    )
    report = validate_instance(inst, [dep])
    assert not report.ok
    witnessed = {v.witness for v in report.violations}
    assert (("x", 1), ("y1", 5), ("y2", 6)) in witnessed


def test_egd_holds_on_functional_relation():
    schema = two_rel_schema()
    inst = build_instance(schema, {"q": [(1, 5), (2, 6)]})
    dep = Egd(
        ("x", "y1", "y2"),
        (atom("q", "x", "y1"), atom("q", "x", "y2")),
        (("y1", "y2"),),
    )
    assert validate_instance(inst, [dep]).ok


def test_null_values_violate_equality_constraints():
    schema = two_rel_schema()
    inst = build_instance(schema, {"q": [(1, NULL)]})
    dep = Egd(
        ("x", "y1", "y2"),
        (atom("q", "x", "y1"), atom("q", "x", "y2")),
        (("y1", "y2"),),
    )
    # NULL never compares equal, not even to itself
    assert not validate_instance(inst, [dep]).ok


def test_negated_atom_and_notnull_in_lhs():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,), (NULL,)], "q": [(1, 1)]})
    dep = Tgd(
        ("x",),
        (atom("p", "x"), NotNull(Var("x")), atom("q", "x", "x", negated=True)),
        (atom("q", "x", "x"),),
    )
    # x=1 has q(1,1), so the negated atom filters it out; x=NULL fails notnull
    assert validate_instance(inst, [dep]).ok


def test_schema_constraints_are_the_default():
    dep = Tgd(("x",), (atom("p", "x"),), (atom("q", "x", "x"),))
    schema = Schema(
        "S",
        [RelationSymbol("p", ("c1",)), RelationSymbol("q", ("c1", "c2"))],
        [dep],
    )
    inst = build_instance(schema, {"p": [(3,)]})
    report = validate_instance(inst)
    assert [v.constraint for v in report.violations] == [dep]


def test_constraint_constants_extend_the_domain():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,)]})
    dep = Tgd(
        ("x",),
        (atom("p", "x"), Comparison(Var("x"), "<", Const(5))),
        (atom("q", "x", "x"),),
    )
    # the constant 5 only appears in the constraint, never in a row
    assert not validate_instance(inst, [dep]).ok


def test_domain_parameter_feeds_unmatched_variables():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,)]})
    h = hash_tuple((1,))
    dep = Tgd(
        ("x", "b"),
        (atom("p", "x"), Comparison(Var("b"), "=", App(hash_symbol(), (Var("x"),)))),
        (atom("q", "x", "b"),),
    )
    # b occurs in no atom, so it ranges over the active domain plus `domain`;
    # hash(1) lies only in the latter
    assert validate_instance(inst, [dep]).ok
    (v,) = validate_instance(inst, [dep], domain=(0, h)).violations
    assert v.witness == (("b", h), ("x", 1))


def test_hash_terms_evaluate_inside_constraints():
    schema = two_rel_schema()
    h = hash_tuple((7,))
    inst = build_instance(schema, {"p": [(7,)], "q": [(7, h)]})
    dep = Tgd(
        ("x",),
        (atom("p", "x"),),
        (RelAtom("q", (Var("x"), App(hash_symbol(), (Var("x"),)))),),
    )
    assert validate_instance(inst, [dep]).ok
    bad = build_instance(schema, {"p": [(7,)], "q": [(7, "0" * 16)]})
    assert not validate_instance(bad, [dep]).ok


def test_skolem_terms_are_rejected_inside_constraints():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,)]})
    f = FuncSymbol("f1", FuncKind.SKOLEM)
    dep = Tgd(
        ("x",),
        (atom("p", "x"),),
        (RelAtom("q", (Var("x"), App(f, (Var("x"),)))),),
    )
    with pytest.raises(SafetyError):
        validate_instance(inst, [dep])


def test_function_patterns_in_lhs_atoms_are_rejected():
    schema = two_rel_schema()
    inst = build_instance(schema, {"q": [(1, 1)]})
    dep = Egd(
        ("x",),
        (RelAtom("q", (Var("x"), App(hash_symbol(), (Var("x"),)))),),
        (("x", "x"),),
    )
    with pytest.raises(SafetyError):
        validate_instance(inst, [dep])


def test_truth_constants_match_the_integer_one():
    schema = two_rel_schema()
    inst = build_instance(schema, {"p": [(1,)], "q": [(1, 2)]})
    dep = Tgd(
        ("y",),
        (RelAtom("p", (Const(1),)), atom("q", "y", "y", negated=True), atom("p", "y")),
        (atom("q", "y", "y"),),
    )
    # Const(1) matches the stored integer 1, so the lhs fires for y=1
    report = validate_instance(inst, [dep])
    assert [v.witness for v in report.violations] == [(("y", 1),)]


# ---------------------------------------------------------------------------
# the generated source of a validated constraint, pinned so that a reader
# can see what runs: the body search, then the head search from x and y

JOIN_CONSTRAINT_SOURCES = [
    '''\
def search(I, C, S, B, D):
    i0, = I
    for r0 in i0:
        v0 = r0[0]
        v1 = r0[1]
        yield {'x': v0, 'y': v1}
''',
    '''\
def search(I, C, S, B, D):
    i0, = I
    v0, v1 = B
    for r0 in i0.get((v1,), ()):
        v2 = r0[1]
        yield {'x': v0, 'y': v1, 'z': v2}
''',
]


def test_the_generated_source_of_a_validated_constraint_is_pinned(monkeypatch):
    # forall x, y . R(x, y) -> S(y, z), of the join project
    project = load_example("join")
    sources = []
    compiled = logic._compiled

    def recording_compiled(*args):
        program, *rest = compiled(*args)
        sources.append(program.source)
        return (program, *rest)

    monkeypatch.setattr(logic, "_compiled", recording_compiled)
    report = validate_instance(project.instance("a"), domain=project.domain)
    assert len(report.violations) == 1
    assert sources == JOIN_CONSTRAINT_SOURCES
