"""The law checkers against their direct definitions in ``law_oracle.py``:
satisfaction and constraint validation give the same reports, order
included; mapping terms and guards evaluate as the oracle's constraint
evaluator does.  Flux invariance of saturation has no checker in the
package: the oracle's checker holds on the generated cases and fails on
extras that move the flux."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dbmorph import logic, saturation
from dbmorph.errors import DbmorphError, SafetyError
from dbmorph.interp import TarskiInterpretation, alpha_star, satisfies
from dbmorph.irdb import hash_tuple
from dbmorph.logic import (
    COMPARISON_OPS,
    App,
    Comparison,
    Const,
    Egd,
    FuncKind,
    FuncSymbol,
    NotNull,
    RelAtom,
    Tgd,
    Var,
    hash_symbol,
    validate_instance,
)
from dbmorph.model import NULL, RelationSymbol, Schema, sort_rows
from dbmorph.saturation import ExtraFunction

import interp_oracle
import law_oracle as oracle
from conftest import build_instance
from test_saturation import oracle_case, oracle_cases

# ---------------------------------------------------------------------------
# satisfaction


@settings(max_examples=100, deadline=None)
@given(oracle_cases(), st.data())
def test_satisfies_matches_the_oracle(case, data):
    _, arrow, it = case
    # drop target rows so that images leave their targets
    target = {}
    for name in ("s", "s2", "s3"):
        rows = sort_rows(it.target.rows(name))
        keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        target[name] = [row for row, kept in zip(rows, keep) if kept]
    it = TarskiInterpretation(it.source, build_instance(it.target.schema, target), it.skolem)
    morphism = alpha_star(it, arrow)
    assert satisfies(morphism) == oracle.satisfies(morphism)


# ---------------------------------------------------------------------------
# flux invariance


def _select_every_row(it, op):
    """A wrong selector: every target row, whatever the simple-variable
    positions hold, in one group under one key."""
    return lambda produced: (), {(): sort_rows(it.target.rows(op.target))}


def _accept_every_candidate(component, op_index, heads, g, trigger, produced, candidate):
    """A wrong extra builder: no candidate is skipped, so that with the
    wrong selector extras disagree with their base at simple positions."""
    return ExtraFunction(component, op_index, component.op.name, trigger, candidate, ())


def move_the_flux(mp):
    # the selector alone cannot do it: ``_candidate_extra`` skips every
    # candidate that differs from the base at a non-skolem head position
    mp.setattr(saturation, "_selector", _select_every_row)
    mp.setattr(saturation, "_candidate_extra", _accept_every_candidate)


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_flux_invariance_matches_the_oracle(case):
    _, arrow, it = case
    report = oracle.check_flux_invariance(it, arrow)
    assert report.ok, report.failures


def moving_case():
    """Three triggers of ``r2(x, y) -> s2(x, f1(x))``; the target holds rows
    that agree with them at the simple position and rows that do not."""
    _, arrow, it = oracle_case(
        [0],
        {"r2": [(0, 1), (1, 1), (0, 0)]},
        {"f1": ["a"] * 4},
        {"s2": [(0, "b"), (1, "b"), ("a", "a"), ("a", 1)]},
    )
    return arrow, it


def test_extras_that_move_the_flux_fail_both_laws(monkeypatch):
    arrow, it = moving_case()
    assert oracle.check_flux_invariance(it, arrow).ok
    move_the_flux(monkeypatch)
    report = oracle.check_flux_invariance(it, arrow)
    kinds = Counter(failure[0] for failure in report.failures)
    assert kinds["pointwise"] > 0 and kinds["kernel"] > 0


# ---------------------------------------------------------------------------
# validation

P = "P"
Q = "Q"
VALIDATION_SCHEMA = Schema("A", [RelationSymbol(P, ("a",)), RelationSymbol(Q, ("a", "b"))])
VALUES = (0, 1, "a", NULL)
x, y, z = Var("x"), Var("y"), Var("z")
SKOLEM = FuncSymbol("f", FuncKind.SKOLEM)


def atom(name, *terms, negated=False):
    return RelAtom(name, terms, negated)


# each kind of constraint the validator meets
CONSTRAINTS = (
    # an rhs existential
    Tgd(("x", "y"), (atom(Q, x, y),), (atom(Q, y, z),), rhs_exists=("z",)),
    # an lhs existential, so one witness can come from several assignments,
    # and a negated atom
    Tgd(("x",), (atom(Q, x, y), atom(P, y, negated=True)), (atom(P, x),), lhs_exists=("y",)),
    # a comparison and notnull
    Tgd(("x", "y"), (atom(Q, x, y), Comparison(x, "!=", y), NotNull(y)), (atom(Q, y, x),)),
    # a constant in an atom on either side
    Tgd(("x",), (atom(Q, x, Const(1)),), (atom(P, x),)),
    Tgd(("x",), (atom(P, x),), (atom(Q, x, Const(1)),)),
    # a hash term in the head
    Tgd(("x",), (atom(P, x),), (atom(Q, x, App(hash_symbol(), (x,))),)),
    # a negated atom over a variable that no positive atom binds
    Tgd(("x", "y"), (atom(P, x), atom(Q, x, y, negated=True)), (atom(P, y),)),
    # no universals: the only witness is the empty assignment
    Tgd((), (atom(P, Const(1)),), (atom(P, Const(1)),)),
    Tgd((), (atom(Q, y, z),), (atom(P, Const(0)),), lhs_exists=("y", "z")),
    # an egd
    Egd(("x", "y", "z"), (atom(Q, x, y), atom(Q, x, z)), (("y", "z"),)),
    # a hash head over an rhs existential, which ranges over the domain
    Tgd(("x",), (atom(P, x),), (atom(Q, x, App(hash_symbol(), (z,))),), rhs_exists=("z",)),
    # a repeated variable
    Tgd(("x",), (atom(Q, x, x),), (atom(P, x),)),
)
# constraints no validator can decide: both must raise alike
UNDECIDABLE = (
    Tgd(("x",), (atom(P, x),), (atom(P, App(SKOLEM, (x,))),)),
    Tgd(("x",), (atom(P, App(hash_symbol(), (x,))),), (atom(P, x),)),
    # the function term is reached only through a row that agrees at x
    Tgd(("x",), (atom(P, x), atom(Q, x, App(hash_symbol(), (x,)))), (atom(P, x),)),
)


def outcome(validate, inst, constraints, domain):
    try:
        return validate(inst, constraints, domain)
    except DbmorphError as exc:
        return type(exc)


@st.composite
def validation_cases(draw):
    values = st.sampled_from(VALUES)
    rows = {
        P: draw(st.frozensets(st.tuples(values), max_size=4)),
        Q: draw(st.frozensets(st.tuples(values, values), max_size=6)),
    }
    pool = CONSTRAINTS + (UNDECIDABLE if draw(st.booleans()) else ())
    # repeats allowed: a constraint listed twice reports each witness once
    constraints = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    domain = draw(st.frozensets(st.sampled_from((2, "b")), max_size=2))
    return build_instance(VALIDATION_SCHEMA, rows), constraints, domain


@settings(max_examples=300, deadline=None)
@given(validation_cases())
def test_validation_matches_the_oracle(case):
    assert outcome(validate_instance, *case) == outcome(oracle.validate_instance, *case)


def test_the_validation_cases_reach_every_shape():
    inst = build_instance(
        VALIDATION_SCHEMA,
        {P: [(1,), ("a",)], Q: [(0, 0), (0, NULL), (0, 1), (0, "a"), (1, 1), (NULL, 0)]},
    )
    report = validate_instance(inst, CONSTRAINTS + CONSTRAINTS)
    assert report == oracle.validate_instance(inst, CONSTRAINTS + CONSTRAINTS)
    # a constraint listed twice reports each witness once
    assert report == validate_instance(inst, CONSTRAINTS)
    witnesses = {c: [v.witness for v in report.violations if v.constraint == c] for c in CONSTRAINTS}
    # x = 0 violates the lhs-existential tgd through y = 0 and y = NULL
    assert witnesses[CONSTRAINTS[1]] == [(("x", NULL),), (("x", 0),)]
    # P(1) holds: the empty assignment witnesses the head, though falsy
    assert witnesses[CONSTRAINTS[7]] == []
    assert witnesses[CONSTRAINTS[8]] == [()]
    assert len(witnesses[CONSTRAINTS[9]]) == 13
    for constraint in UNDECIDABLE:
        assert outcome(validate_instance, inst, [constraint], ()) is SafetyError
        assert outcome(oracle.validate_instance, inst, [constraint], ()) is SafetyError


@pytest.mark.parametrize(
    "row, expected", [((1, 2, 3), logic.ValidationReport(())), ((1, 1, 3), SafetyError)]
)
def test_a_body_function_term_raises_once_a_row_agrees_before_it(row, expected):
    # forall x . P(x, x, hash(x)) -> Q(x): a row raises only when it agrees
    # with the atom at every position before the function term
    schema = Schema("S", [RelationSymbol(P, ("a", "b", "c")), RelationSymbol(Q, ("a",))])
    inst = build_instance(schema, {P: [row], Q: []})
    tgd = Tgd(("x",), (atom(P, x, x, App(hash_symbol(), (x,))),), (atom(Q, x),))
    for validate in (validate_instance, oracle.validate_instance):
        assert outcome(validate, inst, [tgd], ()) == expected


def test_a_constraint_longer_than_one_generated_function():
    # twenty body atoms and a free variable: the search goes on in a
    # second generated function
    n = 20
    inst = build_instance(VALIDATION_SCHEMA, {P: [(0,)], Q: [(0, 0), (0, 1), (1, 1), (1, NULL)]})
    body = tuple(atom(Q, Var(f"x{i}"), Var(f"x{i + 1}")) for i in range(n))
    names = tuple(f"x{i}" for i in range(n + 1))
    guard = Comparison(Var("w"), "<", Var(f"x{n}"))
    tgd = Tgd(names, body + (guard,), (atom(P, Var(f"x{n}")),), lhs_exists=("w",))
    report = validate_instance(inst, [tgd])
    assert report == oracle.validate_instance(inst, [tgd])
    # the body holds for each non-decreasing 0/1 sequence that ends in 1
    assert len(report.violations) == n + 1


def test_the_key_egd_sorts_its_relation_twice(monkeypatch):
    # one index per (relation, positions): the first atom reads K whole,
    # the second by x1; sorting K per partial match would take 201 sorts
    k = RelationSymbol("K", ("a", "b"))
    inst = build_instance(Schema("S", [k]), {"K": [(i, i) for i in range(200)]})
    key = Egd(("x", "y", "z"), (atom("K", x, y), atom("K", x, z)), (("y", "z"),))
    sorts = Counter()
    sort_rows = logic.sort_rows

    def counting_sort_rows(rows):
        sorts["sort_rows"] += 1
        return sort_rows(rows)

    monkeypatch.setattr(logic, "sort_rows", counting_sort_rows)
    assert validate_instance(inst, [key]).ok
    assert sorts["sort_rows"] == 2


def test_head_atoms_are_matched_not_tested(monkeypatch):
    # a search of the head's existentials through the domain would test
    # Q(x, y, z) at every pair of domain values
    schema = Schema("S", [RelationSymbol(P, ("a",)), RelationSymbol("Q3", ("a", "b", "c"))])
    inst = build_instance(
        schema, {P: [(i,) for i in range(30)], "Q3": [(i, i, i) for i in range(0, 30, 2)]}
    )
    head = atom("Q3", x, y, z)
    tgd = Tgd(("x",), (atom(P, x),), (head,), rhs_exists=("y", "z"))
    tested, matched = Counter(), Counter()
    compiled = logic._compiled

    def counting_compiled(mode, atoms, tests=(), head=(), bound=(), free=()):
        matched.update(tuple(atom) for atom in atoms)
        tested.update(tests)
        return compiled(mode, atoms, tests, head, bound, free)

    monkeypatch.setattr(logic, "_compiled", counting_compiled)
    report = validate_instance(inst, [tgd])
    assert [v.witness for v in report.violations] == [(("x", i),) for i in range(1, 30, 2)]
    assert tested[head] == 0 and matched[head.terms] == 1


# ---------------------------------------------------------------------------
# term and guard evaluation

# a hash value among the constants, so that hash terms can compare equal
TERM_VALUES = (0, 1, 2, "a", "1", hash_tuple((1,)), NULL)


@st.composite
def evaluation_cases(draw):
    """A skolem-free term, a guard and an assignment of its variables."""
    leaves = st.one_of(
        st.sampled_from((x, y, z)),
        st.sampled_from(TERM_VALUES).map(Const),
    )
    terms = st.recursive(
        leaves,
        lambda inner: st.lists(inner, min_size=1, max_size=3).map(
            lambda args: App(hash_symbol(), tuple(args))
        ),
        max_leaves=6,
    )
    guard = draw(
        st.one_of(
            st.builds(Comparison, terms, st.sampled_from(COMPARISON_OPS), terms, st.booleans()),
            st.builds(NotNull, terms, st.booleans()),
        )
    )
    values = st.sampled_from(TERM_VALUES)
    g = {"x": draw(values), "y": draw(values), "z": draw(values)}
    return draw(terms), guard, g


def subterms(term):
    yield term
    if isinstance(term, App):
        for arg in term.args:
            yield from subterms(arg)


@settings(max_examples=300, deadline=None)
@given(evaluation_cases())
def test_term_and_guard_evaluation_match_the_oracle(case):
    term, guard, g = case
    empty = build_instance(VALIDATION_SCHEMA, {})
    it = TarskiInterpretation(empty, empty, {})
    # every subterm, so that constants and variables are also met outside
    # hash arguments and comparisons: a head term of a generated join over
    # one row that binds x, y and z, as evaluation runs it
    row = (g["x"], g["y"], g["z"])
    for t in subterms(term):
        program, consts, funcs, _ = logic._compiled("graph", [("x", "y", "z")], (), (t,))
        ((value,),) = program.run(([row],), consts, funcs).values()
        assert value == oracle._eval_constraint_term(t, g, empty)
        assert value == interp_oracle._compile_term(t, it.skolem_value)(g)
    # the guard as the one test of a search from x, y and z, as validation
    # runs it
    program, consts, funcs, _ = logic._compiled("search", (), (guard,), (), ("x", "y", "z"))
    holds = next(program.run((), consts, funcs, row, ()), None) is not None
    assert holds == oracle._literal_holds(guard, g, empty)
    assert holds == interp_oracle._compile_literal(guard, None, it.skolem_value)(g)
