"""Mapping DSL: parser, pretty-printer, and their round trip."""

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dbmorph import (
    App,
    Comparison,
    Const,
    Egd,
    FuncKind,
    NULL,
    NotNull,
    ParseError,
    RelAtom,
    SOtgd,
    Tgd,
    Var,
    parse_mapping,
    pretty_mapping,
)
from dbmorph.logic import TAUT_SOTGD

FIXTURES = Path(__file__).parent / "fixtures"

ALL_MAPPING_FILES = sorted(FIXTURES.glob("**/*.map"))


def test_fixture_corpus_is_present():
    assert len(ALL_MAPPING_FILES) >= 7


@pytest.mark.parametrize("path", ALL_MAPPING_FILES, ids=lambda p: str(p.relative_to(FIXTURES)))
def test_round_trip_on_fixture_mappings(path):
    parsed = parse_mapping(path.read_text(encoding="utf-8"))
    printed = pretty_mapping(parsed)
    again = parse_mapping(printed)
    if isinstance(parsed, SOtgd):
        assert again == parsed
    else:
        assert list(again) == list(parsed)
    # printing is already a fixpoint
    assert pretty_mapping(again) == printed


def test_taut_parses_to_the_trivial_sotgd():
    assert parse_mapping("taut") is TAUT_SOTGD
    assert pretty_mapping(TAUT_SOTGD) == "taut"


def test_tgd_form_yields_dependencies():
    deps = parse_mapping("forall x . p(x) -> q(x) && forall x . r(x) -> q(x)")
    assert len(deps) == 2
    assert all(isinstance(d, Tgd) for d in deps)
    assert deps[0].lhs == (RelAtom("p", (Var("x"),)),)
    assert deps[0].rhs == (RelAtom("q", (Var("x"),)),)


def test_head_only_variable_is_an_implicit_rhs_existential():
    (dep,) = parse_mapping("forall x . p(x) -> q(x, y)")
    assert dep.rhs_exists == ("y",)
    assert dep.lhs_exists == ()


def test_lhs_only_variable_is_an_implicit_lhs_existential():
    (dep,) = parse_mapping("forall x . p(x, y) -> q(x)")
    assert dep.lhs_exists == ("y",)
    assert dep.rhs_exists == ()


def test_variable_on_both_sides_must_be_declared():
    with pytest.raises(ParseError, match="both sides"):
        parse_mapping("forall x . p(x, y) -> q(y)")


def test_sotgd_form_binds_functions_and_requires_bound_variables():
    sotgd = parse_mapping("exists f1 . forall x . p(x) -> q(x, f1(x))")
    assert isinstance(sotgd, SOtgd)
    assert [f.name for f in sotgd.functions] == ["f1"]
    assert sotgd.functions[0].kind is FuncKind.SKOLEM
    with pytest.raises(ParseError, match="not bound"):
        parse_mapping("exists f1 . forall x . p(x) -> q(y, f1(x))")


def test_sotgd_form_rejects_duplicate_functions():
    with pytest.raises(ParseError, match="duplicate function"):
        parse_mapping("exists f1, f1 . forall x . p(x) -> q(f1(x))")


def test_unknown_function_symbol_is_an_error():
    with pytest.raises(ParseError, match="unknown function"):
        parse_mapping("forall x . p(x) -> q(g(x))")


def test_hash_is_a_builtin_not_a_declarable_name():
    (dep,) = parse_mapping('forall x . p(x) -> q(hash(x))')
    app = dep.rhs[0].terms[0]
    assert isinstance(app, App) and app.func.kind is FuncKind.HASH
    with pytest.raises(ParseError, match="reserved"):
        parse_mapping("exists hash . forall x . p(x) -> q(hash(x))")


def test_egd_head_is_a_conjunction_of_equalities():
    (dep,) = parse_mapping("forall x, y, z . p(x, y) & p(x, z) -> y = z")
    assert isinstance(dep, Egd)
    assert dep.equalities == (("y", "z"),)


def test_egd_heads_cannot_mix_with_atoms():
    with pytest.raises(ParseError, match="mixes"):
        parse_mapping("forall x, y . p(x, y) -> y = x & q(x)")


def test_egd_equates_variables_only():
    with pytest.raises(ParseError, match="equate variables"):
        parse_mapping("forall x, y . p(x, y) -> y = 5")


def test_only_equality_may_head_a_conjunct():
    with pytest.raises(ParseError, match="only '='"):
        parse_mapping("forall x, y . p(x, y) -> y != x")


def test_sotgd_form_rejects_equality_heads():
    with pytest.raises(ParseError, match="not allowed in an SOtgd"):
        parse_mapping("exists f1 . forall x, y . p(x, y) -> x = y")


def test_lhs_literals_comparisons_negation_notnull():
    (dep,) = parse_mapping(
        'forall x, y . p(x, y) & not q(y) & x != 3 & notnull(y) & y <= x -> s(x)'
    )
    kinds = [type(l).__name__ for l in dep.lhs]
    assert kinds == ["RelAtom", "RelAtom", "Comparison", "NotNull", "Comparison"]
    assert dep.lhs[1].negated
    assert dep.lhs[2] == Comparison(Var("x"), "!=", Const(3))
    assert dep.lhs[4].op == "<="


def test_negated_notnull():
    (dep,) = parse_mapping("forall x, y . p(x, y) & not notnull(y) -> s(x)")
    lit = dep.lhs[1]
    assert isinstance(lit, NotNull) and lit.negated


def test_notnull_takes_one_argument():
    with pytest.raises(ParseError, match="exactly one"):
        parse_mapping("forall x, y . p(x, y) & notnull(x, y) -> s(x)")


def test_constants_null_strings_numbers():
    (dep,) = parse_mapping('forall x . p(x, null, "a b", 42) -> q(x)')
    terms = dep.lhs[0].terms
    assert terms[1] == Const(NULL)
    assert terms[2] == Const("a b")
    assert terms[3] == Const(42)


def test_string_escapes_round_trip():
    text = 'forall x . p(x, "a\\"b\\\\c\\nd\\te") -> q(x)'
    (dep,) = parse_mapping(text)
    assert dep.lhs[0].terms[1] == Const('a"b\\c\nd\te')
    assert parse_mapping(pretty_mapping([dep])) == [dep]


def test_identifiers_may_carry_apostrophes():
    (dep,) = parse_mapping("forall w, w' . p(w, w') -> q(w)")
    assert dep.universals == ("w", "w'")


def test_reserved_words_cannot_name_things():
    for bad in ("exists", "forall", "not", "null", "taut", "notnull"):
        with pytest.raises(ParseError, match="reserved"):
            parse_mapping(f"forall {bad} . p({bad}) -> q({bad})")


def test_relation_arity_must_be_consistent():
    with pytest.raises(ParseError, match="arity"):
        parse_mapping("forall x, y . p(x, y) & p(x) -> q(x)")


def test_function_arity_must_be_consistent():
    with pytest.raises(ParseError, match="arity"):
        parse_mapping("exists f1 . forall x, y . p(x, y) -> q(f1(x), f1(x, y))")


def test_duplicate_universals_are_rejected():
    with pytest.raises(ParseError, match="duplicate variable"):
        parse_mapping("forall x, x . p(x, x) -> q(x)")


def test_empty_argument_lists_are_rejected():
    with pytest.raises(ParseError, match="empty argument"):
        parse_mapping("forall x . p() -> q(x)")


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_mapping("forall x .\n p(x) ->\n q(x")
    assert err.value.line == 3
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_mapping('forall x . p(x, "oops) -> q(x)')
    assert err.value.line == 1
    assert err.value.column == 17


def test_unexpected_character_is_located():
    with pytest.raises(ParseError) as err:
        parse_mapping("forall x . p(x) -> q(x) ;")
    assert err.value.column == 25


def test_numbers_are_decimal_digits():
    # "²" is a digit to str.isdigit, but no decimal number
    with pytest.raises(ParseError, match="unexpected character '²'") as err:
        parse_mapping("forall x . p(x) & x = ² -> q(x)")
    assert err.value.column == 23
    (dep,) = parse_mapping("forall x . p(x, ٤٢) -> q(x)")
    assert dep.lhs[0].terms[1] == Const(42)


def test_trailing_tokens_are_an_error():
    with pytest.raises(ParseError, match="expected"):
        parse_mapping("taut taut")
    with pytest.raises(ParseError):
        parse_mapping("forall x . p(x) -> q(x) extra")


# randomized round trip: small tgd lists built from a fixed name pool

idents = st.sampled_from(["x", "y", "z", "w'"])
rel_names = st.sampled_from(["p", "q2", "r_a"])
consts = st.one_of(
    st.integers(0, 99).map(Const),
    st.sampled_from(["it", 'quo"te', "a b"]).map(Const),
    st.just(Const(NULL)),
)


@st.composite
def tgds(draw):
    universals = tuple(sorted(draw(st.sets(idents, min_size=1, max_size=3))))
    def atom(rel, width, pool):
        terms = tuple(
            Var(draw(st.sampled_from(pool))) if draw(st.booleans()) else draw(consts)
            for _ in range(width)
        )
        return RelAtom(rel, terms, negated=draw(st.booleans()))
    # every universal occurs in the first lhs atom, so the tgd is safe
    lead = RelAtom("p0", tuple(Var(v) for v in universals))
    lhs = (lead,) + tuple(
        atom(draw(rel_names), draw(st.integers(1, 2)), universals)
        for _ in range(draw(st.integers(0, 2)))
    )
    head = RelAtom(
        "h",
        tuple(
            Var(draw(st.sampled_from(universals)))
            for _ in range(draw(st.integers(1, 2)))
        ),
    )
    return Tgd(universals, lhs, (head,))


@given(st.lists(tgds(), min_size=1, max_size=3))
def test_round_trip_on_generated_tgds(deps):
    # arities must be consistent across the whole mapping text
    seen = {}
    for dep in deps:
        for atom in list(dep.lhs) + list(dep.rhs):
            if seen.setdefault(atom.relation, len(atom.terms)) != len(atom.terms):
                return
    text = pretty_mapping(deps)
    assert parse_mapping(text) == deps
