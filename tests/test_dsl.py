"""Mapping DSL: parser, pretty-printer, and their round trip."""

import functools
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dsl_oracle as oracle
from dbmorph import (
    App,
    Comparison,
    Const,
    Egd,
    FuncKind,
    FuncSymbol,
    NULL,
    NotNull,
    ParseError,
    RelAtom,
    SOtgd,
    SOtgdConjunct,
    Tgd,
    Var,
    dsl,
    load_project,
    parse_mapping,
    pretty_mapping,
)
from dbmorph.logic import COMPARISON_OPS, TAUT_SOTGD, hash_symbol, literal_variables, term_variables

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


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("a\rb\x1b[0m\x7f\x85")
def test_printed_strings_hold_no_control_character_and_parse_back(text):
    printed = dsl.pretty_term(Const(text))
    assert not any(unicodedata.category(c) == "Cc" for c in printed)
    (dep,) = parse_mapping(f"forall x . p(x, {printed}) -> q(x)")
    assert dep.lhs[0].terms[1] == Const(text)


def test_control_characters_print_as_escapes():
    assert dsl.pretty_term(Const("a\rb\x00\x1b\x7f\x85\x9f\n\t")) == (
        '"a\\rb\\x00\\x1b\\x7f\\x85\\x9f\\n\\t"'
    )
    (dep,) = parse_mapping('forall x . p(x, "\\x41\\x7F\\r") -> q(x)')
    assert dep.lhs[0].terms[1] == Const("A\x7f\r")


@pytest.mark.parametrize("bad", ['"\\x4"', '"\\xg0"', '"\\x"', '"\\X41"'])
def test_hex_escape_needs_two_hex_digits(bad):
    with pytest.raises(ParseError, match=f"unknown escape \\\\{bad[2]}") as err:
        parse_mapping(f"forall x . p(x, {bad}) -> q(x)")
    assert (err.value.line, err.value.column) == (1, 18)


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


# randomized round trip over the whole surface syntax: SOtgds with skolem
# and hash head terms, egds, every built-in literal, every constant kind,
# escaped strings and non-ASCII names

RELATIONS = {"p": 1, "q'": 2, "rö": 3, "_s": 2}
FUNCTIONS = {"f": 1, "g'": 2, "ℓ": 1}
# universals, lhs-only and head-only variables come from disjoint pools
UNIVERSALS = ("x", "y'", "é", "αβ")
LHS_ONLY = ("u", "ñ2")
HEAD_ONLY = ("w", "_z")
universal_lists = st.lists(st.sampled_from(UNIVERSALS), min_size=1, max_size=3, unique=True)
strings = st.text(alphabet='"\\\n\t\ra é ßZ', max_size=6)
constants = st.one_of(
    st.integers(0, 10**6).map(Const), strings.map(Const), st.just(Const(NULL))
)


@functools.lru_cache(maxsize=None)
def mapping_terms(variables, functions, depth=2):
    leaves = st.one_of(st.sampled_from(variables).map(Var), constants)
    if depth == 0:
        return leaves
    inner = mapping_terms(variables, functions, depth - 1)
    apps = [st.lists(inner, min_size=1, max_size=2).map(lambda args: App(hash_symbol(), args))]
    apps += [
        st.lists(inner, min_size=arity, max_size=arity).map(
            lambda args, sym=FuncSymbol(name, FuncKind.SKOLEM): App(sym, args)
        )
        for name, arity in FUNCTIONS.items()
        if name in functions
    ]
    return st.one_of(leaves, *apps)


def atoms(terms, negatable):
    return st.sampled_from(sorted(RELATIONS)).flatmap(
        lambda rel: st.builds(
            RelAtom,
            st.just(rel),
            st.lists(terms, min_size=RELATIONS[rel], max_size=RELATIONS[rel]),
            st.booleans() if negatable else st.just(False),
        )
    )


def literals(terms):
    return st.one_of(
        atoms(terms, negatable=True),
        st.builds(Comparison, terms, st.sampled_from(COMPARISON_OPS), terms),
        st.builds(NotNull, terms, st.booleans()),
    )


def first_seen(names, pool):
    return tuple(dict.fromkeys(v for v in names if v in pool))


@st.composite
def tgds_with_builtins(draw):
    universals = tuple(draw(universal_lists))
    lhs = draw(st.lists(literals(mapping_terms(universals + LHS_ONLY, ())), min_size=1, max_size=3))
    head_terms = mapping_terms(universals + HEAD_ONLY, ())
    head = draw(st.lists(atoms(head_terms, negatable=False), min_size=1, max_size=2))
    lhs_exists = first_seen((v for lit in lhs for v in literal_variables(lit)), LHS_ONLY)
    rhs_exists = first_seen((v for a in head for t in a.terms for v in term_variables(t)), HEAD_ONLY)
    return Tgd(universals, lhs, head, lhs_exists, rhs_exists)


@st.composite
def egds(draw):
    universals = draw(universal_lists)
    lead = RelAtom("p", (Var(universals[0]),))
    flat = st.one_of(st.sampled_from(universals).map(Var), constants)
    lhs = [lead] + draw(st.lists(atoms(flat, negatable=False), max_size=2))
    seen = sorted({v for a in lhs for t in a.terms for v in term_variables(t)})
    pairs = st.tuples(st.sampled_from(seen), st.sampled_from(seen))
    return Egd(universals, lhs, draw(st.lists(pairs, min_size=1, max_size=2)))


@st.composite
def sotgds(draw):
    functions = tuple(
        draw(st.lists(st.sampled_from(sorted(FUNCTIONS)), min_size=1, max_size=3, unique=True))
    )
    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        universals = tuple(draw(universal_lists))
        terms = mapping_terms(universals, functions)
        lhs = draw(st.lists(literals(terms), min_size=1, max_size=3))
        head = draw(st.lists(atoms(terms, negatable=False), min_size=1, max_size=2))
        conjuncts.append(SOtgdConjunct(universals, lhs, head))
    return SOtgd([FuncSymbol(f, FuncKind.SKOLEM) for f in functions], conjuncts)


@settings(max_examples=100, deadline=None)
@given(st.one_of(sotgds(), st.lists(st.one_of(tgds_with_builtins(), egds()), min_size=1, max_size=3)))
def test_round_trip_on_generated_mappings(mapping):
    text = pretty_mapping(mapping)
    assert parse_mapping(text) == mapping
    assert pretty_mapping(parse_mapping(text)) == text


# differential test against the tokenizer, parser and printer as they stood
# before the tokenizer became one regular expression (tests/dsl_oracle.py)


def _error(exc):
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def located_tokens(module, text):
    """``(kind, value, line, col)`` per token; ``dsl`` gives each token's
    offset, and its line and column are counted here."""
    if module is oracle:
        return [(t.kind, t.value, t.line, t.col) for t in oracle._tokenize(text)]
    located = []
    for kind, value, offset in module._tokenize(text):
        lines = text[:offset].split("\n")
        located.append((kind, value, len(lines), len(lines[-1]) + 1))
    return located


def outcome(module, text):
    """Tokens, parse and print of ``text``; where one fails, its error."""
    try:
        tokens = located_tokens(module, text)
    except ParseError as exc:
        tokens = _error(exc)
    try:
        parsed = module.parse_mapping(text)
    except Exception as exc:
        return tokens, _error(exc)
    return tokens, parsed, module.pretty_mapping(parsed)


HOSTILE = list("afpxy_'²½٤٢019é \"\\\n\r\t()(),.&-<>=!;\f\x00\x1b\x85\udcff") + [
    "forall ", "exists ", "not ", "null", "taut", "notnull", "hash", "->", "&&", "\\n", "f1",
    "\\r", "\\x", "\\x1",
]
FIXTURE_BYTES = [path.read_bytes() for path in ALL_MAPPING_FILES]


@st.composite
def mutated_fixtures(draw):
    data = bytearray(draw(st.sampled_from(FIXTURE_BYTES)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(b"\"\\\n\r(),.&'0x\xb2\xff"), st.integers(0, 255)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "insert":
            data[at:at] = bytes([byte])
        else:
            data[at : at + 1] = b"" if edit == "delete" else bytes([byte])
    return data.decode("utf-8", "surrogateescape")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(HOSTILE), max_size=30).map("".join), mutated_fixtures()))
@example("forall ²x . p(x) -> q(x)")
@example("forall x . p(x, ٤٢) -> q(x)")
@example('forall x . p(x, "a\nb") -> q(x)')
@example('forall x . p(x, "a\r\x1b\\r\\x1B\\x4") -> q(x)')
@example('forall x . p(x, "a\\')
@example('forall x . p(x, "a\\\nb") -> q(x)')
@example("forall x .\r\n p(x, y)\r\n -> q(y) ;")
@example("forall x, x . p(x) -> q(x) && forall y . p(y) ->")
@example("forall x . p(x) & g(x) = 1 -> x = x & q(x)")
def test_tokens_parse_and_print_match_the_oracle(text):
    assert outcome(dsl, text) == outcome(oracle, text)


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("forall x . p(x) & hash(x) -> q(x)", "'hash' cannot be used as a relation", 19),
        ("forall x . p(x) -> notnull(x)", "a dependency head is a relational atom", 20),
    ],
)
def test_a_misplaced_atom_is_located(text, message, column):
    with pytest.raises(ParseError, match=f"^line 1, column {column}: {message}$") as err:
        parse_mapping(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_syntax_errors_win_over_resolution_errors():
    # the whole text is parsed before any conjunct is resolved
    with pytest.raises(ParseError, match="expected a term") as err:
        parse_mapping("forall x, x . p(x) -> q(x) && forall y . p(y) ->")
    assert (err.value.line, err.value.column) == (1, 49)
    with pytest.raises(ParseError, match="a head mixes") as err:
        parse_mapping("forall x . p(x) & g(x) = 1 -> x = x & q(x)")
    assert (err.value.line, err.value.column) == (1, 31)


# one text per located fault: the tokenizer's, the parser's and the resolver's
LOCATED_FAULTS = [
    "forall x . p(x)\n  -> q(x) ;",
    'forall x . p("a) -> q(x)',
    'forall x . p("a\\q") -> q(x)',
    'forall x . p("a\\',
    "forall ²x . p(x) -> q(x)",
    "forall x . p(x) -> q(x) q",
    "forall not . p(x) -> q(x)",
    "forall x . p(x, ->) -> q(x)",
    "forall x . p(x, not) -> q(x)",
    "forall x . p(" + "f(" * dsl._MAX_NESTING + "x" + ")" * (dsl._MAX_NESTING + 1) + " -> q(x)",
    "forall x . p() -> q(x)",
    "forall x . p(x) -> x < x",
    "forall x . x -> q(x)",
    "forall x . p(x, " + "9" * 5000 + ") -> q(x)",
    "exists f, f . forall x . p(x) -> q(f(x))",
    "exists f . forall x . p(x, y) -> q(f(x))",
    "exists f . forall x . p(x) -> q(g(x))",
    "exists f . forall x . p(x) -> q(f(x)) & r(f(x, x))",
    "exists f . forall x . p(x) -> x = x",
    "forall x . p(x) -> q(x) && forall x . p(x, x) -> q(x)",
    "forall x . p(x) & notnull(x, x) -> q(x)",
    "forall x . p(x) & taut(x) -> q(x)",
    "forall x . p(x) -> notnull(x)",
    "forall x . p(x) -> x = 1",
    "forall x . p(x) -> x = x & q(x)",
    "forall x . p(x, y) -> q(x, y)",
    "forall x, x . p(x) -> q(x)",
]


def test_a_location_is_computed_only_for_a_fault(monkeypatch):
    offsets = []
    location = dsl._location

    def counted(text, offset):
        offsets.append(offset)
        return location(text, offset)

    monkeypatch.setattr(dsl, "_location", counted)
    for path in ALL_MAPPING_FILES:
        parse_mapping(path.read_text(encoding="utf-8"))
    for path in sorted(FIXTURES.glob("*/project.json")):
        load_project(path)  # parses every schema's constraints
    assert offsets == []
    for text in LOCATED_FAULTS:
        with pytest.raises(ParseError) as err:
            parse_mapping(text)
        assert err.value.line is not None, text
        assert len(offsets) == 1, text
        assert location(text, offsets.pop()) == (err.value.line, err.value.column)
