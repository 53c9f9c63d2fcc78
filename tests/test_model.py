"""Relational core: values, relations, schemas, instances."""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from dbmorph import (
    BOTTOM,
    EMPTY_NAME,
    NULL,
    Instance,
    Relation,
    RelationSymbol,
    Schema,
    SchemaError,
    active_domain,
)
from dbmorph.model import BOTTOM_ROWS, check_values, group_rows, row_key, sort_rows, value_key

from conftest import build_instance


def test_null_is_none():
    """The missing value is Python's None, which JSON's null loads as."""
    import dbmorph

    assert NULL is None
    assert dbmorph.NULL is None
    assert json.loads("[null]") == [NULL]


def test_value_key_orders_null_before_ints_before_strings():
    values = ["b", 5, NULL, "a", -3]
    ordered = sorted(values, key=value_key)
    assert ordered == [NULL, -3, 5, "a", "b"]


def test_value_key_does_not_coerce_int_and_string():
    assert value_key(132) != value_key("132")


def test_sort_rows_is_deterministic():
    rows = {(2, "x"), (NULL, "a"), (2, "a"), (1, "z")}
    assert sort_rows(rows) == [(NULL, "a"), (1, "z"), (2, "a"), (2, "x")]


domain_values = st.one_of(st.integers(-5, 5), st.text("ab", max_size=2), st.just(NULL))


@given(st.lists(st.tuples(domain_values, domain_values)))
def test_sort_rows_is_stable_under_shuffling(rows):
    assert sort_rows(rows) == sort_rows(reversed(rows))
    assert sort_rows(sort_rows(rows)) == sort_rows(rows)


@given(
    st.one_of(
        st.lists(st.lists(st.integers(), max_size=3).map(tuple)),
        st.lists(st.lists(st.text("ab", max_size=2), max_size=3).map(tuple)),
        st.lists(st.lists(domain_values, max_size=3).map(tuple)),
    )
)
def test_sort_rows_is_row_key_order(rows):
    # rows of one value class sort as plain tuples; the order is row_key's
    assert sort_rows(rows) == sorted(rows, key=row_key)


def test_relation_symbol_rejects_duplicate_columns():
    with pytest.raises(SchemaError):
        RelationSymbol("r", ("a", "a"))


def test_relation_symbol_rejects_empty_name():
    with pytest.raises(SchemaError):
        RelationSymbol("", ("a",))


def test_relation_checks_arity():
    sym = RelationSymbol("r", ("a", "b"))
    with pytest.raises(SchemaError):
        Relation(sym, frozenset({(1,)}))


def test_relation_rejects_bools_and_floats():
    # bool is an int subclass; it must still be rejected, and an unhashable
    # value is reported before any row is hashed
    sym = RelationSymbol("r", ("a",))
    with pytest.raises(SchemaError):
        Relation(sym, frozenset({(True,)}))
    with pytest.raises(SchemaError):
        Relation(sym, frozenset({(1.5,)}))
    with pytest.raises(SchemaError) as err:
        Relation(sym, [(1,), ([2],)])
    assert str(err.value) == "relation r: [2] is not a domain value"


def test_relation_names_its_first_bad_row_in_input_order():
    # the message must not depend on the order of a set of rows, which
    # changes with the hash seed
    sym = RelationSymbol("r", ("a", "b"))
    narrow = [(f"x{i}",) for i in range(200)]
    with pytest.raises(SchemaError) as err:
        Relation(sym, [(0, 0), *narrow, (1, 1, 1)])
    assert str(err.value) == "row ('x0',) has 1 values; r has arity 2"
    with pytest.raises(SchemaError) as err:
        Relation(sym, [(0, 0), *[(i, 1.5 + i) for i in range(200)], (True, 0)])
    assert str(err.value) == "relation r: floats are not domain values"
    with pytest.raises(SchemaError) as err:
        Relation(sym, [(0, 0), *narrow, (1, [2])])
    assert str(err.value) == "relation r: [2] is not a domain value"


def test_relation_reads_a_one_shot_iterator_of_rows_once():
    sym = RelationSymbol("r", ("a", "b"))
    rel = Relation(sym, iter([(1, "x"), [2, NULL], (1, "x")]))
    assert rel.rows == frozenset({(1, "x"), (2, NULL)})


def test_relation_accepts_null_values():
    sym = RelationSymbol("r", ("a", "b"))
    rel = Relation(sym, frozenset({(NULL, 1)}))
    assert (NULL, 1) in rel
    assert rel.values() == frozenset({NULL, 1})
    assert len(rel) == 1


@given(st.lists(st.tuples(domain_values, domain_values, domain_values)))
def test_an_index_is_the_sorted_rows_grouped(rows):
    rel = Relation(RelationSymbol("r", ("a", "b", "c")), rows)
    for positions in itertools.chain.from_iterable(
        itertools.combinations(range(3), k) for k in range(4)
    ):
        expected = group_rows(sort_rows(rel.rows), positions) if positions else sort_rows(rel.rows)
        index = rel.index(positions)
        # the same keys, each group in the same order
        assert index == expected
        assert rel.index(positions) is index
    # the indexes are no part of the relation's value
    fresh = Relation(rel.symbol, rows)
    assert fresh == rel and hash(fresh) == hash(rel) and repr(fresh) == repr(rel)


def test_schema_always_contains_the_nullary_symbol():
    schema = Schema("S", [RelationSymbol("r", ("a",))])
    assert EMPTY_NAME in schema
    assert schema.symbol(EMPTY_NAME).arity == 0
    assert [s.name for s in schema.ordinary_symbols()] == ["r"]


def test_schema_rejects_declaring_the_nullary_symbol():
    with pytest.raises(SchemaError):
        Schema("S", [RelationSymbol(EMPTY_NAME, ())])


def test_schema_rejects_nullary_ordinary_symbols():
    with pytest.raises(SchemaError):
        Schema("S", [RelationSymbol("r", ())])


def test_schema_rejects_duplicate_symbols():
    with pytest.raises(SchemaError):
        Schema("S", [RelationSymbol("r", ("a",)), RelationSymbol("r", ("b",))])


def test_schema_unknown_symbol_lookup():
    schema = Schema("S", [])
    with pytest.raises(SchemaError):
        schema.symbol("nope")


def test_ordinary_symbols_are_name_sorted():
    schema = Schema("S", [RelationSymbol(n, ("a",)) for n in ("z", "m", "a")])
    assert [s.name for s in schema.ordinary_symbols()] == ["a", "m", "z"]


def test_instance_fills_missing_relations_and_bottom():
    schema = Schema("S", [RelationSymbol("r", ("a",)), RelationSymbol("s", ("a",))])
    inst = build_instance(schema, {"r": [(1,)]})
    assert inst.rows("r") == frozenset({(1,)})
    assert inst.rows("s") == frozenset()
    assert inst.relation(EMPTY_NAME) is BOTTOM
    assert inst.rows(EMPTY_NAME) == BOTTOM_ROWS == frozenset({()})


def test_instance_rejects_foreign_symbols():
    schema = Schema("S", [RelationSymbol("r", ("a",))])
    other = RelationSymbol("r", ("b",))
    with pytest.raises(SchemaError):
        Instance(schema, {"r": Relation(other, frozenset())})
    with pytest.raises(SchemaError):
        build_instance(schema, {"s": [(1,)]})


def test_active_domain_ignores_bottom():
    schema = Schema("S", [RelationSymbol("r", ("a", "b"))])
    inst = build_instance(schema, {"r": [(1, "x"), (2, NULL)]})
    assert active_domain(inst) == frozenset({1, 2, "x", NULL})

