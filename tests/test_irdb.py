"""Vector-relation flattening, the content hash, and the flattening as a
mapping that generates ``example5/mop.map``."""

from dbmorph import (
    Instance,
    NULL,
    RelationSymbol,
    Schema,
    hash_tuple,
    parse_database,
    parse_tuple,
    vector_schema,
)
from dbmorph.dsl import parse_mapping, pretty_mapping
from dbmorph.irdb import VECTOR_COLUMNS, VECTOR_SYMBOL, VectorTuple
from dbmorph.logic import App, Const, NotNull, RelAtom, Tgd, Var, hash_symbol


# ---------------------------------------------------------------------------
# the hash
#
# Expected digests below were computed with an independent FNV-1a/64
# implementation over the documented byte renderings and are frozen here.


def test_hash_of_the_empty_tuple_is_the_offset_basis():
    assert hash_tuple(()) == "cbf29ce484222325"


def test_hash_of_the_contact_row():
    row = (132, "Zoran", "Majkic", "Appia", "00187")
    assert hash_tuple(row) == "8045563be38c4ee5"


def test_null_renders_as_its_marker():
    assert hash_tuple((NULL,)) == "6fb469c5b5dceb90"
    # the marker string collides with NULL by design
    assert hash_tuple(("NUL0",)) == "6fb469c5b5dceb90"


def test_numbers_and_their_digit_strings_render_identically():
    assert hash_tuple((132,)) == "4572cb18182509fd"
    assert hash_tuple(("132",)) == "4572cb18182509fd"


def test_the_separator_keeps_adjacent_values_apart():
    assert hash_tuple((1, 2)) == "45b6c318185ec931"
    assert hash_tuple((12,)) == "07f89407b4ba0c0a"
    assert hash_tuple((1, 2)) != hash_tuple((12,))


# ---------------------------------------------------------------------------
# parsing single tuples


CONTACTS = RelationSymbol(
    "Contacts", ("contactID", "firstName", "lastName", "street", "zipCode")
)


def test_parse_tuple_emits_one_row_per_attribute():
    row = (132, "Zoran", "Majkic", "Appia", "00187")
    idx = "8045563be38c4ee5"
    assert parse_tuple(CONTACTS, row) == [
        VectorTuple("Contacts", idx, "contactID", 132),
        VectorTuple("Contacts", idx, "firstName", "Zoran"),
        VectorTuple("Contacts", idx, "lastName", "Majkic"),
        VectorTuple("Contacts", idx, "street", "Appia"),
        VectorTuple("Contacts", idx, "zipCode", "00187"),
    ]


def test_parse_tuple_skips_null_attributes_but_hashes_them():
    row = (133, "Ana", NULL, NULL, "00187")
    out = parse_tuple(CONTACTS, row)
    assert [t.a_name for t in out] == ["contactID", "firstName", "zipCode"]
    assert all(t.t_index == hash_tuple(row) for t in out)
    # the index still depends on the NULL positions
    assert hash_tuple(row) != hash_tuple((133, "Ana", "00187"))


def test_identical_rows_in_different_relations_get_distinct_names():
    twin = RelationSymbol("Copies", CONTACTS.columns)
    row = (132, "Zoran", "Majkic", "Appia", "00187")
    a = parse_tuple(CONTACTS, row)
    b = parse_tuple(twin, row)
    assert [t.t_index for t in a] == [t.t_index for t in b]
    assert {t.r_name for t in a} == {"Contacts"}
    assert {t.r_name for t in b} == {"Copies"}


# ---------------------------------------------------------------------------
# parsing whole databases


def test_parse_database_matches_the_pinned_flattening(example5):
    flat = parse_database(example5.instance("a"))
    assert flat.schema.name == "V"
    assert flat.rows("r_V") == example5.instance("v").rows("r_V")


def test_parse_database_with_nulls(example5):
    flat = parse_database(example5.instance("a_nulls"))
    rows = flat.rows("r_V")
    # 5 + 3 attributes from Contacts, 2 from PhoneNumbers, none from the
    # empty ZipLocations
    assert len(rows) == 10
    assert all(NULL not in row for row in rows)


def test_parse_database_ignores_row_multiplicity_across_relations():
    schema = Schema(
        "A", [RelationSymbol("p", ("c1",)), RelationSymbol("q", ("c1",))]
    )
    inst = Instance.build(schema, {"p": [(7,)], "q": [(7,)]})
    rows = parse_database(inst).rows("r_V")
    assert rows == frozenset(
        {("p", hash_tuple((7,)), "c1", 7), ("q", hash_tuple((7,)), "c1", 7)}
    )


def test_vector_schema_shape():
    assert VECTOR_COLUMNS == ("r-name", "t-index", "a-name", "value")
    assert VECTOR_SYMBOL.name == "r_V" and VECTOR_SYMBOL.arity == 4
    v = vector_schema("W")
    assert v.name == "W"
    assert v.symbol("r_V").columns == VECTOR_COLUMNS


# ---------------------------------------------------------------------------
# the flattening as a mapping


def opposite_mapping(schema: Schema) -> list:
    """The flattening as dependencies, one per (relation, attribute) pair,
    so that it can be compiled and evaluated like any other mapping: for
    each relation r with columns c_1..c_n and each position i,

        forall x1..xn . r(x1,..,xn) & notnull(xi)
            -> r_V("r", hash(x1,..,xn), "c_i", xi)
    """
    deps = []
    for sym in schema.ordinary_symbols():
        names = tuple(f"x{j}" for j in range(1, sym.arity + 1))
        variables = tuple(Var(n) for n in names)
        body = RelAtom(sym.name, variables)
        index = App(hash_symbol(), variables)
        for i, col in enumerate(sym.columns):
            head = RelAtom(
                "r_V", (Const(sym.name), index, Const(col), variables[i])
            )
            deps.append(Tgd(names, (body, NotNull(variables[i])), (head,)))
    return deps


def test_opposite_mapping_has_one_tgd_per_column(example5):
    deps = opposite_mapping(example5.schema("A"))
    assert len(deps) == 11
    heads = [d.rhs[0] for d in deps]
    assert [h.terms[0].value for h in heads] == (
        ["Contacts"] * 5 + ["PhoneNumbers"] * 3 + ["ZipLocations"] * 3
    )
    assert [h.terms[2].value for h in heads] == [
        "contactID", "firstName", "lastName", "street", "zipCode",
        "contactID", "phoneType", "number",
        "zipCode", "city", "state",
    ]


def test_opposite_tgd_shape(example5):
    deps = opposite_mapping(example5.schema("A"))
    first = deps[0]
    assert first.universals == ("x1", "x2", "x3", "x4", "x5")
    body, guard = first.lhs
    assert body == RelAtom("Contacts", tuple(Var(f"x{i}") for i in range(1, 6)))
    assert guard == NotNull(Var("x1"))
    head = first.rhs[0]
    assert head.relation == "r_V"
    assert head.terms[0] == Const("Contacts")
    assert isinstance(head.terms[1], App)
    assert head.terms[1].args == body.terms
    assert head.terms[3] == Var("x1")


def test_opposite_mapping_round_trips_through_the_dsl(example5):
    deps = opposite_mapping(example5.schema("A"))
    text = pretty_mapping(deps)
    assert parse_mapping(text) == deps


def test_checked_in_mapping_source_matches_the_generator(example5):
    deps = opposite_mapping(example5.schema("A"))
    assert parse_mapping(example5.mapping("mop").text) == deps
