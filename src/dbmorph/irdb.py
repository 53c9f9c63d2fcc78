"""Vector-relation representation of databases.

Every ordinary database can be flattened into a single 4-ary relation r_V
whose rows are (relation name, tuple index, attribute name, value), one row
per non-NULL attribute of each source tuple.  The tuple index is a content
hash, so identical tuples flatten to identical indices and the flattening
is insensitive to storage order.

``opposite_mapping`` produces the dependencies that define this flattening
as an ordinary schema mapping, one per (relation, attribute) pair, so the
flattening can be compiled and evaluated like any other mapping and the
two roads (direct parse, compiled arrow) can be checked against each other.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import (
    NULL,
    DomainValue,
    Instance,
    Relation,
    RelationSymbol,
    Row,
    Schema,
)

__all__ = [
    "hash_tuple",
    "VECTOR_COLUMNS",
    "VECTOR_SYMBOL",
    "VectorTuple",
    "vector_schema",
    "parse_tuple",
    "parse_database",
    "opposite_mapping",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
_SEPARATOR = b"\x1f"
_NULL_BYTES = b"NUL0"


def _render(value: DomainValue) -> bytes:
    if value is NULL:
        return _NULL_BYTES
    return str(value).encode("utf-8")


def hash_tuple(values: Row) -> str:
    """FNV-1a (64 bit) over the text renderings of the values, joined by the
    unit separator byte; 16 lowercase hex digits."""
    data = _SEPARATOR.join(_render(v) for v in values)
    acc = _FNV_OFFSET
    for byte in data:
        acc ^= byte
        acc = (acc * _FNV_PRIME) & _MASK
    return format(acc, "016x")


VECTOR_COLUMNS = ("r-name", "t-index", "a-name", "value")
VECTOR_SYMBOL = RelationSymbol("r_V", VECTOR_COLUMNS)


class VectorTuple(NamedTuple):
    r_name: str
    t_index: str
    a_name: str
    value: DomainValue


def vector_schema(name: str = "V") -> Schema:
    return Schema(name, (VECTOR_SYMBOL,))


def parse_tuple(symbol: RelationSymbol, row: Row) -> list[VectorTuple]:
    """One vector tuple per non-NULL attribute of the row."""
    index = hash_tuple(row)
    return [
        VectorTuple(symbol.name, index, symbol.columns[i], value)
        for i, value in enumerate(row)
        if value is not NULL
    ]


def parse_database(inst: Instance, schema_name: str = "V") -> Instance:
    """Flatten every ordinary relation of the instance into r_V."""
    out: set = set()
    for sym in inst.schema.ordinary_symbols():
        for row in inst.rows(sym.name):
            out.update(parse_tuple(sym, row))
    target = vector_schema(schema_name)
    return Instance(target, {"r_V": Relation(VECTOR_SYMBOL, frozenset(out))})


def opposite_mapping(schema: Schema) -> list:
    """The flattening as dependencies: for each relation r with columns
    c_1..c_n and each position i,

        forall x1..xn . r(x1,..,xn) & notnull(xi)
            -> r_V("r", hash(x1,..,xn), "c_i", xi)
    """
    from .logic import App, Const, NotNull, RelAtom, Tgd, Var, hash_symbol

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
