"""Vector-relation representation of databases.

Every ordinary database can be flattened into a single 4-ary relation r_V
whose rows are (relation name, tuple index, attribute name, value), one row
per non-NULL attribute of each source tuple.  The tuple index is a content
hash, so identical tuples flatten to identical indices and the flattening
is insensitive to storage order.
"""

from __future__ import annotations

import re
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
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
_SEPARATOR = b"\x1f"
_NULL_BYTES = b"NUL0"
# a string that reads as another value's text, or holds the separator or
# the escape byte, is marked and escaped
_AMBIGUOUS = re.compile(r"0|-?[1-9][0-9]*|NUL0|.*[\x1e\x1f].*", re.DOTALL)
_ESCAPED = re.compile(r"[\x1e\x1f]")


def _render(value: DomainValue) -> bytes:
    if value is NULL:
        return _NULL_BYTES
    if value.__class__ is str and _AMBIGUOUS.fullmatch(value):
        value = "\x1e" + _ESCAPED.sub("\x1e\\g<0>", value)
    return str(value).encode("utf-8")


def hash_tuple(values: Row) -> str:
    """FNV-1a (64 bit) over the text renderings of the values, joined by the
    unit separator byte; 16 lowercase hex digits.  An int renders as its
    decimal text, NULL as ``NUL0`` and a string as itself, unless it equals
    an int's text or ``NUL0`` or holds the byte 0x1e or 0x1f: then it
    renders as 0x1e followed by the string with 0x1e put before each of
    those bytes.  No rendering of one value is another's, and a rendered
    value holds 0x1f only after 0x1e, so rows of one arity render apart."""
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


def parse_database(inst: Instance) -> Instance:
    """Flatten every ordinary relation of the instance into r_V."""
    out: set = set()
    for sym in inst.schema.ordinary_symbols():
        for row in inst.rows(sym.name):
            out.update(parse_tuple(sym, row))
    return Instance(vector_schema(), {"r_V": Relation(VECTOR_SYMBOL, frozenset(out))})

