"""Relational core: domain values, rows, relations, schemas, instances.

Domain values are opaque printable constants (``str`` or ``int``) and the
missing value ``NULL``, which is Python's ``None``: a row parsed from JSON,
where the missing value is ``null``, is a row of the library as it stands.
Value equality is syntactic: no coercion happens between integer and string
renderings.

Every schema implicitly contains the distinguished nullary symbol ``r_∅``;
every instance maps it to the unit relation ``⊥ = {()}``.  Ordinary symbols
have arity >= 1 and relations over them are finite *sets* of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

from .errors import SchemaError

if TYPE_CHECKING:  # constraint objects live in .logic; imported for typing only
    from .logic import Egd, Tgd

__all__ = [
    "NULL",
    "DomainValue",
    "Row",
    "EMPTY_NAME",
    "EMPTY_SYMBOL",
    "BOTTOM_ROWS",
    "RelationSymbol",
    "Relation",
    "Schema",
    "Instance",
    "active_domain",
    "value_key",
    "row_key",
    "sort_rows",
    "group_rows",
]


NULL = None  # the missing value, as JSON's null loads and sqlite3 reads it

DomainValue = Union[int, str, None]
Row = tuple  # tuple[DomainValue, ...]

EMPTY_NAME = "r_∅"


def value_key(v: DomainValue) -> tuple:
    """Total order key over domain values: NULL < ints < strings."""
    if v is NULL:
        return (0, 0)
    if isinstance(v, int):
        return (1, v)
    return (2, v)


def row_key(row: Row) -> tuple:
    return tuple(value_key(v) for v in row)


_ONE_CLASS = ({int}, {str})


def sort_rows(rows: Iterable[Row]) -> list[Row]:
    """The rows in ``row_key`` order.  When every value is an ``int``, or
    every value a ``str``, the rows sort as plain tuples: ``value_key``
    then maps each value v to (k, v) with one k, which orders as v does, so
    the keys compare as the rows do, a shorter row before its extensions
    included.  Any other mix, or a NULL, needs ``row_key``."""
    rows = list(rows)
    if len(rows) > 1:
        one_class = set(map(type, chain.from_iterable(rows))) in _ONE_CLASS
        rows.sort(key=None if one_class else row_key)
    return rows


def group_rows(rows: Iterable[Row], positions: Sequence[int]) -> dict:
    """Rows grouped by their values at ``positions`` (0-based), each group
    in the order of ``rows``; hashing domain values agrees with their
    equality."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[j] for j in positions), []).append(row)
    return groups


_VALUE_CLASSES = frozenset({int, str, type(None)})


def _check_value(v: object) -> DomainValue:
    if v is NULL:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(f"invalid domain value {v!r}: expected str, int, or NULL")
    return v


@dataclass(frozen=True)
class RelationSymbol:
    """A named relation symbol with ordered, uniquely named columns."""

    name: str
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation symbol needs a nonempty name")
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column names in {self.name}: {self.columns}")

    @property
    def arity(self) -> int:
        return len(self.columns)


EMPTY_SYMBOL = RelationSymbol(EMPTY_NAME, ())
BOTTOM_ROWS: frozenset = frozenset({()})


@dataclass(frozen=True)
class Relation:
    """A finite set of rows over a relation symbol."""

    symbol: RelationSymbol
    rows: frozenset

    def __post_init__(self) -> None:
        # ``rows`` may be any iterable of rows: it is read once, and no row
        # is hashed before its values are checked
        rows = list(map(tuple, self.rows))
        if {v.__class__ for row in rows for v in row} <= _VALUE_CLASSES:
            normalized = frozenset(rows)
        else:
            normalized = frozenset(tuple(_check_value(v) for v in row) for row in rows)
        object.__setattr__(self, "rows", normalized)
        if {len(row) for row in normalized} - {self.symbol.arity}:
            row = next(row for row in normalized if len(row) != self.symbol.arity)
            raise SchemaError(
                f"row {row!r} has {len(row)} values; {self.symbol.name} has arity {self.symbol.arity}"
            )

    def values(self) -> frozenset:
        return frozenset(v for row in self.rows for v in row)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows


BOTTOM = Relation(EMPTY_SYMBOL, BOTTOM_ROWS)


@dataclass
class Schema:
    """A finite set of relation symbols plus intra-schema tgd/egd constraints.

    The distinguished nullary symbol ``r_∅`` is always present and cannot be
    declared; every other symbol must have arity >= 1.
    """

    name: str
    symbols: dict = field(default_factory=dict)
    constraints: tuple = ()

    def __init__(
        self,
        name: str,
        symbols: Iterable[RelationSymbol] = (),
        constraints: Sequence["Tgd | Egd"] = (),
    ):
        self.name = name
        self.symbols = {}
        for sym in symbols:
            if sym.name == EMPTY_NAME:
                raise SchemaError(f"{EMPTY_NAME} is implicit and cannot be declared")
            if sym.arity == 0:
                raise SchemaError(f"ordinary symbol {sym.name} must have arity >= 1")
            if sym.name in self.symbols:
                raise SchemaError(f"duplicate relation symbol {sym.name}")
            self.symbols[sym.name] = sym
        self.symbols[EMPTY_NAME] = EMPTY_SYMBOL
        self.constraints = tuple(constraints)

    def symbol(self, name: str) -> RelationSymbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise SchemaError(f"schema {self.name} has no relation {name}") from None

    def __contains__(self, name: object) -> bool:
        return name in self.symbols

    def ordinary_symbols(self) -> list[RelationSymbol]:
        return [s for n, s in sorted(self.symbols.items()) if n != EMPTY_NAME]


@dataclass
class Instance:
    """A total assignment of finite relations to a schema's symbols."""

    schema: Schema
    relations: dict

    def __init__(self, schema: Schema, relations: Mapping[str, Relation]):
        self.schema = schema
        self.relations = {}
        for name, rel in relations.items():
            sym = schema.symbol(name)
            if rel.symbol != sym:
                raise SchemaError(f"relation for {name} built over a different symbol")
            self.relations[name] = rel
        for name, sym in schema.symbols.items():
            if name == EMPTY_NAME:
                self.relations[name] = BOTTOM
            elif name not in self.relations:
                self.relations[name] = Relation(sym, frozenset())

    @classmethod
    def build(cls, schema: Schema, rows: Mapping[str, Iterable[Row]]) -> "Instance":
        rels = {}
        for name, rws in rows.items():
            sym = schema.symbol(name)
            rels[name] = Relation(sym, rws)
        return cls(schema, rels)

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"instance of {self.schema.name} has no relation {name}") from None

    def rows(self, name: str) -> frozenset:
        return self.relation(name).rows


def active_domain(inst: Instance) -> frozenset:
    """All values occurring in rows of the instance's ordinary relations."""
    values: set = set()
    for name, rel in inst.relations.items():
        if name != EMPTY_NAME:
            values.update(rel.values())
    return frozenset(values)

