"""Relational core: domain values, rows, relations, schemas, instances.

Domain values are opaque printable constants (``str`` or ``int``) and the
missing value ``NULL``, which is Python's ``None``: a row parsed from JSON,
where the missing value is ``null``, is a row of the library as it stands.
Value equality is syntactic: no coercion happens between integer and string
renderings.  ``check_values`` is the one statement of this rule and of its
fault texts: ``Relation`` checks its rows with it, and every loader in
``project`` checks the values of its files with it.

Every schema implicitly contains the distinguished nullary symbol ``r_∅``;
every instance maps it to the unit relation ``⊥ = {()}``.  Ordinary symbols
have arity >= 1 and relations over them are finite *sets* of rows.

A ``Relation`` owns its row order and its indexes (``Relation.index``),
which every join reads: evaluation, saturation and validation alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
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
    "VALUE_CLASSES",
    "check_values",
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


def _key_getter(positions: Sequence[int]):
    """The tuple of a row's values at ``positions`` (0-based), as one
    precomputed function."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (j,) = positions
        return lambda row: (row[j],)
    return lambda row: ()


def group_rows(rows: Iterable[Row], positions: Sequence[int]) -> dict:
    """Rows grouped by their values at ``positions`` (0-based), each group
    in the order of ``rows``; hashing domain values agrees with their
    equality."""
    groups: dict = {}
    key = _key_getter(positions)
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


# the exact classes of domain values as JSON loads them: a value of one of
# these passes ``check_values`` untested, so a bulk class test may use them
VALUE_CLASSES = frozenset({int, str, type(None)})


def check_values(rows: Sequence[Iterable], where: str) -> Sequence[Iterable]:
    """``rows`` when every value in them is a domain value: an ``int`` but
    not a ``bool``, a ``str``, or NULL.  Otherwise a ``SchemaError``
    located by ``where`` at the first value, in the order of ``rows``, that
    is not.  One class test covers every value; the scan for the first bad
    one runs only when it fails, and no value is hashed."""
    if set(map(type, chain.from_iterable(rows))) <= VALUE_CLASSES:
        return rows
    for v in chain.from_iterable(rows):
        if isinstance(v, bool):
            raise SchemaError(f"{where}: booleans are not domain values")
        if isinstance(v, float):
            raise SchemaError(f"{where}: floats are not domain values")
        if v is not NULL and not isinstance(v, (int, str)):
            raise SchemaError(f"{where}: {v!r} is not a domain value")
    return rows


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
    _indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # ``rows`` may be any iterable of rows: it is read once, and no row
        # is hashed before its values and widths are checked; a fault names
        # the first bad value or row in the order of ``rows``
        rows = list(map(tuple, self.rows))
        name, arity = self.symbol.name, self.symbol.arity
        check_values(rows, f"relation {name}")
        if set(map(len, rows)) - {arity}:
            row = next(row for row in rows if len(row) != arity)
            raise SchemaError(f"row {row!r} has {len(row)} values; {name} has arity {arity}")
        object.__setattr__(self, "rows", frozenset(rows))

    def index(self, positions: tuple = ()) -> "list | dict":
        """The rows in ``sort_rows`` order, or grouped at ``positions``
        (0-based) with each group in that order; built once per positions."""
        index = self._indexes.get(positions)
        if index is None:
            if positions:
                index = group_rows(self.rows, positions)
                for key, rows in index.items():
                    if len(rows) > 1:
                        index[key] = sort_rows(rows)
            else:
                index = sort_rows(self.rows)
            self._indexes[positions] = index
        return index

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

