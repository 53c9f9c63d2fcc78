"""The project loaders as they stood before row lists were checked in bulk,
kept verbatim as the oracle the differential tests in ``test_project.py``
compare ``dbmorph.project`` and ``dbmorph.model.Relation`` against.

Each value of a row list goes through ``value_from_json`` (``_check_value``
for a relation), with its located message formatted per row, and a row's
width is checked in a second loop.  ``relation_rows`` is the body of
``Relation.__post_init__``: the rows it keeps, or the error it raises.
``load_interpretation_file`` also rejects an argument tuple listed with two
values, after every other fault of its table.
"""

import json
from pathlib import Path

from dbmorph.errors import SchemaError
from dbmorph.interp import FunctionTable, TarskiInterpretation
from dbmorph.model import Instance, RelationSymbol, Row, Schema, _check_value
from dbmorph.project import (
    Project,
    _columns,
    _read_json,
    _section,
    _typed,
    value_from_json,
)


def _row_from_json(row, where: str) -> Row:
    if not isinstance(row, list):
        raise SchemaError(f"{where}: each row must be a JSON array")
    return tuple(value_from_json(v, where) for v in row)


def load_instance(data: dict, schema: "Schema | None" = None, where: str = "instance") -> Instance:
    """Build an instance from parsed JSON; with a schema given, the file's
    relation names and columns must agree with it, and omitted relations
    load empty."""
    if not isinstance(data, dict) or "relations" not in data:
        raise SchemaError(f"{where}: expected an object with a 'relations' key")
    declared = data["relations"]
    if not isinstance(declared, dict):
        raise SchemaError(f"{where}: 'relations' must be an object")

    symbols = {}
    rows_by_name = {}
    for name, body in sorted(declared.items()):
        if not isinstance(body, dict) or "columns" not in body or "rows" not in body:
            raise SchemaError(f"{where}: relation {name} needs 'columns' and 'rows'")
        columns = _columns(body["columns"], f"{where}: relation {name}: 'columns'")
        rows = _typed(body["rows"], list, f"{where}: relation {name}: 'rows'")
        symbols[name] = RelationSymbol(name, columns)
        rows_by_name[name] = [_row_from_json(r, f"{where}: {name}") for r in rows]
        for row in rows_by_name[name]:
            if len(row) != len(columns):
                raise SchemaError(
                    f"{where}: relation {name}: row {row!r} has {len(row)} values; "
                    f"{name} has arity {len(columns)}"
                )

    if schema is None:
        schema = Schema(str(data.get("schema", "S")), symbols.values())
    else:
        if "schema" in data and data["schema"] != schema.name:
            raise SchemaError(
                f"{where}: file is for schema {data['schema']}, expected {schema.name}"
            )
        for name, sym in symbols.items():
            if name not in schema:
                raise SchemaError(f"{where}: schema {schema.name} has no relation {name}")
            if sym != schema.symbol(name):
                raise SchemaError(
                    f"{where}: relation {name} disagrees with the schema's columns"
                )
    return Instance.build(schema, rows_by_name)


def load_member_file(path) -> frozenset:
    """A relation to test for flux membership: a JSON array of rows, all of
    one width, since no view derives rows of two."""
    path = Path(path)
    rows = _typed(_read_json(path), list, f"{path}: the top level")
    member = frozenset(_row_from_json(row, f"{path}: member row") for row in rows)
    widths = sorted({len(row) for row in member})
    if len(widths) > 1:
        raise SchemaError(
            f"{path}: member rows differ in width: {widths[0]} and {widths[1]} values"
        )
    return member


def load_interpretation_file(path, project: Project) -> TarskiInterpretation:
    """An interpretation file names its instances and lists skolem tables:

        { "source": "a", "target": "b", "extras": ["c"],
          "domain": [0, 1],
          "skolem": { "f1": { "entries": [[[132], "art"]], "default": "x" } } }

    Characteristic places and the hash built-in never appear here.
    """
    path = Path(path)
    data = _typed(_read_json(path), dict, f"{path}: the top level")
    if "source" not in data or "target" not in data:
        raise SchemaError(f"{path}: interpretation needs 'source' and 'target'")
    source = project.instance(_typed(data["source"], str, f"{path}: 'source'"))
    target = project.instance(_typed(data["target"], str, f"{path}: 'target'"))
    extras = tuple(
        project.instance(_typed(n, str, f"{path}: 'extras' entry"))
        for n in _section(data, "extras", list, path)
    )

    tables = {}
    for fname, body in sorted(_section(data, "skolem", dict, path).items()):
        where = f"{path}: skolem {fname}"
        entries, shown, conflict = {}, {}, None
        for pair in _section(_typed(body, dict, where), "entries", list, where):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{path}: {fname}: entries are [args, value] pairs")
            args, value = pair
            checked = value_from_json(value, f"{path}: {fname}")
            key = _row_from_json(args, f"{path}: {fname}")
            shown.setdefault(key, value)
            if entries.setdefault(key, checked) != checked and conflict is None:
                conflict = SchemaError(
                    f"{where}: arguments {json.dumps(args)} have two values, "
                    f"{json.dumps(shown[key])} and {json.dumps(value)}"
                )
        # a fault of a later pair is reported first
        if conflict is not None:
            raise conflict
        default = None
        if "default" in body:
            default = value_from_json(body["default"], f"{path}: {fname} default")
        tables[fname] = FunctionTable(fname, entries, default)

    domain = None
    if "domain" in data:
        domain = frozenset(
            value_from_json(v, f"{path}: domain")
            for v in _section(data, "domain", list, path)
        )
    return TarskiInterpretation(source, target, tables, extras, domain)


def relation_rows(symbol: RelationSymbol, rows) -> frozenset:
    """The rows ``Relation(symbol, rows)`` keeps, checked as its
    ``__post_init__`` checked them."""
    normalized = frozenset(tuple(_check_value(v) for v in row) for row in rows)
    for row in normalized:
        if len(row) != symbol.arity:
            raise SchemaError(
                f"row {row!r} has {len(row)} values; {symbol.name} has arity {symbol.arity}"
            )
    return normalized
