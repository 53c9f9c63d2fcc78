"""The project loaders as they stood before row lists were checked in bulk,
kept verbatim as the oracle the differential tests in ``test_project.py``
compare ``dbmorph.project`` and ``dbmorph.model.Relation`` against.

``_read_text`` and ``_read_json`` read a file as they did before an input
file was read as bytes and decoded once: in text mode, with every ``\\u``
escape checked for an unpaired surrogate.  ``load_project`` is the project
loader as it stood before its fields and column lists were checked by one
class test each, with a located text formatted for every entry, field and
edge; ``_section`` and ``_entry_field`` are its helpers as they stood then.
The loaders here read files through these readers.

Each value of a row list goes through ``value_from_json``, with its located
message formatted per row, and a row's width is checked in a second loop.
``relation_rows`` checks rows as ``Relation.__post_init__`` does, value by
value and then row by row, in the order given: the rows it keeps, or the
error it raises.  ``load_interpretation_file`` also rejects an argument
tuple listed with two values, after every other fault of its table.
``value_from_json`` and ``Instance.build`` (``conftest.build_instance``)
left the package when ``model.check_values`` became its one checker of
domain values; ``value_from_json`` is kept here verbatim.
"""

import json
from pathlib import Path

from dbmorph.errors import ParseError, SchemaError
from dbmorph.interp import FunctionTable, TarskiInterpretation
from dbmorph.model import NULL, Instance, RelationSymbol, Row, Schema, check_values
from dbmorph.project import (
    Project,
    _columns,
    _located,
    _named,
    _schema_constraints,
    _typed,
)

from conftest import build_instance


def _read_text(path: Path) -> str:
    """One input file as text; bytes that are not UTF-8 are an input error
    located by path and byte offset."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: invalid UTF-8: {exc.reason}") from None
    except ValueError as exc:  # a NUL in the name, which no file system takes
        raise ParseError(f"{str(path)!r}: {exc}") from None


def _read_json(path: Path):
    """Parse one JSON input file; malformed JSON is an input error located
    by path, line and column, and JSON nested past the recursion limit, or
    an integer with more digits than ``int`` converts, one naming the file.
    A ``\\u`` escape of an unpaired surrogate, which no UTF-8 output can
    carry, is an input error naming the file."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    except ValueError:  # past the interpreter's limit on integer digits
        raise ParseError(f"{path}: an integer has too many digits") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nests too deeply") from None
    if "\\u" in text:
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            bad = ord(exc.object[exc.start])
            raise ParseError(f"{path}: unpaired surrogate \\u{bad:04x} in a JSON string") from None
    return data


def _section(data: dict, key: str, kind: type, where: str):
    """data[key], an empty ``kind`` when absent, checked to be of that kind."""
    return _typed(data.get(key, kind()), kind, f"{where}: '{key}'")


def _entry_field(body, key: str, where: str) -> str:
    if key not in _typed(body, dict, where):
        raise SchemaError(f"{where}: missing '{key}'")
    return _typed(body[key], str, f"{where}: '{key}'")


def load_project(path) -> Project:
    path = Path(path)
    data = _typed(_read_json(path), dict, f"{path}: the top level")

    (domain,) = check_values([_section(data, "domain", list, path)], f"{path}: 'domain'")

    schemas = {}
    for name, body in sorted(_section(data, "schemas", dict, path).items()):
        where = f"{path}: schema {name}"
        relations = _section(_typed(body, dict, where), "relations", dict, where)
        symbols = {}
        for rel, cols in sorted(relations.items()):
            at = f"{where}: relation {rel}"
            symbols[rel] = _located(at, RelationSymbol, rel, _columns(cols, at))
        constraints = ()
        if "constraints" in body:
            text = _typed(body["constraints"], str, f"{where}: 'constraints'")
            constraints = _schema_constraints(text, symbols, where)
        schemas[name] = _located(where, Schema, name, symbols.values(), constraints)

    project = Project(path.parent, tuple(domain), schemas)

    for name, body in sorted(_section(data, "instances", dict, path).items()):
        where = f"{path}: instance {name}"
        schema = _named(schemas, "schema", _entry_field(body, "schema", where), where)
        project.instances[name] = (_entry_field(body, "file", where), schema)

    for name, body in sorted(_section(data, "mappings", dict, path).items()):
        where = f"{path}: mapping {name}"
        src = _named(schemas, "schema", _entry_field(body, "source", where), where)
        tgt = _named(schemas, "schema", _entry_field(body, "target", where), where)
        project.mappings[name] = (_entry_field(body, "file", where), src.name, tgt.name)

    edges = []
    for edge in _section(data, "graph", list, path):
        where = f"{path}: graph edge {edge!r}"
        if not isinstance(edge, list) or len(edge) != 3 or not all(
            isinstance(end, str) for end in edge
        ):
            raise SchemaError(f"{where} is not a [source, target, mapping] triple")
        src, tgt, mapping = edge
        _named(schemas, "schema", src, where)
        _named(schemas, "schema", tgt, where)
        if _named(project.mappings, "mapping", mapping, where)[1:] != (src, tgt):
            raise SchemaError(f"{where} disagrees with mapping {mapping}'s schemas")
        edges.append((src, tgt, mapping))
    project.graph = tuple(edges)
    return project


def value_from_json(value, where: str = "value"):
    """A parsed JSON value as the domain value it already is (null is
    NULL), or an input error located by ``where``."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not domain values")
    if value is NULL or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        raise SchemaError(f"{where}: floats are not domain values")
    raise SchemaError(f"{where}: {value!r} is not a domain value")


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
    return build_instance(schema, rows_by_name)


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
        tables[fname] = FunctionTable(fname, entries)
        if "default" in body:
            tables[fname].default = value_from_json(body["default"], f"{path}: {fname} default")

    domain = None
    if "domain" in data:
        domain = frozenset(
            value_from_json(v, f"{path}: domain")
            for v in _section(data, "domain", list, path)
        )
    return TarskiInterpretation(source, target, tables, extras, domain)


def relation_rows(symbol: RelationSymbol, rows) -> frozenset:
    """The rows ``Relation(symbol, rows)`` keeps: the first value that is no
    domain value, then the first row of another width, in the order of
    ``rows``, is an error."""
    rows = [tuple(value_from_json(v, f"relation {symbol.name}") for v in row) for row in rows]
    for row in rows:
        if len(row) != symbol.arity:
            raise SchemaError(
                f"row {row!r} has {len(row)} values; {symbol.name} has arity {symbol.arity}"
            )
    return frozenset(rows)
