"""Project files and canonical JSON serialization.

A project bundles a value domain, schema declarations, instance files,
mapping sources, and the edges of the mapping graph.  Instances and
mappings live in their own files, referenced by paths relative to the
project file.

Every serializer here is canonical: keys sorted, rows sorted, no
environment-dependent content, so two runs over the same inputs produce
byte-identical files.  ``canonical_json`` writes the bytes of
``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"``
with its own emitter, which writes a list of scalars, such as a row, as one
string.  Given a ``PFunction`` or a ``SaturatedMorphism`` it writes the
bytes of its ``pfunction_to_json`` or ``saturation_to_json``: a graph whose
arguments and rows are int rows of one width per place, or extras whose
rows and perturbations hold only ints, are written from the object with one
``%`` template per entry shape, else through the generic writer.  A
template is the text the emitter writes of a skeleton whose scalars are
placeholders, so the layout is stated once.  ``kernel_to_json`` reuses the
rows ``FluxKernel`` sorted to order its members.  A DSL or compile fault in
a mapping file names the file; one in a schema's constraints names the
project file and the schema.

Rows cross the file boundary unconverted.  NULL is ``None``, so JSON's
``null`` loads as NULL, and a payload holds rows as the library does, as
tuples, which ``canonical_json`` and ``json.dumps`` both write as arrays.

Each value read is checked once by ``model.check_values``, the one rule of
domain values: instance rows through ``Relation``, which also checks their
widths, and the other values directly, by one class test per list.  Only a
list that fails it is scanned, in file order, for its first located fault.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .dsl import parse_mapping, pretty_literal, pretty_mapping, pretty_term
from .errors import DbmorphError, ParseError, SchemaError
from .flux import FluxKernel
from .interp import FunctionTable, InstanceMorphism, SatisfactionReport, TarskiInterpretation
from .logic import RelAtom, SOtgd, ValidationReport
from .model import (
    VALUE_CLASSES,
    Instance,
    Relation,
    RelationSymbol,
    Schema,
    check_values,
    sort_rows,
    value_key,
)
from .operads import (
    OperadArrow,
    OperadOperation,
    build_equal_var_set,
    compile_source,
    render_expression,
    render_implication,
    simple_var_positions,
)
from .saturation import PFunction, SaturatedMorphism

__all__ = [
    "instance_to_json",
    "load_instance",
    "load_instance_file",
    "load_interpretation_file",
    "load_member_file",
    "MappingSource",
    "Project",
    "load_project",
    "compile_project_mapping",
    "canonical_json",
    "arrow_to_json",
    "morphism_to_json",
    "kernel_to_json",
    "saturation_to_json",
    "pfunction_to_json",
    "validation_to_json",
]


def _arrays(rows: list, where: str) -> list:
    """``rows`` when each is a JSON array.  Otherwise an input error located
    by ``where`` at the first that is not, or at a value of an earlier row
    that is no domain value, which comes first in the file."""
    if not set(map(type, rows)) <= {list}:
        for row in rows:
            if row.__class__ is not list:
                raise SchemaError(f"{where}: each row must be a JSON array")
            check_values([row], where)
    return rows


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _typed(value, kind: type, where: str):
    """The value, unless its JSON type is wrong: then an input error located
    by ``where`` (the file and the key)."""
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be {_JSON_KINDS[kind]}")
    return value


def _columns(value, where: str) -> tuple:
    """A relation's column names: a JSON array of strings."""
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise SchemaError(f"{where} must be an array of strings")
    return tuple(value)


def _located(where: str, make, *args):
    """``make(*args)``, where an input error it raises, as a relation with
    duplicate columns or a DSL fault in a mapping file, is located by
    ``where`` in front of its message; its class and attributes stay."""
    try:
        return make(*args)
    except DbmorphError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _section(data: dict, key: str, kind: type, where: str):
    """data[key], an empty ``kind`` when absent, checked to be of that kind."""
    return _typed(data.get(key, kind()), kind, f"{where}: '{key}'")


def instance_to_json(inst: Instance) -> dict:
    relations = {}
    for sym in inst.schema.ordinary_symbols():
        relations[sym.name] = {
            "columns": list(sym.columns),
            "rows": sort_rows(inst.rows(sym.name)),
        }
    return {"schema": inst.schema.name, "relations": relations}


def load_instance(data: dict, schema: "Schema | None" = None, where: str = "instance") -> Instance:
    """Build an instance from parsed JSON; with a schema given, the file's
    relation names and columns must agree with it, and omitted relations
    load empty."""
    if not isinstance(data, dict) or "relations" not in data:
        raise SchemaError(f"{where}: expected an object with a 'relations' key")
    declared = data["relations"]
    if not isinstance(declared, dict):
        raise SchemaError(f"{where}: 'relations' must be an object")

    relations = {}
    for name, body in sorted(declared.items()):
        if not isinstance(body, dict) or "columns" not in body or "rows" not in body:
            raise SchemaError(f"{where}: relation {name} needs 'columns' and 'rows'")
        columns = _columns(body["columns"], f"{where}: relation {name}: 'columns'")
        rows = _typed(body["rows"], list, f"{where}: relation {name}: 'rows'")
        symbol = _located(f"{where}: relation {name}", RelationSymbol, name, columns)
        _arrays(rows, f"{where}: {name}")
        try:
            relations[name] = Relation(symbol, rows)
        except SchemaError as exc:  # located here: a value fault, else a width fault
            check_values(rows, f"{where}: {name}")
            raise SchemaError(f"{where}: relation {name}: {exc}") from None

    if schema is None:
        symbols = [rel.symbol for rel in relations.values()]
        schema = _located(where, Schema, str(data.get("schema", "S")), symbols)
    else:
        if "schema" in data and data["schema"] != schema.name:
            raise SchemaError(
                f"{where}: file is for schema {data['schema']}, expected {schema.name}"
            )
        for name, rel in relations.items():
            if name not in schema:
                raise SchemaError(f"{where}: schema {schema.name} has no relation {name}")
            if rel.symbol != schema.symbol(name):
                raise SchemaError(
                    f"{where}: relation {name} disagrees with the schema's columns"
                )
    return Instance(schema, relations)


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


def load_instance_file(path, schema: "Schema | None" = None) -> Instance:
    path = Path(path)
    return load_instance(_read_json(path), schema, where=str(path))


def load_member_file(path) -> frozenset:
    """A relation to test for flux membership: a JSON array of rows, all of
    one width, since no view derives rows of two."""
    path = Path(path)
    rows = _typed(_read_json(path), list, f"{path}: the top level")
    where = f"{path}: member row"
    member = frozenset(map(tuple, check_values(_arrays(rows, where), where)))
    widths = sorted({len(row) for row in member})
    if len(widths) > 1:
        raise SchemaError(
            f"{path}: member rows differ in width: {widths[0]} and {widths[1]} values"
        )
    return member


@dataclass(frozen=True)
class MappingSource:
    name: str
    source: str
    target: str
    text: str


@dataclass
class Project:
    """A loaded project file.  ``instances`` maps each instance name to its
    (path, schema) and ``mappings`` each mapping name to its (path, source,
    target); ``instance()`` and ``mapping()`` read and check a file on first
    use and keep the result, so a command reads only the files it needs,
    each once."""

    domain: tuple = ()
    schemas: dict = field(default_factory=dict)
    instances: dict = field(default_factory=dict)
    mappings: dict = field(default_factory=dict)
    graph: tuple = ()
    _read: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def schema(self, name: str) -> Schema:
        return _named(self.schemas, "schema", name)

    def instance(self, name: str) -> Instance:
        entry = _named(self.instances, "instance", name)
        if ("instance", name) not in self._read:
            self._read["instance", name] = load_instance_file(*entry)
        return self._read["instance", name]

    def mapping(self, name: str) -> MappingSource:
        path, source, target = _named(self.mappings, "mapping", name)
        if ("mapping", name) not in self._read:
            self._read["mapping", name] = MappingSource(name, source, target, _read_text(path))
        return self._read["mapping", name]


def _schema_constraints(text: str, symbols: dict, where: str):
    """The schema's dependencies; each relational atom, negated or not, in
    either side, must name a relation of the schema with its arity."""
    parsed = _located(f"{where}: constraints", parse_mapping, text)
    if isinstance(parsed, SOtgd):
        raise SchemaError(f"{where}: constraints must be plain dependencies")
    for dep in parsed:
        for atom in (*dep.lhs, *getattr(dep, "rhs", ())):
            if not isinstance(atom, RelAtom):
                continue
            sym = symbols.get(atom.relation)
            if sym is None:
                raise SchemaError(
                    f"{where}: constraints use relation {atom.relation}, which the schema lacks"
                )
            if len(atom.terms) != sym.arity:
                raise SchemaError(
                    f"{where}: constraints use {atom.relation} with arity "
                    f"{len(atom.terms)}, but the schema declares {sym.arity}"
                )
    return tuple(parsed)


def _entry_field(body, key: str, where: str) -> str:
    if key not in _typed(body, dict, where):
        raise SchemaError(f"{where}: missing '{key}'")
    return _typed(body[key], str, f"{where}: '{key}'")


def _named(entries: dict, kind: str, name: str, where: str = ""):
    """``entries[name]``; a ``kind`` that the project does not declare is an
    input error, located by ``where`` when it is given."""
    if name not in entries:
        fault = f"project declares no {kind} {name}"
        raise SchemaError(f"{where}: {fault}" if where else fault)
    return entries[name]


def load_project(path) -> Project:
    path = Path(path)
    data = _typed(_read_json(path), dict, f"{path}: the top level")
    base = path.parent

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

    project = Project(domain=tuple(domain), schemas=schemas)

    for name, body in sorted(_section(data, "instances", dict, path).items()):
        where = f"{path}: instance {name}"
        schema = _named(schemas, "schema", _entry_field(body, "schema", where), where)
        project.instances[name] = (base / _entry_field(body, "file", where), schema)

    for name, body in sorted(_section(data, "mappings", dict, path).items()):
        where = f"{path}: mapping {name}"
        src = _named(schemas, "schema", _entry_field(body, "source", where), where)
        tgt = _named(schemas, "schema", _entry_field(body, "target", where), where)
        file = base / _entry_field(body, "file", where)
        project.mappings[name] = (file, src.name, tgt.name)

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


def compile_project_mapping(project: Project, name: str) -> OperadArrow:
    ms = project.mapping(name)
    source, target = project.schema(ms.source), project.schema(ms.target)
    return _located(str(project.mappings[name][0]), compile_source, ms.text, source, target, name)


def _skolem_entries(pairs: list, where: str) -> dict:
    """A skolem table's entries from its [args, value] pairs, after one class
    test over the table.  Only when it fails are the pairs scanned in file
    order for the first fault, located by ``where``, a value before its args."""
    plain = set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
    if plain:
        keys = [pair[0] for pair in pairs]
        plain = set(map(type, keys)) <= {list}
        plain = plain and set(map(type, chain([p[1] for p in pairs], *keys))) <= VALUE_CLASSES
    if not plain:
        for pair in pairs:
            if pair.__class__ is not list or len(pair) != 2:
                raise SchemaError(f"{where}: entries are [args, value] pairs")
            check_values(_arrays([pair[1:], pair[0]], where), where)
    return {tuple(args): value for args, value in pairs}


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

    def instance(name, where: str) -> Instance:
        _named(project.instances, "instance", _typed(name, str, where), where)
        return project.instance(name)

    source = instance(data["source"], f"{path}: 'source'")
    target = instance(data["target"], f"{path}: 'target'")
    extras = tuple(
        instance(name, f"{path}: 'extras' entry") for name in _section(data, "extras", list, path)
    )

    tables = {}
    for fname, body in sorted(_section(data, "skolem", dict, path).items()):
        where = f"{path}: skolem {fname}"
        pairs = _section(_typed(body, dict, where), "entries", list, where)
        entries = _skolem_entries(pairs, f"{path}: {fname}")
        if len(entries) < len(pairs):  # an argument tuple listed twice
            first: dict = {}
            for args, value in pairs:
                if first.setdefault(tuple(args), value) != value:
                    raise SchemaError(
                        f"{where}: arguments {json.dumps(args)} have two values, "
                        f"{json.dumps(first[tuple(args)])} and {json.dumps(value)}"
                    )
        table = tables[fname] = FunctionTable(fname, entries)
        if "default" in body:
            check_values([[body["default"]]], f"{path}: {fname} default")
            table.default = body["default"]

    domain = None
    if "domain" in data:
        (values,) = check_values([_section(data, "domain", list, path)], f"{path}: domain")
        domain = frozenset(values)
    return TarskiInterpretation(source, target, tables, extras, domain)


_encode_str = json.encoder.encode_basestring
_ROW_CLASSES = frozenset({list, tuple})
_INT_CLASS = {int}


class _Text(str):
    """Text that ``_write_json`` writes as it stands."""


# the text of each scalar, by its exact class; other classes take the
# ``isinstance`` path of ``_write_json``
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    _Text: str.__str__,
}

# the scalars of a template: an int, an encoded string, and a hole, where
# text is cut or put in; no value writes a hole, as JSON escapes a NUL
_INT, _STR, _HOLE = _Text("%d"), _Text("%s"), _Text("\0")


def _template(skeleton, indent: str) -> str:
    """The text that ``_write_json`` writes for ``skeleton`` at ``indent``:
    a ``%`` format when its scalars are ``_INT`` and ``_STR``."""
    chunks: list = []
    _write_json(skeleton, indent, chunks)
    return "".join(chunks)


@lru_cache(maxsize=256)
def _row_format(width: int, indent: str) -> str:
    """The text of a row of ``width`` ints at ``indent``, as a ``%`` format."""
    return _template([_INT] * width, indent)


@lru_cache(maxsize=256)
def _item_layout(indent: str) -> tuple:
    """The text before, between and after the items of a list under a key
    of a payload written at ``indent``, such as a p-function's graph."""
    return tuple(_template({"": [_HOLE, _HOLE]}, indent).split(_HOLE))


def _item_template(skeleton, indent: str) -> str:
    """The text of ``skeleton`` as an item of a list under a key of a
    payload written at ``indent``."""
    before, _, after = _item_layout(indent)
    return _template({"": [skeleton]}, indent).removeprefix(before).removesuffix(after)


def _list_text(items: list, indent: str) -> str:
    """The text of a list whose item texts are ``items``, at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    return f"[\n{inner}{sep.join(items)}\n{indent}]"


def _int_width(rows) -> int:
    """The width of ``rows`` when it is a list or tuple of lists or tuples
    of one width whose values are all exactly ``int``; 0 otherwise.
    Classes are tested exactly, so that ``True`` does not pass for ``1``;
    the first row is tested alone first, so that a list of other rows pays
    little."""
    first = rows[0]
    if (
        first.__class__ in _ROW_CLASSES
        and set(map(type, first)) == _INT_CLASS
        and set(map(type, rows)) <= _ROW_CLASSES
        and len(set(map(len, rows))) == 1
        and set(map(type, chain.from_iterable(rows))) == _INT_CLASS
    ):
        return len(first)
    return 0


@lru_cache(maxsize=256)
def _entry_formats(widths: tuple, width: int, indent: str) -> tuple:
    """The text of one graph entry of a p-function written at ``indent``,
    whose arguments are rows of ``widths`` ints and whose rows are rows of
    ``width`` ints, as ``%`` formats: the whole entry when it has no rows,
    over its argument values; the text before its first row, over the
    same; and the text of one row, between two rows and after the last."""
    args = [[_INT] * w for w in widths]
    empty, cut, one = (
        _item_template({"args": args, "rows": rows}, indent)
        for rows in ([], [_HOLE, _HOLE], [[_INT] * width])
    )
    before, between, after = cut.split(_HOLE)
    return empty, before, one.removeprefix(before).removesuffix(after), between, after


def _graph_text(graph: tuple, indent: str) -> "str | None":
    """The text of the entries of the graph of a p-function written at
    ``indent`` when its argument tuples are lists or tuples of one count
    of places, each place holding ``_int_width`` rows, and all the rows of
    its row sets are ``_int_width`` rows; None otherwise, as for an empty
    graph or a place of width 0.  Each entry is an ``_entry_formats``
    format, with one row text per sorted row, and the joined entries are
    filled with every argument value at once."""
    args = [a for a, _ in graph]
    widths = ()
    if args and set(map(type, args)) <= _ROW_CLASSES and len(set(map(len, args))) == 1:
        widths = tuple(map(_int_width, zip(*args)))
    rows = list(chain.from_iterable([r for _, r in graph if r]))
    width = _int_width(rows) if rows else 0
    if not widths or not all(widths) or (rows and not width):
        return None
    empty, before, row, between, after = _entry_formats(widths, width, indent)
    entries = [
        before + between.join([row % tuple(r) for r in sorted(rs)]) + after if rs else empty
        for _, rs in graph
    ]
    values = tuple(chain.from_iterable(chain.from_iterable(args)))
    return _item_layout(indent)[1].join(entries) % values


def _write_pfunction(pf: PFunction, indent: str, chunks: list) -> None:
    """Append the text of ``pfunction_to_json(pf)``.  A graph that
    ``_graph_text`` writes is written from ``pf.graph``, with no record
    per entry, at a ``_HOLE``; any other goes through the generic writer."""
    graph = _graph_text(pf.graph, indent)
    if graph is None:
        _write_json(pfunction_to_json(pf), indent, chunks)
    else:
        payload = {**pfunction_to_json(replace(pf, graph=())), "graph": [_HOLE]}
        chunks.append(_template(payload, indent).replace(_HOLE, graph))


@lru_cache(maxsize=256)
def _extra_format(places: tuple, width: int, demands: tuple, indent: str) -> str:
    """The text of one extra of a saturation written at ``indent``, as a
    ``%`` format over its values in text order: the trigger's, whose
    places are rows of ``places`` ints, the output's, a row of ``width``
    ints, the encoded operation name and index, then per demand the
    argument values, a row of ``demands`` ints, the encoded function name
    and the int value."""
    return _item_template(
        {"args": [[_INT] * w for w in places], "b": [_INT] * width, "op": _STR, "opIndex": _INT,
         "perturbation": [{"args": [_INT] * w, "function": _STR, "value": _INT} for w in demands]},
        indent,
    )


def _extras_text(extras: tuple, indent: str) -> "str | None":
    """The text of the items of the ``extras`` list of a saturation
    written at ``indent`` when every value of a row or a perturbation is
    exactly an ``int``; None otherwise, as for no extras.  Each extra is an
    ``_extra_format`` format, chosen by its shape, and the joined formats
    are filled with every value at once."""
    if not extras:
        return None
    rows = [row for e in extras for row in (*e.trigger, e.output)]
    rows += [(*args, value) for e in extras for (_, args), value in e.perturbation]
    if not set(map(type, chain.from_iterable(rows))) <= _INT_CLASS:
        return None
    formats, cells = [], []
    for e in extras:
        demands = e.perturbation
        shape = tuple([len(args) for (_, args), _ in demands])
        formats.append(_extra_format(tuple(map(len, e.trigger)), len(e.output), shape, indent))
        cells += chain.from_iterable(e.trigger)
        cells += e.output
        cells += (_encode_str(e.op_name), e.op_index)
        for (name, args), value in demands:
            cells += args
            cells += (_encode_str(name), value)
    return _item_layout(indent)[1].join(formats) % tuple(cells)


def _write_saturation(sat: SaturatedMorphism, indent: str, chunks: list) -> None:
    """Append the text of ``saturation_to_json(sat)``.  Extras that
    ``_extras_text`` writes are written from ``sat.extras``, with no record
    per extra, at a ``_HOLE``; any others go through the generic writer."""
    extras = _extras_text(sat.extras, indent)
    if extras is None:
        _write_json(saturation_to_json(sat), indent, chunks)
    else:
        payload = {**saturation_to_json(replace(sat, extras=())), "extras": [_HOLE]}
        payload["counts"]["extras"] = len(sat.extras)
        chunks.append(_template(payload, indent).replace(_HOLE, extras))


def _write_json(value, indent: str, chunks: list) -> None:
    """Append the text of ``value`` to ``chunks``: a container opens on the
    current line, and its items sit on lines of their own, indented by
    ``indent`` and two spaces more."""
    scalar = _SCALARS.get(value.__class__)
    if scalar is not None:
        chunks.append(scalar(value))
        return
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        sep = "{\n" + inner
        for key in sorted(value):
            chunks.append(sep + _encode_str(key) + ": ")
            _write_json(value[key], inner, chunks)
            sep = ",\n" + inner
        chunks.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        if value[0].__class__ in _SCALARS:  # a list of scalars, such as a row, is one string
            try:
                items = [_SCALARS[v.__class__](v) for v in value]
            except KeyError:  # a container after the first item
                pass
            else:
                chunks.append(_list_text(items, indent))
                return
        elif value[0].__class__ in _ROW_CLASSES and value[0] and value[0][0].__class__ is int:
            if width := _int_width(value):  # a list of int rows is one format per row
                row = _row_format(width, inner)
                chunks.append(_list_text([row % tuple(r) for r in value], indent))
                return
        sep = "[\n" + inner
        for item in value:
            chunks.append(sep)
            _write_json(item, inner, chunks)
            sep = ",\n" + inner
        chunks.append("\n" + indent + "]")
    elif isinstance(value, str):
        chunks.append(_encode_str(value))
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, PFunction):
        _write_pfunction(value, indent, chunks)
    elif isinstance(value, SaturatedMorphism):
        _write_saturation(value, indent, chunks)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"`` for a payload of dicts with string keys,
    lists, tuples, strings, ints, booleans and None, built as a list of
    chunks and joined once."""
    chunks: list = []
    _write_json(obj, "", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _equal_set_to_json(op: OperadOperation) -> list:
    groups = []
    for group in build_equal_var_set(op):
        groups.append(sorted([i, j] for (i, j) in group))
    return sorted(groups)


def _op_to_json(op: OperadOperation) -> dict:
    return {
        "name": op.name,
        "rq": op.rq_name,
        "target": op.target,
        "targetColumns": list(op.target_columns),
        "expression": render_expression(op),
        "logic": render_implication(op),
        "places": [
            {
                "symbol": p.symbol,
                "variables": list(p.variables),
                "negated": p.negated,
                "char": p.char,
            }
            for p in op.places
        ],
        "guards": [pretty_literal(g) for g in op.guards],
        "head": [pretty_term(t) for t in op.target_terms],
        "variableOrder": list(op.variable_order),
        "S": _equal_set_to_json(op),
        "Z": sorted(simple_var_positions(op)),
    }


def arrow_to_json(arrow: OperadArrow) -> dict:
    return {
        "name": arrow.name,
        "source": arrow.source_schema.name,
        "target": arrow.target_schema.name,
        "identity": arrow.identity.name,
        "operations": [_op_to_json(op) for op in arrow.operations],
    }


def morphism_to_json(m: InstanceMorphism, report: SatisfactionReport) -> dict:
    return {
        "arrow": m.arrow.name,
        "satisfied": report.satisfied,
        "violations": [
            {"operation": op, "row": row}
            for op, row in report.violations
        ],
        "components": [
            {
                "operation": c.op.name,
                "rq": c.op.rq_name,
                "target": c.op.target,
                "image": sort_rows(c.image()),
            }
            for c in m.components
        ],
    }


def kernel_to_json(kernel: FluxKernel) -> dict:
    return {"members": [rows for _, rows in kernel._sorted_rows()]}


def saturation_to_json(sat: SaturatedMorphism) -> dict:
    return {
        "arrow": sat.arrow.name,
        "extras": [
            {
                "op": e.op_name,
                "opIndex": e.op_index,
                "args": e.trigger,
                "b": e.output,
                "perturbation": [
                    {"function": fname, "args": fargs, "value": val}
                    for (fname, fargs), val in e.perturbation
                ],
            }
            for e in sat.extras
        ],
        "skipped": [
            {
                "op": s.op_name,
                "opIndex": s.op_index,
                "args": s.trigger,
                "b": s.candidate,
                "reason": s.reason,
            }
            for s in sat.skipped
        ],
        "counts": {"extras": len(sat.extras), "skipped": len(sat.skipped)},
    }


def pfunction_to_json(pf: PFunction) -> dict:
    return {
        "name": pf.name,
        "codomain": pf.codomain,
        "domain": [
            {"symbol": s, "negated": neg, "char": char} for s, neg, char in pf.domain
        ],
        "graph": [
            {"args": args, "rows": sort_rows(rows)}
            for args, rows in pf.graph
        ],
    }


def _violation_key(entry: dict) -> tuple:
    """Constraint text, then the witness items (in ``str`` order) with
    values compared by ``value_key``, so mixed value kinds sort."""
    items = sorted(entry["witness"].items(), key=str)
    return entry["constraint"], [(name, value_key(v)) for name, v in items]


def validation_to_json(report: ValidationReport) -> dict:
    entries = []
    for v in report.violations:
        entries.append(
            {
                "constraint": pretty_mapping([v.constraint]),
                "witness": dict(v.witness),
            }
        )
    entries.sort(key=_violation_key)
    return {"valid": report.ok, "violations": entries}
