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
string.

A row list read from JSON is checked in bulk: one pass over the classes of
its rows and of their values, one set of row widths.  Only a list that
fails the check goes through ``value_from_json`` value by value, which
raises the located message of its first bad row or value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .dsl import parse_mapping, pretty_literal, pretty_mapping, pretty_term
from .errors import ParseError, SchemaError
from .flux import FluxKernel
from .interp import FunctionTable, InstanceMorphism, SatisfactionReport, TarskiInterpretation
from .logic import RelAtom, SOtgd, ValidationReport
from .model import (
    NULL,
    DomainValue,
    Instance,
    RelationSymbol,
    Row,
    Schema,
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
    "value_to_json",
    "value_from_json",
    "rows_to_json",
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


def value_to_json(value: DomainValue):
    if value is NULL:
        return None
    return value


def value_from_json(value, where: str = "value"):
    if value is None:
        return NULL
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not domain values")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise SchemaError(f"{where}: floats are not domain values")
    if isinstance(value, str):
        return value
    raise SchemaError(f"{where}: {value!r} is not a domain value")


def _row_arrays(rows) -> list:
    """Rows as JSON arrays, in their order; a row that holds no NULL is
    copied whole."""
    return [[value_to_json(v) for v in row] if NULL in row else list(row) for row in rows]


def rows_to_json(rows) -> list:
    return _row_arrays(sort_rows(rows))


def _row_from_json(row, where: str) -> Row:
    if not isinstance(row, list):
        raise SchemaError(f"{where}: each row must be a JSON array")
    return tuple(value_from_json(v, where) for v in row)


_PLAIN = frozenset({int, str, type(None)})


def _rows_from_json(rows: list, where: str) -> list:
    """The rows of a JSON array of rows as tuples of domain values.  When
    a row is not an array, or a value is not an int, a string or null, the
    rows go through ``_row_from_json`` one by one, which raises the error
    of the first bad one, located by ``where``."""
    if {row.__class__ for row in rows} <= {list}:
        kinds = {v.__class__ for row in rows for v in row}
        if kinds <= _PLAIN:
            if type(None) in kinds:
                return [tuple([NULL if v is None else v for v in row]) for row in rows]
            return list(map(tuple, rows))
    return [_row_from_json(row, where) for row in rows]


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


def _section(data: dict, key: str, kind: type, where: str):
    """data[key], an empty ``kind`` when absent, checked to be of that kind."""
    return _typed(data.get(key, kind()), kind, f"{where}: '{key}'")


def instance_to_json(inst: Instance) -> dict:
    relations = {}
    for sym in inst.schema.ordinary_symbols():
        relations[sym.name] = {
            "columns": list(sym.columns),
            "rows": rows_to_json(inst.rows(sym.name)),
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

    symbols = {}
    rows_by_name = {}
    for name, body in sorted(declared.items()):
        if not isinstance(body, dict) or "columns" not in body or "rows" not in body:
            raise SchemaError(f"{where}: relation {name} needs 'columns' and 'rows'")
        columns = _columns(body["columns"], f"{where}: relation {name}: 'columns'")
        rows = _typed(body["rows"], list, f"{where}: relation {name}: 'rows'")
        symbols[name] = RelationSymbol(name, columns)
        rows = rows_by_name[name] = _rows_from_json(rows, f"{where}: {name}")
        if {len(row) for row in rows} - {len(columns)}:
            row = next(row for row in rows if len(row) != len(columns))
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
    member = frozenset(_rows_from_json(rows, f"{path}: member row"))
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
        return self._declared("schema", self.schemas, name)

    def instance(self, name: str) -> Instance:
        entry = self._declared("instance", self.instances, name)
        if ("instance", name) not in self._read:
            self._read["instance", name] = load_instance_file(*entry)
        return self._read["instance", name]

    def mapping(self, name: str) -> MappingSource:
        path, source, target = self._declared("mapping", self.mappings, name)
        if ("mapping", name) not in self._read:
            self._read["mapping", name] = MappingSource(name, source, target, _read_text(path))
        return self._read["mapping", name]

    @staticmethod
    def _declared(kind: str, entries: dict, name: str):
        if name not in entries:
            raise SchemaError(f"project declares no {kind} {name}")
        return entries[name]


def _schema_constraints(text: str, symbols: dict, where: str):
    """The schema's dependencies; each relational atom, negated or not, in
    either side, must name a relation of the schema with its arity."""
    parsed = parse_mapping(text)
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


def load_project(path) -> Project:
    path = Path(path)
    data = _typed(_read_json(path), dict, f"{path}: the top level")
    base = path.parent

    (domain,) = _rows_from_json([_section(data, "domain", list, path)], f"{path}: 'domain'")

    schemas = {}
    for name, body in sorted(_section(data, "schemas", dict, path).items()):
        where = f"{path}: schema {name}"
        relations = _section(_typed(body, dict, where), "relations", dict, where)
        symbols = {
            rel: RelationSymbol(rel, _columns(cols, f"{where}: relation {rel}"))
            for rel, cols in sorted(relations.items())
        }
        constraints = ()
        if "constraints" in body:
            text = _typed(body["constraints"], str, f"{where}: 'constraints'")
            constraints = _schema_constraints(text, symbols, where)
        schemas[name] = Schema(name, symbols.values(), constraints)

    project = Project(domain=domain, schemas=schemas)

    for name, body in sorted(_section(data, "instances", dict, path).items()):
        where = f"{path}: instance {name}"
        schema = project.schema(_entry_field(body, "schema", where))
        project.instances[name] = (base / _entry_field(body, "file", where), schema)

    for name, body in sorted(_section(data, "mappings", dict, path).items()):
        where = f"{path}: mapping {name}"
        src = project.schema(_entry_field(body, "source", where))
        tgt = project.schema(_entry_field(body, "target", where))
        file = base / _entry_field(body, "file", where)
        project.mappings[name] = (file, src.name, tgt.name)

    edges = []
    for edge in _section(data, "graph", list, path):
        if not isinstance(edge, list) or len(edge) != 3 or not all(
            isinstance(end, str) for end in edge
        ):
            raise SchemaError(
                f"{path}: graph edge {edge!r} is not a [source, target, mapping] triple"
            )
        src, tgt, mapping = edge
        project.schema(src)
        project.schema(tgt)
        if project._declared("mapping", project.mappings, mapping)[1:] != (src, tgt):
            raise SchemaError(
                f"graph edge {edge!r} disagrees with mapping {mapping}'s schemas"
            )
        edges.append((src, tgt, mapping))
    project.graph = tuple(edges)
    return project


def compile_project_mapping(project: Project, name: str) -> OperadArrow:
    ms = project.mapping(name)
    return compile_source(
        ms.text, project.schema(ms.source), project.schema(ms.target), name=name
    )


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
        pairs = _section(_typed(body, dict, where), "entries", list, where)
        good = len(pairs)  # the pairs before the first that is no [args, value] pair
        if not ({p.__class__ for p in pairs} <= {list} and {len(p) for p in pairs} <= {2}):
            good = next(
                i for i, pair in enumerate(pairs) if not isinstance(pair, list) or len(pair) != 2
            )
        # each good pair gives two rows, [value] and args: the first fault in
        # file order raises, a pair's value before its args
        rows = _rows_from_json(
            [part for pair in pairs[:good] for part in (pair[1:], pair[0])], f"{path}: {fname}"
        )
        if good < len(pairs):
            raise SchemaError(f"{path}: {fname}: entries are [args, value] pairs")
        entries = dict(zip(rows[1::2], [value for (value,) in rows[::2]]))
        if len(entries) < good:  # an argument tuple listed twice
            first: dict = {}  # checked args -> the value as the file writes it
            for pair, args in zip(pairs, rows[1::2]):
                if first.setdefault(args, pair[1]) != pair[1]:
                    raise SchemaError(
                        f"{where}: arguments {json.dumps(pair[0])} have two values, "
                        f"{json.dumps(first[args])} and {json.dumps(pair[1])}"
                    )
        default = None
        if "default" in body:
            default = value_from_json(body["default"], f"{path}: {fname} default")
        tables[fname] = FunctionTable(fname, entries, default)

    domain = None
    if "domain" in data:
        (values,) = _rows_from_json([_section(data, "domain", list, path)], f"{path}: domain")
        domain = frozenset(values)
    return TarskiInterpretation(source, target, tables, extras, domain)


_encode_str = json.encoder.encode_basestring
_ROW_CLASSES = frozenset({list, tuple})
_INT_CLASS = {int}
# the text of each scalar, by its exact class; other classes take the
# ``isinstance`` path of ``_write_json``
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@lru_cache(maxsize=256)
def _row_format(width: int, inner: str) -> str:
    """The text of one row of ``width`` ints at item indent ``inner``, as a
    ``%`` format."""
    cell = ",\n" + inner + "  "
    return "[\n" + inner + "  " + cell.join(["%d"] * width) + "\n" + inner + "]"


def _int_rows(value, inner: str) -> "list | None":
    """The text of each row of ``value``, at item indent ``inner``, when
    ``value`` is a list of lists or tuples of one width >= 1 whose values
    are all exactly ``int``; None otherwise.  Classes are tested exactly,
    so that ``True`` does not pass for ``1``; the first row is tested
    alone first, so that a list of other rows pays little."""
    first = value[0]
    if (
        set(map(type, first)) == _INT_CLASS
        and set(map(type, value)) <= _ROW_CLASSES
        and len(set(map(len, value))) == 1
        and set(map(type, chain.from_iterable(value))) == _INT_CLASS
    ):
        row = _row_format(len(first), inner)
        return [row % tuple(r) for r in value]
    return None


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
                items = (",\n" + inner).join([_SCALARS[v.__class__](v) for v in value])
            except KeyError:  # a container after the first item
                pass
            else:
                chunks.append("[\n" + inner + items + "\n" + indent + "]")
                return
        elif value[0].__class__ in _ROW_CLASSES and value[0] and value[0][0].__class__ is int:
            rows = _int_rows(value, inner)
            if rows is not None:  # a list of int rows is one format per row
                chunks.append("[\n" + inner + (",\n" + inner).join(rows) + "\n" + indent + "]")
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
            {"operation": op, "row": [value_to_json(v) for v in row]}
            for op, row in report.violations
        ],
        "components": [
            {
                "operation": c.op.name,
                "rq": c.op.rq_name,
                "target": c.op.target,
                "image": rows_to_json(c.image()),
            }
            for c in m.components
        ],
    }


def kernel_to_json(kernel: FluxKernel) -> dict:
    return {"members": [rows_to_json(m) for m in kernel.sorted_members()]}


def saturation_to_json(sat: SaturatedMorphism) -> dict:
    return {
        "arrow": sat.arrow.name,
        "extras": [
            {
                "op": e.op_name,
                "opIndex": e.op_index,
                "args": _row_arrays(e.trigger),
                "b": [value_to_json(v) for v in e.output],
                "perturbation": [
                    {
                        "function": fname,
                        "args": [value_to_json(v) for v in fargs],
                        "value": value_to_json(val),
                    }
                    for (fname, fargs), val in e.perturbation
                ],
            }
            for e in sat.extras
        ],
        "skipped": [
            {
                "op": s.op_name,
                "opIndex": s.op_index,
                "args": _row_arrays(s.trigger),
                "b": [value_to_json(v) for v in s.candidate],
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
            {"args": _row_arrays(args), "rows": rows_to_json(rows)}
            for args, rows in pf.graph
        ],
    }


def _violation_key(entry: dict) -> tuple:
    """Constraint text, then the witness items (in ``str`` order) with
    values compared by ``value_key``, so mixed value kinds sort."""
    items = sorted(entry["witness"].items(), key=str)
    return entry["constraint"], [(name, value_key(value_from_json(v))) for name, v in items]


def validation_to_json(report: ValidationReport) -> dict:
    entries = []
    for v in report.violations:
        entries.append(
            {
                "constraint": pretty_mapping([v.constraint]),
                "witness": {name: value_to_json(val) for name, val in v.witness},
            }
        )
    entries.sort(key=_violation_key)
    return {"valid": report.ok, "violations": entries}
