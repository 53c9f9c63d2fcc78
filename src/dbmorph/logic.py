"""Dependencies between schemas: terms, literals, tgds, egds, SOtgds.

A tgd has the shape ``∀x (∃y φ(x,y) ⇒ ∃z ψ(x,z))`` with φ a conjunction of
literals and ψ a conjunction of relational atoms; an egd equates variables
under a conjunction of atoms.  A second-order tgd (SOtgd) prefixes a tuple
of existentially quantified function symbols to a conjunction of implications
whose head terms may apply those symbols.

This module also implements the transformations that feed the operad
compiler: Skolemization of tgd sets, constant hoisting, normalization into
single-head implications, and constraint validation of finite instances.

One generator (``_compiled``) turns a join into Python source: atoms
matched left to right against the relations' indexes, literal tests
and head terms, with variables as locals, a skolem application as one
table lookup and the comparison rules inlined.  The source is compiled
once per shape, which leaves out names and constants, and serves the
evaluation of components in ``interp``, the skolem demands of
``saturation`` and the body and head searches of validation here.  A
function term in a validated body atom is a SafetyError once a row agrees
with the atom at every position before it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import SafetyError, SchemaError
from .irdb import hash_tuple
from .model import (
    EMPTY_NAME,
    DomainValue,
    Instance,
    active_domain,
    value_key,
)

__all__ = [
    "FuncKind",
    "FuncSymbol",
    "Var",
    "Const",
    "App",
    "Term",
    "RelAtom",
    "Comparison",
    "NotNull",
    "Literal",
    "Tgd",
    "Egd",
    "Dependency",
    "SOtgdConjunct",
    "SOtgd",
    "NormalizedImplication",
    "TAUT_ATOM",
    "TAUT_SOTGD",
    "TAUT_IMPLICATION",
    "COMPARISON_OPS",
    "HASH_NAME",
    "hash_symbol",
    "term_variables",
    "term_functions",
    "literal_terms",
    "literal_variables",
    "skolemize",
    "hoist_constants",
    "normalize",
    "check_conjunct_safety",
    "Violation",
    "ValidationReport",
    "validate_instance",
]

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")

HASH_NAME = "hash"


class FuncKind(enum.Enum):
    SKOLEM = "skolem"
    HASH = "hash"


@dataclass(frozen=True)
class FuncSymbol:
    name: str
    kind: FuncKind


def hash_symbol() -> FuncSymbol:
    return FuncSymbol(HASH_NAME, FuncKind.HASH)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: DomainValue


@dataclass(frozen=True)
class App:
    func: FuncSymbol
    args: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


Term = Union[Var, Const, App]


def term_variables(term: Term) -> Iterator[str]:
    """All variable names in a term, function arguments included."""
    if isinstance(term, Var):
        yield term.name
    elif isinstance(term, App):
        for a in term.args:
            yield from term_variables(a)


def term_functions(term: Term) -> Iterator[FuncSymbol]:
    if isinstance(term, App):
        yield term.func
        for a in term.args:
            yield from term_functions(a)


@dataclass(frozen=True)
class RelAtom:
    """Relational atom ``r(t_1, …, t_k)``, optionally negated."""

    relation: str
    terms: tuple
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Comparison:
    """Built-in comparison ``t ⊙ t'`` with ⊙ in =, !=, <, <=, >, >=."""

    left: Term
    op: str
    right: Term
    negated: bool = False

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise SchemaError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class NotNull:
    """Built-in nullability test ``notnull(t)``."""

    term: Term
    negated: bool = False


Literal = Union[RelAtom, Comparison, NotNull]


def literal_terms(lit: Literal) -> tuple:
    if isinstance(lit, RelAtom):
        return lit.terms
    if isinstance(lit, Comparison):
        return (lit.left, lit.right)
    return (lit.term,)


def literal_variables(lit: Literal) -> Iterator[str]:
    for t in literal_terms(lit):
        yield from term_variables(t)


@dataclass(frozen=True)
class Tgd:
    """∀universals (∃lhs_exists ∧lhs ⇒ ∃rhs_exists ∧rhs)."""

    universals: tuple
    lhs: tuple
    rhs: tuple
    lhs_exists: tuple = ()
    rhs_exists: tuple = ()

    def __post_init__(self) -> None:
        for f in ("universals", "lhs", "rhs", "lhs_exists", "rhs_exists"):
            object.__setattr__(self, f, tuple(getattr(self, f)))
        bound = set(self.universals) | set(self.lhs_exists)
        for lit in self.lhs:
            for v in literal_variables(lit):
                if v not in bound:
                    raise SafetyError(f"lhs variable {v} is not bound")
        head_bound = set(self.universals) | set(self.rhs_exists)
        for atom in self.rhs:
            if atom.negated:
                raise SafetyError("negation is not allowed in a tgd head")
            for v in literal_variables(atom):
                if v not in head_bound:
                    raise SafetyError(f"head variable {v} is not bound")


@dataclass(frozen=True)
class Egd:
    """∀universals (∧lhs ⇒ y_1 ≐ z_1 ∧ … ∧ y_n ≐ z_n)."""

    universals: tuple
    lhs: tuple
    equalities: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "universals", tuple(self.universals))
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "equalities", tuple(tuple(e) for e in self.equalities))
        lhs_vars = set()
        for atom in self.lhs:
            if not isinstance(atom, RelAtom) or atom.negated:
                raise SafetyError("an egd lhs is a conjunction of positive relational atoms")
            lhs_vars.update(literal_variables(atom))
        for y, z in self.equalities:
            for v in (y, z):
                if v not in lhs_vars:
                    raise SafetyError(f"equated variable {v} does not occur in the egd lhs")


Dependency = Union[Tgd, Egd]


@dataclass(frozen=True)
class SOtgdConjunct:
    """One implication ∀universals (∧lhs ⇒ ∧rhs) inside an SOtgd."""

    universals: tuple
    lhs: tuple
    rhs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "universals", tuple(self.universals))
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))


@dataclass(frozen=True)
class SOtgd:
    """∃functions (∧ conjuncts); head terms may apply the bound functions."""

    functions: tuple
    conjuncts: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "conjuncts", tuple(self.conjuncts))
        names = [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate function symbols in the SOtgd prefix")


@dataclass(frozen=True)
class NormalizedImplication:
    """Single-head implication ∀universals (∧lhs ⇒ head)."""

    universals: tuple
    lhs: tuple
    head: RelAtom

    def __post_init__(self) -> None:
        object.__setattr__(self, "universals", tuple(self.universals))
        object.__setattr__(self, "lhs", tuple(self.lhs))
        if self.head.negated:
            raise SafetyError("an implication head cannot be negated")

    @property
    def is_tautology(self) -> bool:
        return self.head.relation == EMPTY_NAME


TAUT_ATOM = RelAtom(EMPTY_NAME, ())
TAUT_SOTGD = SOtgd((), (SOtgdConjunct((), (TAUT_ATOM,), (TAUT_ATOM,)),))
TAUT_IMPLICATION = NormalizedImplication((), (TAUT_ATOM,), TAUT_ATOM)


def _is_taut_conjunct(conj: SOtgdConjunct) -> bool:
    return (
        not conj.universals
        and conj.lhs == (TAUT_ATOM,)
        and conj.rhs == (TAUT_ATOM,)
    )


# ---------------------------------------------------------------------------
# Skolemization


def _fresh_names(prefix: str, taken: set, count: int) -> list[str]:
    out: list[str] = []
    n = 1
    while len(out) < count:
        name = f"{prefix}{n}"
        if name not in taken:
            taken.add(name)
            out.append(name)
        n += 1
    return out


def _substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, App):
        return App(term.func, tuple(_substitute(a, mapping) for a in term.args))
    return term


def check_conjunct_safety(conj: SOtgdConjunct) -> None:
    # every universal must occur in some lhs relational atom
    atom_vars = {
        v for l in conj.lhs if isinstance(l, RelAtom) for v in literal_variables(l)
    }
    for v in conj.universals:
        if v not in atom_vars:
            raise SafetyError(f"unsafe dependency: variable {v} occurs in no lhs relational atom")
    bound = set(conj.universals)
    for lit in conj.lhs:
        for v in literal_variables(lit):
            if v not in bound:
                raise SafetyError(f"lhs variable {v} is not universally bound")
    for atom in conj.rhs:
        for t in atom.terms:
            for v in term_variables(t):
                if v not in bound:
                    raise SafetyError(f"head variable {v} is not universally bound")


def skolemize(tgds: Sequence[Tgd]) -> SOtgd:
    """Replace every rhs existential with a fresh skolem symbol applied to all
    universals of its tgd (lhs inner existentials are promoted to universals
    first).  Symbol sets of distinct tgds are disjoint."""
    taken: set = set()
    for tgd in tgds:
        for lit in list(tgd.lhs) + list(tgd.rhs):
            for t in literal_terms(lit):
                taken.update(f.name for f in term_functions(t))
    functions: list[FuncSymbol] = []
    conjuncts: list[SOtgdConjunct] = []
    for tgd in tgds:
        universals = tuple(tgd.universals) + tuple(tgd.lhs_exists)
        arg_terms = tuple(Var(u) for u in universals)
        names = _fresh_names("f", taken, len(tgd.rhs_exists))
        mapping: dict = {}
        for z, name in zip(tgd.rhs_exists, names):
            sym = FuncSymbol(name, FuncKind.SKOLEM)
            functions.append(sym)
            mapping[z] = App(sym, arg_terms)
        rhs = tuple(
            RelAtom(a.relation, tuple(_substitute(t, mapping) for t in a.terms))
            for a in tgd.rhs
        )
        conj = SOtgdConjunct(universals, tgd.lhs, rhs)
        check_conjunct_safety(conj)
        conjuncts.append(conj)
    return SOtgd(tuple(functions), tuple(conjuncts))


# ---------------------------------------------------------------------------
# constant hoisting and normalization


def hoist_constants(impl: NormalizedImplication) -> NormalizedImplication:
    """Replace every constant occurring in a lhs relational atom by a fresh
    variable constrained equal to it, one variable per occurrence."""
    taken = set(impl.universals)
    for lit in impl.lhs:
        taken.update(literal_variables(lit))
    taken.update(literal_variables(impl.head))
    guards: list[Comparison] = []
    new_lhs: list[Literal] = []
    new_universals = list(impl.universals)
    for lit in impl.lhs:
        if not isinstance(lit, RelAtom):
            new_lhs.append(lit)
            continue
        terms = []
        for t in lit.terms:
            if isinstance(t, Const):
                (name,) = _fresh_names("y", taken, 1)
                guards.append(Comparison(Var(name), "=", t))
                new_universals.append(name)
                terms.append(Var(name))
            else:
                terms.append(t)
        new_lhs.append(RelAtom(lit.relation, tuple(terms), lit.negated))
    if not guards:
        return impl
    return NormalizedImplication(
        tuple(new_universals), tuple(guards) + tuple(new_lhs), impl.head
    )


def normalize(sotgd: SOtgd) -> list[NormalizedImplication]:
    """Split multi-head conjuncts into single-head implications sharing the
    lhs, hoisting lhs constants.  The tautology normalizes to itself."""
    out: list[NormalizedImplication] = []
    for conj in sotgd.conjuncts:
        if _is_taut_conjunct(conj):
            out.append(TAUT_IMPLICATION)
            continue
        check_conjunct_safety(conj)
        for atom in conj.rhs:
            if atom.relation == EMPTY_NAME:
                raise SafetyError(f"{EMPTY_NAME} cannot head an ordinary dependency")
            out.append(
                hoist_constants(NormalizedImplication(conj.universals, conj.lhs, atom))
            )
    return out


# ---------------------------------------------------------------------------
# instance validation


@dataclass(frozen=True)
class Violation:
    constraint: Dependency
    witness: tuple  # sorted (variable, value) pairs


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# generated joins
#
# A join (atoms matched left to right against indexed rows, literal tests,
# head terms) becomes the source of one Python function, compiled once per
# shape.  The shape names the variables and leaves out what the caller
# passes in: the rows of each atom (``I``), the constants (``C``) and the
# skolem symbols (``S``), each by slot, so that one compiled function
# serves every operation or constraint of its shape.

_MISS = object()  # no table entry: NULL is a value, so a marker of its own
_LOOPS = 16  # nested loops per generated function (see ``_Source``)
_UNSAFE = "function {} has no fixed interpretation inside a schema constraint"
_UNMATCHABLE = "function terms in constraint lhs atoms are not supported by the validator"
_PARAMETERS = {
    "graph": "I, C, S",
    "trace": "I, C, S, reached",
    "search": "I, C, S, B, D",
    "demand": "args, C, S",
}
_GLOBALS = {
    "MISS": _MISS,
    "UNSAFE": _UNSAFE,
    "UNMATCHABLE": _UNMATCHABLE,
    "SafetyError": SafetyError,
    "SchemaError": SchemaError,
    "hash_tuple": hash_tuple,
}


class _Program(NamedTuple):
    """A generated function; per atom, the key positions of the index its
    rows are looked up in (``model.Relation.index`` at them); and its
    source text."""

    run: object
    positions: tuple
    source: str


def _term_shape(term, consts: list, funcs: dict):
    """``term`` as a shape: a variable (a ``Var`` or its name) is its name,
    a constant ``("const", slot)``, a hash application ``("hash", *args)``
    and a skolem one ``("skolem", slot, *args)``.  Each constant is
    appended to ``consts``, each new symbol gets the next slot in
    ``funcs``."""
    if term.__class__ is str:
        return term
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        consts.append(term.value)
        return ("const", len(consts) - 1)
    args = tuple([_term_shape(a, consts, funcs) for a in term.args])
    if term.func.kind is FuncKind.HASH:
        return ("hash",) + args
    return ("skolem", funcs.setdefault(term.func.name, len(funcs))) + args


def _literal_shape(lit: Literal, consts: list, funcs: dict, relations: list):
    """``lit`` as a shape over term shapes; a relational atom is tested
    against the rows of the next relation slot."""
    if isinstance(lit, Comparison):
        left = _term_shape(lit.left, consts, funcs)
        return ("cmp", lit.negated, lit.op, left, _term_shape(lit.right, consts, funcs))
    if isinstance(lit, NotNull):
        return ("notnull", lit.negated, _term_shape(lit.term, consts, funcs))
    relations.append(lit.relation)
    terms = tuple([_term_shape(t, consts, funcs) for t in lit.terms])
    return ("atom", lit.negated, len(relations) - 1, terms)


def _compiled(mode: str, atoms, tests=(), head=(), bound=(), free=()) -> tuple:
    """The generated function of a join, with what it takes besides rows:
    (program, constants, skolem symbol names, names of the relations the
    tests look rows up in).

    ``atoms`` are term sequences matched left to right, ``tests`` the
    literals that must hold after them, in order, and ``head`` the terms
    evaluated where they do.  ``bound`` names the variables whose values
    come in ``B``; each name of ``free`` that no atom binds ranges over
    ``D``, innermost last.  ``mode`` is "graph" (a dict from the matched
    rows to the head values, or to ``()`` where a test fails), "trace"
    (the same as (args, assignment, test outcomes up to the first failure,
    output) records, each yielded after ``reached(args)`` and evaluated
    when it is asked for), "search" (each assignment under which every
    test holds, a skolem application being unsafe) or "demand" (for the
    rows of one match, per head term the arguments of its skolem
    application, or None)."""
    consts: list = []
    funcs: dict = {}
    relations: list = []
    key = (
        mode,
        tuple([tuple([_term_shape(t, consts, funcs) for t in atom]) for atom in atoms]),
        tuple([_literal_shape(lit, consts, funcs, relations) for lit in tests]),
        tuple([_term_shape(t, consts, funcs) for t in head]),
        tuple(bound),
        tuple(free),
        len(consts),
        len(funcs),
        len(relations),
    )
    return _generate(key), tuple(consts), tuple(funcs), tuple(relations)


def _tuple(parts: Sequence[str]) -> str:
    if len(parts) == 1:
        return f"({parts[0]},)"
    return f"({', '.join(parts)})"


class _Source:
    """The lines of one generated function.  Variables are the locals
    ``v<n>`` in binding order, constants ``c<slot>``, the entries and the
    fallback lookup of a skolem symbol ``e<slot>`` and ``l<slot>``, the
    rows of atom j ``i<j>`` and its current row ``r<j>``.

    A join of more than ``_LOOPS`` loops goes on in a function of its own
    after each ``_LOOPS`` of them, called with every name defined so far,
    since CPython compiles no more than 20 nested blocks in one function."""

    def __init__(self, mode: str):
        self.mode = mode
        self.interpreted = mode != "search"
        self.done: list = []  # the lines of each function before the current one
        self.lines = [f"def {mode}({_PARAMETERS[mode]}):"]
        self.defined = _PARAMETERS[mode].split(", ")
        self.depth = 1
        self.loops = 0
        self.local: dict = {}
        self.temps = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def define(self, name: str) -> str:
        self.defined.append(name)
        return name

    def bind(self, name: str) -> str:
        self.local[name] = local = self.define(f"v{len(self.local)}")
        return local

    def loop(self, source: str, row: "str | None" = None, var: "str | None" = None) -> None:
        """Open a loop over ``source`` binding the local ``row`` or a local
        for the variable ``var``."""
        if self.loops == _LOOPS:
            stage = f"{self.mode}_{len(self.done) + 1}"
            call = f"{stage}({', '.join(self.defined)})"
            self.emit(call if self.mode == "graph" else f"yield from {call}")
            self.done.append(self.lines)
            self.lines, self.depth, self.loops = [f"def {call}:"], 1, 0
        target = self.define(row) if row else self.bind(var)
        self.emit(f"for {target} in {source}:")
        self.depth += 1
        self.loops += 1

    def text(self) -> str:
        return "\n\n".join("\n".join(lines) for lines in self.done + [self.lines]) + "\n"

    def term(self, shape) -> str:
        """An expression for the term's value, after the statements that
        compute its applications, arguments first."""
        if shape.__class__ is str:
            if shape in self.local:
                return self.local[shape]
            message = f"variable {shape} has no value under the assignment"
            self.emit(f"raise SchemaError({message!r})")
            return "None"
        if shape[0] == "const":
            return f"c{shape[1]}"
        if shape[0] == "skolem" and not self.interpreted:
            self.emit(f"raise SafetyError(UNSAFE.format(S[{shape[1]}]))")
            return "None"
        args = self.row(shape[1:] if shape[0] == "hash" else shape[2:])
        value = f"t{self.temps}"
        self.temps += 1
        if shape[0] == "hash":
            self.emit(f"{value} = hash_tuple({args})")
        else:
            self.emit(f"{value} = e{shape[1]}.get({args}, MISS)")
            self.emit(f"if {value} is MISS:")
            self.emit(f"    {value} = l{shape[1]}({args})")
        return value

    def row(self, shapes) -> str:
        return _tuple([self.term(s) for s in shapes])

    def test(self, shape) -> str:
        """A condition for the literal.  NULL satisfies no comparison, an
        order holds only between two ints, and = and != are syntactic; both
        sides are evaluated before the comparison."""
        kind, negated = shape[0], shape[1]
        if kind == "cmp":
            op, left, right = shape[2:]
            a, b = self.term(left), self.term(right)
            if op in ("=", "!="):
                py = "==" if op == "=" else "!="
                cond = f"{a} is not None and {b} is not None and {a} {py} {b}"
            else:
                cond = f"isinstance({a}, int) and isinstance({b}, int) and {a} {op} {b}"
        elif kind == "notnull":
            cond = f"{self.term(shape[2])} is not None"
        else:
            cond = f"{self.row(shape[3])} in a{shape[2]}"
        return f"not ({cond})" if negated else cond

    def assignment(self) -> str:
        return "{" + ", ".join(f"{name!r}: {v}" for name, v in self.local.items()) + "}"


def _unpack(names: Sequence[str], value: str) -> str:
    return f"{names[0]}, = {value}" if len(names) == 1 else f"{', '.join(names)} = {value}"


def _join_atoms(src: _Source, atoms: tuple) -> tuple:
    """Emit one loop per atom, keyed by its constants and bound variables
    before its first function term, binding its other variables there; a
    repeated variable is a test, and a row that agrees with the atom up to
    a function term is a SafetyError.  The key positions of each atom's
    index, and the row locals."""
    positions, rows = [], []
    for j, atom in enumerate(atoms):
        keyed, key, fresh = [], [], []
        for p, t in enumerate(atom):
            if t.__class__ is tuple and t[0] != "const":
                break
            if t.__class__ is str and t not in src.local:
                fresh.append((p, t))
            else:
                keyed.append(p)
                key.append(src.term(t))
        row = f"r{j}"
        src.loop(f"i{j}.get({_tuple(key)}, ())" if key else f"i{j}", row=row)
        for p, name in fresh:
            if name in src.local:
                src.emit(f"if {row}[{p}] != {src.local[name]}:")
                src.emit("    continue")
            else:
                src.emit(f"{src.bind(name)} = {row}[{p}]")
        if len(keyed) + len(fresh) < len(atom):
            src.emit("raise SafetyError(UNMATCHABLE)")
        positions.append(tuple(keyed))
        rows.append(row)
    return tuple(positions), rows


@lru_cache(maxsize=512)
def _generate(key: tuple) -> _Program:
    """Generate and compile the function of one join shape (``_compiled``)."""
    mode, atoms, tests, head, bound, free, n_consts, n_funcs, n_relations = key
    src = _Source(mode)
    if mode == "demand":
        inputs, source = [f"r{j}" for j in range(len(atoms))], "args"
    else:
        inputs = [f"i{j}" for j in range(len(atoms))] + [f"a{k}" for k in range(n_relations)]
        source = "I"
    if inputs:
        src.emit(_unpack([src.define(name) for name in inputs], source))
    if n_consts:
        src.emit(_unpack([src.define(f"c{k}") for k in range(n_consts)], "C"))
    if src.interpreted:
        for k in range(n_funcs):
            src.emit(f"{src.define(f'e{k}')}, {src.define(f'l{k}')} = S[{k}]")
    if bound:
        src.emit(_unpack([src.bind(name) for name in bound], "B"))

    if mode == "demand":
        # the rows already match: each variable takes its first occurrence
        for j, atom in enumerate(atoms):
            for p, name in enumerate(atom):
                if name not in src.local:
                    src.emit(f"{src.bind(name)} = r{j}[{p}]")
        wants = [
            src.row(t[2:]) if t.__class__ is tuple and t[0] == "skolem" else "None"
            for t in head
        ]
        src.emit(f"return {_tuple(wants)}")
        positions = ()
    else:
        if mode == "graph":
            src.emit(f"{src.define('graph')} = {{}}")
        positions, rows = _join_atoms(src, atoms)
        for name in free:
            if name not in src.local:
                src.loop("D", var=name)
        args = _tuple(rows)
        done = "return graph" if mode == "graph" else "return"
        skip = "continue" if src.loops else done
        if mode == "trace":
            src.emit(f"args = {args}")
            src.emit("reached(args)")
            src.emit(f"g = {src.assignment()}")
            src.emit("checks = []")
        for t in tests:
            cond = src.test(t)
            if mode == "trace":
                src.emit(f"holds = {cond}")
                src.emit("checks.append(holds)")
                src.emit("if not holds:")
                src.emit("    yield args, g, checks, ()")
            else:
                src.emit(f"if not ({cond}):")
                if mode == "graph":
                    src.emit(f"    graph[{args}] = ()")
            src.emit(f"    {skip}")
        if mode == "search":
            src.emit(f"yield {src.assignment()}")
        else:
            out = src.row(head)
            src.emit(f"graph[{args}] = {out}" if mode == "graph" else f"yield args, g, checks, {out}")
        if mode == "graph":
            (src.done[0] if src.done else src.lines).append("    return graph")
    text = src.text()
    namespace = dict(_GLOBALS)
    exec(compile(text, f"<dbmorph {mode}>", "exec"), namespace)
    return _Program(namespace[mode], positions, text)


def validate_instance(
    inst: Instance,
    constraints: Sequence[Dependency] | None = None,
    domain: Iterable[DomainValue] = (),
) -> ValidationReport:
    """Check every tgd and egd by matching atoms against the relations'
    indexes; only the variables that no atom binds range over the active
    domain plus the declared constants, so witnesses outside that domain go
    unseen.  Violations are data, not errors; a function term in a positive
    lhs atom is a SafetyError once a row agrees with the atom at every
    position before it.  A constraint's body and head searches are
    generated joins (``_compiled``), made once per constraint, not per match."""
    if constraints is None:
        constraints = inst.schema.constraints
    base: set = set(active_domain(inst)) | set(domain)
    for dep in constraints:
        for lit in dep.lhs + (dep.rhs if isinstance(dep, Tgd) else ()):
            for t in literal_terms(lit):
                if isinstance(t, Const):
                    base.add(t.value)
    dom = sorted(base, key=value_key)
    # (constraint, witness) -> None, in the order the violations are found
    found: dict = {}

    def searcher(atoms: Sequence[RelAtom], tests: Sequence[Literal], bound, free):
        """The assignments that extend values of the ``bound`` names, match
        the ``atoms`` and satisfy the ``tests``, the ``free`` names that no
        atom binds ranging over the domain lazily; the rows are read on the
        first search."""
        program, consts, funcs, relations = _compiled(
            "search", [a.terms for a in atoms], tests, (), bound, free
        )
        inputs = None

        def search(values: tuple) -> Iterator[dict]:
            nonlocal inputs
            if inputs is None:
                inputs = tuple(
                    inst.relation(atom.relation).index(positions)
                    for atom, positions in zip(atoms, program.positions)
                ) + tuple(inst.rows(name) for name in relations)
            return program.run(inputs, consts, funcs, values, dom)

        return search

    for dep in constraints:
        atoms = [l for l in dep.lhs if isinstance(l, RelAtom) and not l.negated]
        tests = [l for l in dep.lhs if l not in atoms]
        # the head is checked by a witness search; in a tgd, a head atom
        # with a function term is evaluated, not matched
        if isinstance(dep, Tgd):
            names, exists = dep.universals + dep.lhs_exists, dep.rhs_exists
            head_tests = [a for a in dep.rhs if any(isinstance(t, App) for t in a.terms)]
            head_atoms = [a for a in dep.rhs if a not in head_tests]
        else:
            names, exists, head_atoms = dep.universals, (), ()
            head_tests = [Comparison(Var(y), "=", Var(z)) for y, z in dep.equalities]
        body = searcher(atoms, tests, (), names)
        # the head search starts from the universals
        head = searcher(head_atoms, head_tests, dep.universals, exists)
        for g in body(()):
            values = tuple([g[v] for v in dep.universals])
            # the empty assignment is a witness too, though falsy
            if next(head(values), None) is None:
                found[dep, tuple(sorted(zip(dep.universals, values)))] = None
    return ValidationReport(tuple(Violation(dep, witness) for dep, witness in found))
