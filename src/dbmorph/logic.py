"""Dependencies between schemas: terms, literals, tgds, egds, SOtgds.

A tgd has the shape ``∀x (∃y φ(x,y) ⇒ ∃z ψ(x,z))`` with φ a conjunction of
literals and ψ a conjunction of relational atoms; an egd equates variables
under a conjunction of atoms.  A second-order tgd (SOtgd) prefixes a tuple
of existentially quantified function symbols to a conjunction of implications
whose head terms may apply those symbols.

This module also implements the transformations that feed the operad
compiler: Skolemization of tgd sets, constant hoisting, normalization into
single-head implications, and constraint validation of finite instances.
``_join``, the left-to-right join of atoms against indexed rows, serves
validation and the evaluation of components in ``interp``; a function
term in a body atom is a SafetyError once a row agrees with the atom at
every position before it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import SafetyError, SchemaError
from .irdb import hash_tuple
from .model import (
    EMPTY_NAME,
    NULL,
    DomainValue,
    Instance,
    active_domain,
    group_rows,
    sort_rows,
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
    "eval_comparison",
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
# built-in comparison semantics


def eval_comparison(op: str, a: DomainValue, b: DomainValue) -> bool:
    """NULL satisfies no comparison; order comparisons are defined only
    between two integers and are false otherwise; =/!= are syntactic."""
    if a is NULL or b is NULL:
        return False
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if not (isinstance(a, int) and isinstance(b, int)):
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


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


def _term_value(term: Term, g: Mapping[str, DomainValue], skolem_value) -> DomainValue:
    """The value of ``term`` under ``g``.  ``hash`` has its fixed meaning; a
    skolem application takes ``skolem_value(name, args)``, and with
    ``skolem_value`` None (a schema constraint) it is unsafe."""
    if isinstance(term, Var):
        try:
            return g[term.name]
        except KeyError:
            raise SchemaError(f"variable {term.name} has no value under the assignment") from None
    if isinstance(term, Const):
        return term.value
    if term.func.kind is FuncKind.SKOLEM and skolem_value is None:
        raise SafetyError(
            f"function {term.func.name} has no fixed interpretation inside a schema constraint"
        )
    args = tuple(_term_value(a, g, skolem_value) for a in term.args)
    if term.func.kind is FuncKind.HASH:
        return hash_tuple(args)
    return skolem_value(term.func.name, args)


def _holds(
    lit: Literal, g: Mapping[str, DomainValue], inst: "Instance | None", skolem_value
) -> bool:
    """Whether ``lit`` holds under ``g``; a relational atom is looked up in
    ``inst``."""
    if isinstance(lit, RelAtom):
        row = tuple(_term_value(t, g, skolem_value) for t in lit.terms)
        holds = row in inst.relation(lit.relation).rows
    elif isinstance(lit, Comparison):
        holds = eval_comparison(
            lit.op,
            _term_value(lit.left, g, skolem_value),
            _term_value(lit.right, g, skolem_value),
        )
    else:
        holds = _term_value(lit.term, g, skolem_value) is not NULL
    return holds != lit.negated


def _join(atoms: Sequence[RelAtom], rows, index: dict, g: Mapping) -> Iterator[tuple]:
    """(matched rows, assignment) for every extension of ``g`` that matches
    ``atoms`` left to right, in product order.  An atom takes, from the
    ``model.group_rows`` index of ``rows(relation)`` held in ``index`` under
    (relation, positions), the rows that agree with it at its constants and
    bound variables before its first function term, and binds its other
    variables; a row that agrees at every position before a function term
    is a SafetyError.  The last atom's matches come as they are asked for,
    so a search for one witness stops at the first."""
    partial = iter([((), g)])
    bound = set(g)
    for atom in atoms:
        positions, keyed, fresh = [], [], []
        for j, t in enumerate(atom.terms):
            if isinstance(t, App):
                break
            if isinstance(t, Var) and t.name not in bound:
                fresh.append((j, t.name))
            else:
                positions.append(j)
                keyed.append(t)
        key = (atom.relation, tuple(positions))
        if key not in index:
            index[key] = group_rows(rows(atom.relation), positions)
        unmatchable = len(positions) + len(fresh) < len(atom.terms)
        partial = _matches(list(partial), index[key], keyed, fresh, unmatchable)
        bound.update(v for _, v in fresh)
    return partial


def _matches(partial, groups: dict, keyed: list, fresh: list, unmatchable: bool):
    """One join step: each partial match extended by each row of ``groups``
    that agrees with it at the ``keyed`` terms and binds the ``fresh`` ones."""
    for matched, h in partial:
        values = tuple(h[t.name] if isinstance(t, Var) else t.value for t in keyed)
        for row in groups.get(values, ()):
            bind = dict(h) if fresh else h
            for j, v in fresh:
                if bind.setdefault(v, row[j]) != row[j]:
                    break
            else:
                if unmatchable:
                    raise SafetyError(
                        "function terms in constraint lhs atoms are not supported "
                        "by the validator"
                    )
                yield matched + (row,), bind


def validate_instance(
    inst: Instance,
    constraints: Sequence[Dependency] | None = None,
    domain: Iterable[DomainValue] = (),
) -> ValidationReport:
    """Check every tgd and egd by matching atoms against indexed rows; only
    the variables that no atom binds range over the active domain plus the
    declared constants, so witnesses outside that domain go unseen.
    Violations are data, not errors; a function term in a positive lhs atom
    is a SafetyError once a row agrees with the atom at every position
    before it."""
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
    # (relation, positions) -> grouped rows, shared by every constraint
    index: dict = {}

    def extensions(g: Mapping, names: Sequence[str], atoms: list, tests: list) -> Iterator[dict]:
        """Every extension of ``g`` under which ``atoms`` and ``tests`` hold:
        the atoms are joined, then the ``names`` that no atom binds range
        over the domain one at a time, lazily, and the tests run."""
        for _, h in _join(atoms, lambda relation: sort_rows(inst.rows(relation)), index, g):
            free = [v for v in names if v not in h]
            for values in itertools.product(dom, repeat=len(free)):
                full = {**h, **dict(zip(free, values))} if free else h
                if all(_holds(l, full, inst, None) for l in tests):
                    yield full

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
        for g in extensions({}, names, atoms, tests):
            head = {v: g[v] for v in dep.universals} if isinstance(dep, Tgd) else g
            witnesses = extensions(head, exists, head_atoms, head_tests)
            # the empty assignment is a witness too, though falsy
            if next(witnesses, None) is None:
                found[dep, tuple(sorted((v, g[v]) for v in dep.universals))] = None
    return ValidationReport(tuple(Violation(dep, witness) for dep, witness in found))
