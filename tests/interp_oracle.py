"""Component evaluation as it stood before the join, kept verbatim as the
oracle the differential tests in ``test_interp.py`` compare
``dbmorph.interp.ComponentFunction`` against.

It evaluates every tuple of the product of the place domains: the arity
check and the equal-variable join guard run once per tuple, and the graph
holds the whole product, each tuple mapped to its head value or to ``()``.
``trace_morphism`` is ``cli._trace_morphism`` as it read that graph.
``cmp`` is the paper's compaction of a joined tuple sequence, the reference
the tests check the join's assignments against.

``_term_value`` and ``_holds`` are ``logic``'s tree walk of terms and
literals as it stood before heads and guards were compiled into closures,
so that the product evaluator does not share the evaluator it checks.
``eval_comparison`` is the comparison rule they apply, as ``logic`` held
it before generated joins inlined it.

``_compile_term``, ``_compile_terms``, ``_compile_literal`` and
``_compile_head`` are the closure compiler that ``logic`` and ``interp``
ran from PR 19 until heads, guards and validation tests came to run as
generated joins: a second oracle, which the term and guard tests compare
the generated code with beside the tree walk.

``place_domain`` is ``interp``'s as it stood before a place relation came
to carry its own sorted rows and a negated place's complement, with the
plain lookup of ``place_relation`` beside it, so that the oracle shares no
row order or complement with the path it checks.
"""

import itertools
from collections import Counter
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from dbmorph.dsl import pretty_term
from dbmorph.errors import SafetyError, SchemaError
from dbmorph.interp import TarskiInterpretation
from dbmorph.irdb import hash_tuple
from dbmorph.logic import (
    Comparison,
    Const,
    FuncKind,
    Literal,
    RelAtom,
    Term,
    Var,
)
from dbmorph.model import EMPTY_NAME, NULL, DomainValue, Instance, Row, sort_rows
from dbmorph.operads import OperadOperation, Place, build_equal_var_set


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


def _unbound(exc: KeyError) -> SchemaError:
    return SchemaError(f"variable {exc.args[0]} has no value under the assignment")


def _compile_term(term: Term, skolem_value):
    """``term`` as a closure over an assignment ``g``.  A variable is a key
    lookup; an unbound one raises KeyError, which an entry point that can
    meet one reports through ``_unbound`` (safety leaves no variable of a
    compiled operation or constraint unbound).  ``hash`` has its fixed
    meaning; a skolem application takes ``skolem_value(name, args)``, and
    with ``skolem_value`` None (a schema constraint) it is unsafe."""
    if isinstance(term, Var):
        return itemgetter(term.name)
    if isinstance(term, Const):
        value = term.value
        return lambda g: value
    name = term.func.name
    if term.func.kind is FuncKind.SKOLEM and skolem_value is None:

        def unsafe(g):
            raise SafetyError(
                f"function {name} has no fixed interpretation inside a schema constraint"
            )

        return unsafe
    args = _compile_terms(term.args, skolem_value)
    if term.func.kind is FuncKind.HASH:
        return lambda g: hash_tuple(args(g))
    return lambda g: skolem_value(name, args(g))


def _compile_terms(terms: Sequence[Term], skolem_value):
    """The tuple of the values of ``terms`` as one closure over ``g``;
    variables alone are one tuple getter."""
    names = [t.name for t in terms if isinstance(t, Var)]
    if len(names) < len(terms):
        parts = [_compile_term(t, skolem_value) for t in terms]
        return lambda g: tuple([part(g) for part in parts])
    if len(names) > 1:
        return itemgetter(*names)
    if names:
        name = names[0]
        return lambda g: (g[name],)
    return lambda g: ()


def _compile_literal(lit: Literal, inst: "Instance | None", skolem_value):
    """Whether ``lit`` holds under ``g``, as a closure over ``g``; a
    relational atom is looked up in ``inst``."""
    negated = lit.negated
    if isinstance(lit, RelAtom):
        row, name = _compile_terms(lit.terms, skolem_value), lit.relation
        return lambda g: (row(g) in inst.relation(name).rows) != negated
    if isinstance(lit, Comparison):
        op = lit.op
        left = _compile_term(lit.left, skolem_value)
        right = _compile_term(lit.right, skolem_value)
        return lambda g: eval_comparison(op, left(g), right(g)) != negated
    term = _compile_term(lit.term, skolem_value)
    return lambda g: (term(g) is not NULL) != negated


def _compile_head(op: OperadOperation, skolem_value):
    """The built-in guards and head terms of ``op`` as one closure over an
    assignment, compiled once per component: it gives the guard outcomes up
    to the first failure and the output (the empty tuple when a guard
    fails)."""
    tests = [_compile_literal(lit, None, skolem_value) for lit in op.guards]
    out = _compile_terms(op.target_terms, skolem_value)

    def head(g):
        checks = []
        try:
            for test in tests:
                holds = test(g)
                checks.append(holds)
                if not holds:
                    return checks, ()
            return checks, out(g)
        except KeyError as exc:
            raise _unbound(exc) from None

    return head


def cmp(equal_sets: Iterable[frozenset], tuples: Sequence[tuple]) -> tuple:
    """Concatenate the tuples left to right, skipping every position that the
    equal-variable set links to an earlier occurrence (earlier atom, or same
    atom and earlier position).  With an operation's own S this yields the
    first-occurrence value of each variable in variable order."""
    skip: set = set()
    for group in equal_sets:
        first = min(group, key=lambda p: (p[1], p[0]))
        skip.update(p for p in group if p != first)
    out = []
    for j, tup in enumerate(tuples, 1):
        for i, v in enumerate(tup, 1):
            if (i, j) not in skip:
                out.append(v)
    return tuple(out)


def component_assignment(op: OperadOperation, args: tuple) -> "dict | None":
    """The compacted assignment (keys in variable order) for an argument
    tuple, or None when the equal-variable join guard fails."""
    if len(args) != len(op.places):
        raise SchemaError(
            f"operation {op.name} takes {len(op.places)} tuples, got {len(args)}"
        )
    for place, tup in zip(op.places, args):
        if len(tup) != place.arity:
            raise SchemaError(
                f"operation {op.name}: tuple {tup!r} does not fit atom "
                f"{place.symbol}/{place.arity}"
            )
    g: dict = {}
    for v, j, i in op.occurrences:
        value = args[j][i]
        if g.setdefault(v, value) != value:
            return None
    return g


def _evaluate(it: TarskiInterpretation, op: OperadOperation, args: tuple) -> tuple:
    """Join guard, built-in guards up to the first failure, head terms:
    the assignment (None if the join fails), the guard outcomes, the output."""
    g = component_assignment(op, args)
    if g is None:
        return None, (), ()
    skolem_value = it.skolem_value
    checks = []
    for lit in op.guards:
        holds = _holds(lit, g, None, skolem_value)
        checks.append(holds)
        if not holds:
            return g, checks, ()
    return g, checks, tuple(_term_value(t, g, skolem_value) for t in op.target_terms)


def place_relation(it: TarskiInterpretation, place: Place):
    """The relation a place names, resolved as the package resolves it,
    with no complement taken."""
    if place.char:
        return it.char_relation(place.symbol)
    return it.source.relation(place.symbol)


def place_domain(it: TarskiInterpretation, place: Place) -> frozenset:
    """α(r) for a positive place; the active-domain complement for a negated
    one."""
    rel = place_relation(it, place)
    if not place.negated:
        return rel.rows
    universe = itertools.product(it.domain_values(), repeat=place.arity)
    return frozenset(t for t in universe if t not in rel.rows)


class ComponentFunction:
    """The total map an operation denotes under a fixed interpretation."""

    def __init__(self, it: TarskiInterpretation, op: OperadOperation):
        self.it = it
        self.op = op
        self.codomain = it.target.relation(op.target)
        self._domains: "tuple | None" = None
        self._graph: "dict | None" = None
        self._counts: "Counter | None" = None
        self._image: "frozenset | None" = None

    @property
    def domains(self) -> tuple:
        if self._domains is None:
            self._domains = tuple(
                tuple(sort_rows(place_domain(self.it, p))) for p in self.op.places
            )
        return self._domains

    def domain_product(self):
        return itertools.product(*self.domains)

    def evaluations(self):
        """Evaluate each argument tuple once, yielding it with what
        ``_evaluate`` returns; running to the end fills the graph."""
        graph = {}
        for args in self.domain_product():
            g, checks, out = _evaluate(self.it, self.op, args)
            graph[args] = out
            yield args, g, checks, out
        self._graph = graph

    def graph(self) -> dict:
        if self._graph is None:
            for _ in self.evaluations():
                pass
        return self._graph

    def apply(self, args: tuple) -> Row:
        graph = self.graph()
        try:
            return graph[args]
        except KeyError:
            raise SchemaError(
                f"arguments {args!r} lie outside the domain of {self.op.name}"
            ) from None

    def preimage_counts(self) -> Counter:
        """Output -> number of argument tuples mapped to it, () included."""
        if self._counts is None:
            self._counts = Counter(self.graph().values())
        return self._counts

    def image(self) -> frozenset:
        # the identity targets r_∅, whose only row IS the empty tuple; for
        # every other operation () is the failure sentinel
        if self._image is None:
            outputs = self.graph().values()
            if self.op.target == EMPTY_NAME:
                self._image = frozenset(outputs)
            else:
                self._image = frozenset(out for out in outputs if out != ())
        return self._image


def _show(value) -> str:
    return pretty_term(Const(value))


def trace_morphism(morphism, stream) -> None:
    """Print each component's evaluation as it runs: the equal-variable
    set, then per argument tuple the assignment, the guard outcomes up to
    the first failure, and the head value."""
    for component in morphism.components:
        op = component.op
        rendered = sorted(sorted(group) for group in build_equal_var_set(op))
        print(f"{op.name}: S = {rendered}", file=stream)
        for args, g, checks, out in component.evaluations():
            shown = ", ".join("<" + ", ".join(map(_show, t)) + ">" for t in args)
            if g is None:
                print(f"  ({shown}) join guard failed -> <>", file=stream)
                continue
            bound = ", ".join(f"{k}={_show(v)}" for k, v in g.items())
            marks = " ".join("[ok]" if holds else "[fail]" for holds in checks)
            suffix = f" guards {marks}" if checks else ""
            shown_out = "<" + ", ".join(map(_show, out)) + ">"
            print(f"  ({shown}) g: {bound}{suffix} -> {shown_out}", file=stream)
