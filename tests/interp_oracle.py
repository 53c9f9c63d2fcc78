"""Component evaluation as it stood before the join, kept verbatim as the
oracle the differential tests in ``test_interp.py`` compare
``dbmorph.interp.ComponentFunction`` against.

It evaluates every tuple of the product of the place domains: the arity
check and the equal-variable join guard run once per tuple, and the graph
holds the whole product, each tuple mapped to its head value or to ``()``.
``trace_morphism`` is ``cli._trace_morphism`` as it read that graph.

``_term_value`` and ``_holds`` are ``logic``'s tree walk of terms and
literals as it stood before heads and guards were compiled into closures,
so that the product evaluator does not share the evaluator it checks.
"""

import itertools
from collections import Counter
from typing import Mapping

from dbmorph.dsl import pretty_term
from dbmorph.errors import SafetyError, SchemaError
from dbmorph.interp import TarskiInterpretation, place_domain
from dbmorph.irdb import hash_tuple
from dbmorph.logic import (
    Comparison,
    Const,
    FuncKind,
    Literal,
    RelAtom,
    Term,
    Var,
    eval_comparison,
)
from dbmorph.model import EMPTY_NAME, NULL, DomainValue, Instance, Row, sort_rows
from dbmorph.operads import OperadOperation, build_equal_var_set


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
