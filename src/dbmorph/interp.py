"""Interpretation of compiled arrows over concrete instances.

An interpretation fixes a source and a target instance, finite tables for
the skolem function symbols, and nothing else: the hash built-in and the
characteristic places are derived.  Each operad operation then denotes a
total component function R_1 × … × R_k → rows ∪ {()}: the i-th factor is
the relation named by the i-th place symbol (complemented over the active
domain when the place is negated), and an argument tuple maps to the
evaluated head tuple when the equal-variable join guard and every built-in
guard hold, to the empty tuple otherwise.

A component evaluates only the argument tuples that pass the join guard,
found by the join that validates constraints (``logic._join``): its graph
holds those, each mapped to its head value or to the empty tuple when a
built-in guard fails, and every other tuple of the product maps to the
empty tuple.  The guards and head terms are compiled into one closure per
component (``_compile_head``), so a joined tuple costs key lookups and
skolem table lookups, not a walk of the term trees.  The pass that fills
the graph yields each joined tuple's assignment as it goes, for the
``--verbose`` trace; it keeps none.

The interpretation satisfies the arrow exactly when every component's image
is contained in the target relation it points at.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import IncompleteInterpretationError, SchemaError
from .logic import RelAtom, Var, _compile_literal, _compile_terms, _join, _plan, _unbound
from .model import (
    EMPTY_NAME,
    DomainValue,
    Instance,
    Relation,
    Row,
    active_domain,
    sort_rows,
)
from .operads import OperadArrow, OperadOperation, Place

__all__ = [
    "FunctionTable",
    "TarskiInterpretation",
    "place_domain",
    "ComponentFunction",
    "InstanceMorphism",
    "alpha_star",
    "SatisfactionReport",
    "satisfies",
]


_NO_DEFAULT = object()  # NULL is a value, so "no default" needs a marker of its own


@dataclass
class FunctionTable:
    """Finite graph of one skolem symbol, keyed by argument tuples;
    without a ``default``, missing arguments are an error, and a default of
    NULL maps them to NULL."""

    name: str
    entries: dict
    default: DomainValue = _NO_DEFAULT

    def lookup(self, args: Row) -> DomainValue:
        if args in self.entries:
            return self.entries[args]
        if self.default is not _NO_DEFAULT:
            return self.default
        raise IncompleteInterpretationError(
            f"function {self.name} has no entry for {args!r} and no default"
        )


@dataclass
class TarskiInterpretation:
    source: Instance
    target: Instance
    skolem: dict
    extras: tuple = ()
    domain: "frozenset | None" = None

    def __post_init__(self) -> None:
        self.skolem = dict(self.skolem)
        self.extras = tuple(self.extras)

    def skolem_value(self, name: str, args: Row) -> DomainValue:
        table = self.skolem.get(name)
        if table is None:
            raise IncompleteInterpretationError(f"no table for skolem symbol {name}")
        return table.lookup(args)

    def char_relation(self, name: str) -> Relation:
        for inst in (self.target, *self.extras, self.source):
            if name in inst.schema and name != EMPTY_NAME:
                return inst.relation(name)
        raise SchemaError(f"characteristic function references unknown relation {name}")

    def place_relation(self, place: Place) -> Relation:
        if place.char:
            return self.char_relation(place.symbol)
        return self.source.relation(place.symbol)

    def domain_values(self) -> frozenset:
        if self.domain is not None:
            return self.domain
        values = set(active_domain(self.source)) | set(active_domain(self.target))
        for inst in self.extras:
            values |= active_domain(inst)
        return frozenset(values)


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


def place_domain(it: TarskiInterpretation, place: Place) -> frozenset:
    """α(r) for a positive place; the active-domain complement for a negated
    one."""
    rel = it.place_relation(place)
    if not place.negated:
        return rel.rows
    universe = itertools.product(it.domain_values(), repeat=place.arity)
    return frozenset(t for t in universe if t not in rel.rows)


@lru_cache(maxsize=256)
def _places_plan(variables: tuple) -> tuple:
    """The join plan of places with these variable names, planned once per
    tuple of names.  An atom names its place by position, since two places
    over one symbol can range over different domains."""
    return _plan([RelAtom(j, tuple(map(Var, names))) for j, names in enumerate(variables)], ())


class ComponentFunction:
    """The total map an operation denotes under a fixed interpretation."""

    def __init__(self, it: TarskiInterpretation, op: OperadOperation):
        self.it = it
        self.op = op
        self.codomain = it.target.relation(op.target)
        self._members: "tuple | None" = None
        self._domains: "tuple | None" = None
        self._graph: "dict | None" = None
        self._counts: "Counter | None" = None
        self._image: "frozenset | None" = None

    @property
    def domains(self) -> tuple:
        """Each place's domain, sorted."""
        if self._domains is None:
            self._members = tuple(place_domain(self.it, p) for p in self.op.places)
            self._domains = tuple(tuple(sort_rows(rows)) for rows in self._members)
        return self._domains

    def domain_product(self):
        return itertools.product(*self.domains)

    def _joined(self):
        """(args, assignment) for every argument tuple that passes the
        equal-variable join guard, in product order."""
        op, domains = self.op, self.domains
        if not all(domains):
            return []
        for place, rows in zip(op.places, domains):
            # every row of one domain has the same width
            if len(rows[0]) != place.arity:
                raise SchemaError(
                    f"operation {op.name}: tuple {rows[0]!r} does not fit atom "
                    f"{place.symbol}/{place.arity}"
                )
        plan = _places_plan(tuple(p.variables for p in op.places))
        return _join(plan, domains.__getitem__, {}, {})

    def evaluations(self, joined=None):
        """Evaluate each joined argument tuple once by the compiled head,
        yielding it with its assignment, the guard outcomes and the output;
        running to the end fills the graph.  ``joined`` is this component's
        ``_joined()``, for a caller that reads the join ahead of the
        evaluation."""
        graph = {}
        head = _compile_head(self.op, self.it.skolem_value)
        for args, g in self._joined() if joined is None else joined:
            checks, out = head(g)
            graph[args] = out
            yield args, g, checks, out
        self._graph = graph

    def graph(self) -> dict:
        """The joined argument tuples and their outputs."""
        if self._graph is None:
            for _ in self.evaluations():
                pass
        return self._graph

    def apply(self, args: tuple) -> Row:
        out = self.graph().get(args)
        if out is not None:
            return out
        if len(args) == len(self._members) and all(
            t in rows for t, rows in zip(args, self._members)
        ):
            return ()
        raise SchemaError(f"arguments {args!r} lie outside the domain of {self.op.name}")

    def preimage_counts(self) -> Counter:
        """Output -> number of argument tuples mapped to it, () included."""
        if self._counts is None:
            graph = self.graph()
            self._counts = Counter(graph.values())
            self._counts[()] += math.prod(map(len, self.domains)) - len(graph)
        return self._counts

    def image(self) -> frozenset:
        if self._image is None:
            outputs = self.graph().values()
            if self.op.target == EMPTY_NAME:
                # r_∅'s only row IS the empty tuple, and every tuple of the
                # product maps to it
                self._image = frozenset({()}) if all(self.domains) else frozenset()
            else:
                # for every other operation () is the failure sentinel
                self._image = frozenset(out for out in outputs if out != ())
        return self._image


@dataclass
class InstanceMorphism:
    """All component functions of an arrow under one interpretation."""

    arrow: OperadArrow
    it: TarskiInterpretation
    components: tuple
    q_bot: ComponentFunction
    extras = ()  # a saturated morphism's deviations; an interpreted one has none

    @property
    def source(self) -> Instance:
        return self.it.source

    @property
    def target(self) -> Instance:
        return self.it.target

    def component(self, name: str) -> ComponentFunction:
        if name == self.arrow.identity.name:
            return self.q_bot
        for c in self.components:
            if c.op.name == name:
                return c
        raise SchemaError(f"morphism has no component {name}")


def alpha_star(it: TarskiInterpretation, arrow: OperadArrow) -> InstanceMorphism:
    """Interpret every operation; the identity becomes q_⊥ : ⊥ → ⊥."""
    if it.source.schema.name != arrow.source_schema.name:
        raise SchemaError(
            f"source instance is over {it.source.schema.name}, arrow expects "
            f"{arrow.source_schema.name}"
        )
    if it.target.schema.name != arrow.target_schema.name:
        raise SchemaError(
            f"target instance is over {it.target.schema.name}, arrow expects "
            f"{arrow.target_schema.name}"
        )
    components = tuple(ComponentFunction(it, op) for op in arrow.operations)
    return InstanceMorphism(arrow, it, components, ComponentFunction(it, arrow.identity))


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    violations: tuple  # (operation name, offending output row)


def satisfies(morphism: InstanceMorphism) -> SatisfactionReport:
    """The interpretation satisfies the arrow iff every component image is
    contained in its target relation."""
    bad = tuple(
        (component.op.name, out)
        for component in morphism.components
        for out in sort_rows(component.image() - component.codomain.rows)
    )
    return SatisfactionReport(not bad, bad)
