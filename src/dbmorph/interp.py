"""Interpretation of compiled arrows over concrete instances.

An interpretation fixes a source and a target instance, finite tables for
the skolem function symbols, and nothing else: the hash built-in and the
characteristic places are derived.  Each operad operation then denotes a
total component function R_1 × … × R_k → rows ∪ {()}: the i-th factor is
the relation named by the i-th place symbol (complemented over the active
domain, at the relation's own arity, when the place is negated), and an
argument tuple maps to the evaluated head tuple when the equal-variable
join guard and every built-in guard hold, to the empty tuple otherwise.
A place whose atom has another arity than its relation is an input error,
whatever its sign, as soon as the relation it reads holds a row.

A component evaluates only the argument tuples that pass the join guard:
its graph holds those, each mapped to its head value or to the empty tuple
when a built-in guard fails, and every other tuple of the product maps to
the empty tuple.  The join, the guards and the head terms run as one
function generated from the operation's shape (``logic._compiled``) over
the place relations' indexes (``Relation.index``), so a joined tuple costs
index lookups and skolem table lookups in one frame.
The ``--verbose`` trace runs the yielding variant of the same source,
which gives each joined tuple's assignment, guard outcomes and output as
it goes and keeps none.

The interpretation satisfies the arrow exactly when every component's image
is contained in the target relation it points at.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial

from .errors import IncompleteInterpretationError, SchemaError
from .logic import _compiled
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
    _complements: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """α(r) for a positive place; for a negated one, built once per
        relation, its complement over the domain values, under its own
        symbol and so at its own arity."""
        rel = self.char_relation(place.symbol) if place.char else self.source.relation(place.symbol)
        if not place.negated:
            return rel
        if rel not in self._complements:
            universe = itertools.product(self.domain_values(), repeat=rel.symbol.arity)
            self._complements[rel] = Relation(rel.symbol, [t for t in universe if t not in rel])
        return self._complements[rel]

    def domain_values(self) -> frozenset:
        if self.domain is not None:
            return self.domain
        values = set(active_domain(self.source)) | set(active_domain(self.target))
        for inst in self.extras:
            values |= active_domain(inst)
        return frozenset(values)


def _lookups(it: TarskiInterpretation, names: tuple) -> tuple:
    """Per skolem symbol, its table's entries and the lookup a generated
    join falls back to on a miss, which gives the default or raises; a
    symbol without a table has no entries, and its lookup raises."""
    out = []
    for name in names:
        table = it.skolem.get(name)
        if table is None:
            out.append(({}, partial(it.skolem_value, name)))
        else:
            out.append((table.entries, table.lookup))
    return tuple(out)


def _ignore(args) -> None:
    pass


class ComponentFunction:
    """The total map an operation denotes under a fixed interpretation."""

    def __init__(self, it: TarskiInterpretation, op: OperadOperation):
        self.it = it
        self.op = op
        self.codomain = it.target.relation(op.target)
        self._graph: "dict | None" = None
        self._counts: "Counter | None" = None
        self._image: "frozenset | None" = None

    @cached_property
    def relations(self) -> tuple:
        """Each place's relation (``TarskiInterpretation.place_relation``)."""
        return tuple(self.it.place_relation(p) for p in self.op.places)

    def domain_product(self):
        return itertools.product(*(rel.index() for rel in self.relations))

    def _run(self, mode: str, *extra):
        """The generated join of this operation in ``mode`` over the place
        relations' indexes, or None when a relation is empty; the widths
        are checked first."""
        op, relations = self.op, self.relations
        if not all(relations):
            return None
        for place, rel in zip(op.places, relations):
            if rel.symbol.arity != place.arity:
                raise SchemaError(
                    f"operation {op.name}: tuple {rel.index()[0]!r} does not fit atom "
                    f"{place.symbol}/{place.arity}"
                )
        atoms = [p.variables for p in op.places]
        program, consts, funcs, _ = _compiled(mode, atoms, op.guards, op.target_terms)
        inputs = tuple(map(Relation.index, relations, program.positions))
        return program.run(inputs, consts, _lookups(self.it, funcs), *extra)

    def evaluations(self, reached=_ignore):
        """Each joined argument tuple, in product order, with its assignment
        in binding order, the guard outcomes up to the first failure and
        the output; running to the end fills the graph.  ``reached(args)``
        is called as the join reaches a tuple, before it is evaluated."""
        graph = {}
        for record in self._run("trace", reached) or ():
            graph[record[0]] = record[3]
            yield record
        self._graph = graph

    def graph(self) -> dict:
        """The joined argument tuples and their outputs."""
        if self._graph is None:
            self._graph = self._run("graph") or {}
        return self._graph

    def apply(self, args: tuple) -> Row:
        out = self.graph().get(args)
        if out is not None:
            return out
        relations = self.relations
        if len(args) == len(relations) and all(map(Relation.__contains__, relations, args)):
            return ()
        raise SchemaError(f"arguments {args!r} lie outside the domain of {self.op.name}")

    def preimage_counts(self) -> Counter:
        """Output -> number of argument tuples mapped to it, () included."""
        if self._counts is None:
            graph = self.graph()
            self._counts = Counter(graph.values())
            self._counts[()] += math.prod(map(len, self.relations)) - len(graph)
        return self._counts

    def image(self) -> frozenset:
        if self._image is None:
            outputs = self.graph().values()
            if self.op.target == EMPTY_NAME:
                # r_∅'s only row IS the empty tuple, and every tuple of the
                # product maps to it
                self._image = frozenset({()}) if all(self.relations) else frozenset()
            else:
                # for every other operation () is the failure sentinel
                image = frozenset(outputs)
                self._image = image - {()} if () in image else image
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
