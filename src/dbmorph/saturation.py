"""Saturation of a satisfying interpretation.

Wherever the target relation contains alternative rows that agree with a
component's output on every simple-variable head position, the skolem
terms at the remaining positions could just as well have produced those
rows.  Saturation materializes one extra function per (triggering
arguments, alternative row) pair; each extra agrees with the base
component everywhere else.  Operations whose heads contain no skolem
symbol contribute nothing: built-ins and constants cannot be reassigned.

The alternative rows come from the target relation's index at the
simple-variable head positions (``Relation.index``).  Only its groups of
two or more rows are kept: a produced row lies in its own group, so these
are the keys that hold an alternative row, and any other trigger costs one
dict lookup.  An extra's skolem demands, the argument tuples of the skolem
head terms, come from a function generated from the operation's shape
(``logic._compiled``), run on the trigger only when it has an alternative
row: the join guard holds, so each variable's first occurrence gives its
value.

The extras never change the information flux (they agree with the base on
all simple-variable positions), so the saturated morphism equals the base
one in the database category.  Grouping components that share a domain and
codomain and taking the union of their graphs yields the set-valued
p-function of the mapping.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .errors import PreconditionError, SchemaError
from .interp import (
    ComponentFunction,
    InstanceMorphism,
    TarskiInterpretation,
    _lookups,
    alpha_star,
    satisfies,
)
from .logic import App, FuncKind, _compiled, term_functions
from .model import Instance, Row, _key_getter, row_key
from .operads import OperadArrow, OperadOperation, simple_var_positions

__all__ = [
    "ExtraFunction",
    "SkippedCandidate",
    "SaturatedMorphism",
    "saturate",
    "PFunction",
    "derive_pfunction",
]


def _head_skolems(op: OperadOperation) -> frozenset:
    return frozenset(
        f.name
        for t in op.target_terms
        for f in term_functions(t)
        if f.kind is FuncKind.SKOLEM
    )


def _selector(it: TarskiInterpretation, op: OperadOperation):
    """The key of a row at the simple-variable head positions, and the
    groups of two or more rows of the target relation's index there.
    Under the satisfaction precondition a produced row lies in its own
    group, so a kept group is exactly one that holds an alternative row; a
    trigger whose key is not kept needs one lookup."""
    positions = tuple(j - 1 for j in sorted(simple_var_positions(op)))
    index = it.target.relation(op.target).index(positions)
    groups = index.items() if positions else [((), index)]
    kept = {key: rows for key, rows in groups if len(rows) > 1}
    return _key_getter(positions), kept


def _demands(it: TarskiInterpretation, op: OperadOperation):
    """The skolem symbol of each head term, or None where the term is no
    skolem application, and the generated function that gives, for a
    trigger, the argument tuple of each skolem head term (None elsewhere)."""
    names = [
        term.func.name if isinstance(term, App) and term.func.kind is FuncKind.SKOLEM else None
        for term in op.target_terms
    ]
    atoms = [p.variables for p in op.places]
    program, consts, funcs, _ = _compiled("demand", atoms, (), op.target_terms)
    lookups = _lookups(it, funcs)
    return names, lambda trigger: program.run(trigger, consts, lookups)


@dataclass(frozen=True)
class ExtraFunction:
    """A single-point deviation from a base component: ``output`` at
    ``trigger``, the base graph everywhere else.  ``perturbation`` records
    the implied skolem reassignments ((symbol, args) -> value)."""

    component: ComponentFunction = field(compare=False)
    op_index: int
    op_name: str
    trigger: tuple
    output: Row
    perturbation: tuple

    def image(self) -> frozenset:
        """The base image with one row swapped: the base output at the
        trigger leaves only if no other argument tuple produces it."""
        image = self.component.image()
        produced = self.component.apply(self.trigger)
        if self.component.preimage_counts()[produced] == 1:
            image = image - {produced}
        return image | {self.output}


@dataclass(frozen=True)
class SkippedCandidate:
    op_index: int
    op_name: str
    trigger: tuple
    candidate: Row
    reason: str


def _candidate_extra(
    component: ComponentFunction,
    op_index: int,
    names: list,
    wants: tuple,
    trigger: tuple,
    produced: Row,
    candidate: Row,
) -> "ExtraFunction | SkippedCandidate":
    """Build the extra for one alternative row, or explain why none exists:
    a disagreement at a non-skolem head position, or two occurrences of one
    skolem application demanding different values.  ``names`` and
    ``wants`` are the skolem symbol and argument tuple of each head term
    at the trigger, from ``_demands``."""
    op = component.op
    demands: dict = {}
    for j, (name, args, want, had) in enumerate(zip(names, wants, candidate, produced), 1):
        if name is not None:
            if demands.setdefault((name, args), want) == want:
                continue
            reason = f"skolem {name} would need two values at one point"
        elif want == had:
            continue
        else:
            reason = f"head position {j} is not a skolem term and cannot be reassigned"
        return SkippedCandidate(op_index, op.name, trigger, candidate, reason)
    perturbation = tuple(demands.items())
    if len(perturbation) > 1:
        perturbation = tuple(
            sorted(perturbation, key=lambda item: (item[0][0], row_key(item[0][1])))
        )
    return ExtraFunction(
        component=component,
        op_index=op_index,
        op_name=op.name,
        trigger=trigger,
        output=candidate,
        perturbation=perturbation,
    )


@dataclass(frozen=True)
class SaturatedMorphism:
    base: InstanceMorphism
    extras: tuple
    skipped: tuple

    @property
    def arrow(self) -> OperadArrow:
        return self.base.arrow

    @property
    def components(self) -> tuple:
        return self.base.components

    @property
    def source(self) -> Instance:
        return self.base.source

    @property
    def target(self) -> Instance:
        return self.base.target


def saturate(it: TarskiInterpretation, arrow: OperadArrow) -> SaturatedMorphism:
    """Enumerate (operation, arguments, alternative row) deterministically.

    Requires a satisfying interpretation.  Operations with skolem-free
    heads are skipped outright; arguments with failing guards contribute
    nothing; every alternative row yields one extra or one skip report.
    """
    return _saturated(it, arrow, None)


def _saturated(it: TarskiInterpretation, arrow: OperadArrow, family) -> SaturatedMorphism:
    """``saturate``, with the extras and skips of only the operations in
    ``family`` (a ``_family`` key) when it is not None: a p-function reads
    no others.  Satisfaction is checked over every operation either way."""
    base = alpha_star(it, arrow)
    report = satisfies(base)
    if not report.satisfied:
        offender = report.violations[0]
        raise PreconditionError(
            "interpretation does not satisfy the mapping: "
            f"{offender[0]} produces {offender[1]!r} outside its target relation"
        )
    extras: list = []
    skipped: list = []
    for op_index, component in enumerate(base.components, 1):
        op = component.op
        if (family is not None and _family(op) != family) or not _head_skolems(op):
            continue
        key, alternatives = _selector(it, op)
        if not alternatives:
            continue
        names, demand = _demands(it, op)
        for trigger, produced in component.graph().items():
            rows = produced and alternatives.get(key(produced))
            if not rows:  # a failed join guard, or no alternative row
                continue
            wants = demand(trigger)
            for candidate in rows:
                if candidate == produced:
                    continue
                built = _candidate_extra(
                    component, op_index, names, wants, trigger, produced, candidate
                )
                if isinstance(built, ExtraFunction):
                    extras.append(built)
                else:
                    skipped.append(built)
    return SaturatedMorphism(base, tuple(extras), tuple(skipped))


@dataclass(frozen=True)
class PFunction:
    """Set-valued function from one shared domain: args -> every row that
    some family member produces there."""

    name: str
    domain: tuple
    codomain: str
    graph: tuple  # ((args, frozenset of rows), ...) sorted


def _domain_descriptor(op: OperadOperation) -> tuple:
    return tuple((p.symbol, p.negated, p.char) for p in op.places)


def _family(op: OperadOperation) -> tuple:
    """What the members of a p-function share: the domain and codomain."""
    return _domain_descriptor(op), op.target


def _chosen(arrow: OperadArrow, op_index: int) -> OperadOperation:
    """The operation of ``arrow`` at ``op_index``, counted from 1; an input
    error when there is none."""
    ops = arrow.operations
    if not 1 <= op_index <= len(ops):
        raise SchemaError(f"operation index {op_index} out of range 1..{len(ops)}")
    return ops[op_index - 1]


def derive_pfunction(sat: SaturatedMorphism, op_index: int) -> PFunction:
    """Union of the graphs of every component (bases and extras alike) that
    shares the chosen operation's domain and codomain."""
    chosen = _chosen(sat.arrow, op_index)
    key = _family(chosen)

    # one pass over each member's graph, then the extras: an extra differs
    # from its base component, itself a member, only at its trigger
    reached = defaultdict(set)
    for c in sat.base.components:
        if _family(c.op) == key:
            for args, out in c.graph().items():
                if out != ():
                    reached[args].add(out)
    for extra in sat.extras:
        if _family(extra.component.op) == key and extra.output != ():
            reached[extra.trigger].add(extra.output)

    # the product is listed; a tuple that no member reaches maps to one
    # shared empty set
    rows = {args: frozenset(outputs) for args, outputs in reached.items()}
    nothing = frozenset()
    product = sat.base.component(chosen.name).domain_product()
    graph = tuple([(args, rows.get(args, nothing)) for args in product])
    return PFunction(
        name=f"f_{chosen.name}",
        domain=_domain_descriptor(chosen),
        codomain=chosen.target,
        graph=graph,
    )

