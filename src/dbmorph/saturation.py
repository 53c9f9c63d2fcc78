"""Saturation of a satisfying interpretation.

Wherever the target relation contains alternative rows that agree with a
component's output on every simple-variable head position, the skolem
terms at the remaining positions could just as well have produced those
rows.  Saturation materializes one extra function per (triggering
arguments, alternative row) pair; each extra agrees with the base
component everywhere else.  Operations whose heads contain no skolem
symbol contribute nothing: built-ins and constants cannot be reassigned.

The alternative rows come from the target relation indexed by the
produced row's values at the simple-variable head positions.  An extra's
skolem demands come from its trigger's assignment, rebuilt from the joined
tuple only when the trigger has an alternative row: the join guard holds,
so each variable's first occurrence gives its value.

The extras never change the information flux (they agree with the base on
all simple-variable positions), so the saturated morphism equals the base
one in the database category.  Grouping components that share a domain and
codomain and taking the union of their graphs yields the set-valued
p-function of the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionError, SchemaError
from .interp import (
    ComponentFunction,
    InstanceMorphism,
    TarskiInterpretation,
    alpha_star,
    satisfies,
)
from .logic import App, FuncKind, _compile_terms, term_functions
from .model import Instance, Row, group_rows, row_key, sort_rows
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
    """Index the target relation once by its values at the simple-variable
    head positions; the returned lookup gives, for a produced row, the rows
    agreeing with it there, sorted."""
    positions = [j - 1 for j in sorted(simple_var_positions(op))]
    index = group_rows(sort_rows(it.target.rows(op.target)), positions)
    return lambda row: index.get(tuple([row[j] for j in positions]), ())


def _skolem_heads(it: TarskiInterpretation, op: OperadOperation) -> list:
    """Per head position, the skolem symbol and its arguments compiled into
    one closure over an assignment, or None where the term is no skolem
    application."""
    return [
        (term.func.name, _compile_terms(term.args, it.skolem_value))
        if isinstance(term, App) and term.func.kind is FuncKind.SKOLEM
        else None
        for term in op.target_terms
    ]


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
    heads: list,
    g: dict,
    trigger: tuple,
    produced: Row,
    candidate: Row,
) -> "ExtraFunction | SkippedCandidate":
    """Build the extra for one alternative row, or explain why none exists:
    a disagreement at a non-skolem head position, or two occurrences of one
    skolem application demanding different values.  ``heads`` is
    ``_skolem_heads`` of the operation and ``g`` the trigger's assignment."""
    op = component.op
    demands: dict = {}
    for j, (head, want, had) in enumerate(zip(heads, candidate, produced), 1):
        if head is not None:
            name, args = head
            if demands.setdefault((name, args(g)), want) == want:
                continue
            reason = f"skolem {name} would need two values at one point"
        elif want == had:
            continue
        else:
            reason = f"head position {j} is not a skolem term and cannot be reassigned"
        return SkippedCandidate(op_index, op.name, trigger, candidate, reason)
    perturbation = tuple(
        sorted(demands.items(), key=lambda item: (item[0][0], row_key(item[0][1])))
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
        if not _head_skolems(op):
            continue
        select, heads = _selector(it, op), _skolem_heads(it, op)
        for trigger, produced in component.graph().items():
            if produced == ():
                continue
            g = None
            for candidate in select(produced):
                if candidate == produced:
                    continue
                if g is None:
                    # the trigger's assignment, built once a candidate needs it
                    g = {}
                    for v, j, i in op.occurrences:
                        g.setdefault(v, trigger[j][i])
                built = _candidate_extra(
                    component, op_index, heads, g, trigger, produced, candidate
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


def derive_pfunction(sat: SaturatedMorphism, op_index: int) -> PFunction:
    """Union of the graphs of every component (bases and extras alike) that
    shares the chosen operation's domain and codomain."""
    ops = sat.arrow.operations
    if not 1 <= op_index <= len(ops):
        raise SchemaError(f"operation index {op_index} out of range 1..{len(ops)}")
    chosen = ops[op_index - 1]
    key = (_domain_descriptor(chosen), chosen.target)

    graphs = [
        c.graph()
        for c in sat.base.components
        if (_domain_descriptor(c.op), c.op.target) == key
    ]
    # an extra differs from its base component, itself a member, only at
    # its trigger
    deviations: dict = {}
    for extra in sat.extras:
        op = extra.component.op
        if (_domain_descriptor(op), op.target) == key:
            deviations.setdefault(extra.trigger, set()).add(extra.output)

    # the product is listed; a tuple outside a member's graph maps to ()
    graph = []
    for args in sat.base.component(chosen.name).domain_product():
        outputs = {g.get(args, ()) for g in graphs}
        outputs.update(deviations.get(args, ()))
        outputs.discard(())
        graph.append((args, frozenset(outputs)))
    return PFunction(
        name=f"f_{chosen.name}",
        domain=_domain_descriptor(chosen),
        codomain=chosen.target,
        graph=tuple(graph),
    )

