"""Saturation of a satisfying interpretation.

Wherever the target relation contains alternative rows that agree with a
component's output on every simple-variable head position, the skolem
terms at the remaining positions could just as well have produced those
rows.  Saturation materializes one extra function per (triggering
arguments, alternative row) pair; each extra agrees with the base
component everywhere else.  Operations whose heads contain no skolem
symbol contribute nothing: built-ins and constants cannot be reassigned.

The extras never change the information flux (they agree with the base on
all simple-variable positions), so the saturated morphism equals the base
one in the database category.  Grouping components that share a domain and
codomain and taking the union of their graphs yields the set-valued
p-function of the mapping.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import PreconditionError, SchemaError
from .flux import FluxKernel, _kernel_member, _projection
from .interp import (
    ComponentFunction,
    InstanceMorphism,
    TarskiInterpretation,
    alpha_star,
    component_assignment,
    eval_term,
    satisfies,
)
from .logic import App, FuncKind, term_functions
from .model import Instance, Row, group_rows, row_key, sort_rows
from .operads import OperadArrow, OperadOperation, simple_var_positions

__all__ = [
    "ExtraFunction",
    "SkippedCandidate",
    "SaturatedMorphism",
    "saturate",
    "PFunction",
    "derive_pfunction",
    "FluxInvarianceReport",
    "check_flux_invariance",
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
    head positions; the returned lookup gives, for an assignment, the rows
    agreeing with it there, sorted."""
    positions = sorted(simple_var_positions(op))
    names = [op.target_terms[j - 1].name for j in positions]
    index = group_rows(sort_rows(it.target.rows(op.target)), [j - 1 for j in positions])
    return lambda g: index.get(tuple(g[name] for name in names), ())


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

    def apply(self, args: tuple) -> Row:
        if args == self.trigger:
            return self.output
        return self.component.apply(args)

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
    it: TarskiInterpretation,
    component: ComponentFunction,
    op_index: int,
    g: dict,
    trigger: tuple,
    produced: Row,
    candidate: Row,
) -> "ExtraFunction | SkippedCandidate":
    """Build the extra for one alternative row, or explain why none exists:
    a disagreement at a non-skolem head position, or two occurrences of one
    skolem application demanding different values."""
    op = component.op
    demands: dict = {}
    for j, term in enumerate(op.target_terms, 1):
        want = candidate[j - 1]
        if isinstance(term, App) and term.func.kind is FuncKind.SKOLEM:
            key = (term.func.name, tuple(eval_term(g, a, it) for a in term.args))
            if demands.setdefault(key, want) == want:
                continue
            reason = f"skolem {term.func.name} would need two values at one point"
        elif want == produced[j - 1]:
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
    def source(self) -> Instance:
        return self.base.source

    @property
    def target(self) -> Instance:
        return self.base.target

    def op_images(self):
        """Base images first, then each extra's deviated image: the whole
        images whose projections ``kernel_members`` computes by deltas."""
        yield from self.base.op_images()
        for extra in self.extras:
            yield extra.component.op, extra.image()

    def kernel_members(self) -> list:
        """The projections of the images ``op_images`` lists, computed by
        deltas: an extra's image is its base image with one row swapped, so
        its member is the base member without the projection of the
        produced row, when that row and its projection both lose their last
        preimage, and with the projection of the output.  No extra's image
        is built; a count of the base image's projected rows is built once
        per component, and only when an extra's output projects elsewhere
        than its produced row."""
        base = self.base.kernel_members()
        member_of = dict(zip(self.base.components, base))
        counts, members = {}, []
        for extra in self.extras:
            c = extra.component
            member = member_of[c]
            if member is not None:
                project = _projection(c.op)
                produced = c.graph()[extra.trigger]
                gone, new = project(produced), project(extra.output)
                if gone != new:
                    if c not in counts:
                        counts[c] = Counter(map(project, c.image()))
                    if c.preimage_counts()[produced] == 1 and counts[c][gone] == 1:
                        member = member - {gone}
                    member = member | {new}
            members.append(member)
        return base + members


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
        select = _selector(it, op)
        for trigger, produced in component.graph().items():
            if produced == ():
                continue
            g = component_assignment(op, trigger)
            for candidate in select(g):
                if candidate == produced:
                    continue
                built = _candidate_extra(
                    it, component, op_index, g, trigger, produced, candidate
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


@dataclass(frozen=True)
class FluxInvarianceReport:
    ok: bool
    failures: tuple


def check_flux_invariance(it: TarskiInterpretation, arrow: OperadArrow) -> FluxInvarianceReport:
    """Saturation must not move the flux: every extra agrees with its base
    on the simple-variable positions pointwise, and swapping any single
    extra for its base component leaves the kernel set-identical."""
    sat = saturate(it, arrow)
    pointwise, kernel = [], []
    bases = [(c, _kernel_member(c.op, c.image())) for c in sat.base.components]
    base_kernel = FluxKernel(m for _, m in bases if m is not None)
    for extra in sat.extras:
        # an extra differs from its base only at its trigger
        pos = sorted(simple_var_positions(extra.component.op))
        out = extra.component.apply(extra.trigger)
        if [out[j - 1] for j in pos] != [extra.output[j - 1] for j in pos]:
            pointwise.append(
                ("pointwise", extra.op_name, extra.trigger, extra.output, extra.trigger)
            )
        members = (
            _kernel_member(c.op, extra.image()) if c is extra.component else m
            for c, m in bases
        )
        if FluxKernel(m for m in members if m is not None).members != base_kernel.members:
            kernel.append(("kernel", extra.op_name, extra.trigger, extra.output))
    failures = tuple(pointwise + kernel)
    return FluxInvarianceReport(not failures, failures)
