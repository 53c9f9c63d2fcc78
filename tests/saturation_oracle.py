"""Saturation as it stood before the target index and the delta images,
kept verbatim as the oracle the differential test in ``test_saturation.py``
compares ``dbmorph.saturation`` against: same extras and skips in the same
order, same extra images, same flux kernel, same p-functions.

It scans the whole target relation once per trigger, rebuilds every
extra's image from the full graph, and applies every family member to
every argument tuple of the p-function.  ``_candidate_extra`` is the
version that built its skip report at each failing head position.  It
reads each trigger's assignment and skolem arguments through
``interp_oracle``'s product evaluator and term walk, not through the join
and the compiled terms it checks.  ``apply_extra`` is
``ExtraFunction.apply`` as it stood in the package.
"""

from functools import partial

from dbmorph.errors import PreconditionError, SchemaError
from dbmorph.flux import FluxKernel, flux_positions
from dbmorph.interp import ComponentFunction, TarskiInterpretation, alpha_star, satisfies
from dbmorph.logic import App, FuncKind
from dbmorph.model import EMPTY_NAME, Row, row_key, sort_rows
from dbmorph.operads import OperadArrow, OperadOperation, simple_var_positions
from dbmorph.saturation import (
    ExtraFunction,
    PFunction,
    SaturatedMorphism,
    SkippedCandidate,
    _domain_descriptor,
    _head_skolems,
)

from interp_oracle import _term_value, component_assignment


def apply_extra(extra: ExtraFunction, args: tuple) -> Row:
    """``output`` at the extra's trigger, its base component's value at
    every other argument tuple."""
    if args == extra.trigger:
        return extra.output
    return extra.component.apply(args)


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
            key = (term.func.name, tuple(_term_value(a, g, it.skolem_value) for a in term.args))
            if key in demands and demands[key] != want:
                return SkippedCandidate(
                    op_index,
                    op.name,
                    trigger,
                    candidate,
                    f"skolem {term.func.name} would need two values at one point",
                )
            demands[key] = want
        elif want != produced[j - 1]:
            return SkippedCandidate(
                op_index,
                op.name,
                trigger,
                candidate,
                f"head position {j} is not a skolem term and cannot be reassigned",
            )
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


def _selection_rows(
    it: TarskiInterpretation, op: OperadOperation, g: dict
) -> frozenset:
    """Target rows agreeing with the assignment at every simple-variable
    head position.  Agreement is tuple identity, as in the join guard."""
    fixed = {j: g[op.target_terms[j - 1].name] for j in simple_var_positions(op)}
    return frozenset(
        row
        for row in it.target.rows(op.target)
        if all(row[j - 1] == v for j, v in fixed.items())
    )


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
        for trigger, produced in component.graph().items():
            if produced == ():
                continue
            g = component_assignment(op, trigger)
            rows = _selection_rows(it, op, g) - {produced}
            for candidate in sort_rows(rows):
                built = _candidate_extra(
                    it, component, op_index, g, trigger, produced, candidate
                )
                if isinstance(built, ExtraFunction):
                    extras.append(built)
                else:
                    skipped.append(built)
    return SaturatedMorphism(base, tuple(extras), tuple(skipped))


def component_image(self) -> frozenset:
    """``ComponentFunction.image`` read straight off the graph."""
    # the identity targets r_∅, whose only row IS the empty tuple; for
    # every other operation () is the failure sentinel
    if self.op.target == EMPTY_NAME:
        return frozenset(self.graph().values())
    return frozenset(out for out in self.graph().values() if out != ())


def extra_image(self) -> frozenset:
    """``ExtraFunction.image`` rebuilt from the full graph."""
    rows = set()
    for args, out in self.component.graph().items():
        if args == self.trigger:
            rows.add(self.output)
        elif out != ():
            rows.add(out)
    return frozenset(rows)


def flux_kernel(sat: SaturatedMorphism) -> FluxKernel:
    """``flux.flux_kernel`` of the saturated morphism over the images above:
    the base components first, then each extra."""
    images = [(c.op, component_image(c)) for c in sat.base.components]
    images += [(e.component.op, extra_image(e)) for e in sat.extras]
    members = []
    for op, image in images:
        pos = flux_positions(op)
        if not pos:
            continue
        members.append(frozenset(tuple(row[j - 1] for j in pos) for row in image))
    return FluxKernel(members)


def derive_pfunction(sat: SaturatedMorphism, op_index: int) -> PFunction:
    """Union of the graphs of every component (bases and extras alike) that
    shares the chosen operation's domain and codomain."""
    ops = sat.arrow.operations
    if not 1 <= op_index <= len(ops):
        raise SchemaError(f"operation index {op_index} out of range 1..{len(ops)}")
    chosen = ops[op_index - 1]
    key = (_domain_descriptor(chosen), chosen.target)

    members: list = []
    for component in sat.base.components:
        if (_domain_descriptor(component.op), component.op.target) == key:
            members.append(component.apply)
    for extra in sat.extras:
        op = extra.component.op
        if (_domain_descriptor(op), op.target) == key:
            members.append(partial(apply_extra, extra))

    anchor = sat.base.component(chosen.name)
    graph = []
    for args in anchor.domain_product():
        outputs = frozenset(
            out for apply in members if (out := apply(args)) != ()
        )
        graph.append((args, outputs))
    return PFunction(
        name=f"f_{chosen.name}",
        domain=_domain_descriptor(chosen),
        codomain=chosen.target,
        graph=tuple(graph),
    )
