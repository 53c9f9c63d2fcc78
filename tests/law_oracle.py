"""The three law checkers as they stood before each was reduced to the
work its definition states, kept verbatim as the oracle the differential
tests in ``test_laws.py`` compare ``dbmorph`` against: same reports, order
included.

``satisfies`` sorts every image in full; ``check_flux_invariance`` compares
every extra with its base at every argument tuple and projects every
image again per extra; ``validate_instance`` scans the violations found so
far for a duplicate and extends assignments in two separate loops.

``_match_atoms`` is the validator's row matcher as it stood before
validation came to look rows up in an index: it scans and sorts a whole
relation for every partial match.  It is verbatim but for one call:
``Relation.sorted_rows()``, since deleted, is spelt out as ``sort_rows``.

``_eval_constraint_term`` and ``_literal_holds`` are the constraint-side
term and literal evaluators as they stood before mappings and constraints
came to share one evaluator: the oracle validation runs on them, and
``test_laws.py`` checks ``interp.eval_term`` and the compiled literal
test ``logic._compile_literal`` against them.
"""

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from dbmorph.errors import SafetyError
from dbmorph.flux import FluxKernel, flux_kernel, flux_positions
from dbmorph.interp import InstanceMorphism, SatisfactionReport
from dbmorph.irdb import hash_tuple
from dbmorph.logic import (
    Comparison,
    Const,
    Dependency,
    FuncKind,
    Literal,
    RelAtom,
    Term,
    Tgd,
    ValidationReport,
    Var,
    Violation,
    eval_comparison,
    literal_terms,
)
from dbmorph.model import NULL, DomainValue, Instance, sort_rows, value_key
from dbmorph.operads import OperadArrow, simple_var_positions
from dbmorph.saturation import FluxInvarianceReport, saturate


def satisfies(morphism: InstanceMorphism) -> SatisfactionReport:
    """The interpretation satisfies the arrow iff every component image is
    contained in its target relation."""
    bad = []
    for component in morphism.components:
        target_rows = component.codomain.rows
        for out in sort_rows(component.image()):
            if out not in target_rows:
                bad.append((component.op.name, out))
    return SatisfactionReport(not bad, tuple(bad))


def check_flux_invariance(it, arrow: OperadArrow) -> FluxInvarianceReport:
    """Saturation must not move the flux: every extra agrees with its base
    on the simple-variable positions pointwise, and swapping any single
    extra for its base component leaves the kernel set-identical."""
    sat = saturate(it, arrow)
    failures: list = []

    for extra in sat.extras:
        component = extra.component
        pos = sorted(simple_var_positions(component.op))
        for args, out in component.graph().items():
            alt = extra.apply(args)
            if out == () or alt == ():
                continue
            if tuple(out[j - 1] for j in pos) != tuple(alt[j - 1] for j in pos):
                failures.append(
                    ("pointwise", extra.op_name, extra.trigger, extra.output, args)
                )

    base_kernel = flux_kernel(sat.base)
    for extra in sat.extras:
        members = []
        for component in sat.base.components:
            pos = flux_positions(component.op)
            if not pos:
                continue
            image = (
                extra.image()
                if component is extra.component
                else component.image()
            )
            members.append(
                frozenset(tuple(row[j - 1] for j in pos) for row in image)
            )
        if FluxKernel(members).members != base_kernel.members:
            failures.append(("kernel", extra.op_name, extra.trigger, extra.output))

    return FluxInvarianceReport(not failures, tuple(failures))


def _eval_constraint_term(term: Term, g: Mapping[str, DomainValue], inst: Instance) -> DomainValue:
    if isinstance(term, Var):
        return g[term.name]
    if isinstance(term, Const):
        return term.value
    if term.func.kind is FuncKind.HASH:
        return hash_tuple(tuple(_eval_constraint_term(a, g, inst) for a in term.args))
    raise SafetyError(
        f"function {term.func.name} has no fixed interpretation inside a schema constraint"
    )


def _literal_holds(lit: Literal, g: Mapping[str, DomainValue], inst: Instance) -> bool:
    if isinstance(lit, RelAtom):
        row = tuple(_eval_constraint_term(t, g, inst) for t in lit.terms)
        holds = row in inst.relation(lit.relation).rows
    elif isinstance(lit, Comparison):
        holds = eval_comparison(
            lit.op,
            _eval_constraint_term(lit.left, g, inst),
            _eval_constraint_term(lit.right, g, inst),
        )
    else:
        holds = _eval_constraint_term(lit.term, g, inst) is not NULL
    return holds != lit.negated


def _match_atoms(
    atoms: Sequence[RelAtom],
    inst: Instance,
    g: dict,
    idx: int,
) -> Iterator[dict]:
    if idx == len(atoms):
        yield dict(g)
        return
    atom = atoms[idx]
    rel = inst.relation(atom.relation)
    for row in sort_rows(rel.rows):
        bound = dict(g)
        ok = True
        for t, v in zip(atom.terms, row):
            if isinstance(t, Var):
                if t.name in bound and bound[t.name] != v:
                    ok = False
                    break
                bound[t.name] = v
            elif isinstance(t, Const):
                if t.value != v:
                    ok = False
                    break
            else:  # function terms are not matchable patterns
                raise SafetyError(
                    "function terms in constraint lhs atoms are not supported by the validator"
                )
        if ok:
            yield from _match_atoms(atoms, inst, bound, idx + 1)


def _lhs_assignments(
    lits: Sequence[Literal],
    all_vars: Sequence[str],
    inst: Instance,
    domain: Sequence[DomainValue],
) -> Iterator[dict]:
    """Assignments over all_vars satisfying the literal conjunction; positive
    atoms are matched against rows, leftover variables range over domain."""
    positive = [l for l in lits if isinstance(l, RelAtom) and not l.negated]
    rest = [l for l in lits if not (isinstance(l, RelAtom) and not l.negated)]
    for g in _match_atoms(positive, inst, {}, 0):
        free = [v for v in all_vars if v not in g]
        for combo in itertools.product(domain, repeat=len(free)):
            full = dict(g)
            full.update(zip(free, combo))
            if all(_literal_holds(l, full, inst) for l in rest):
                yield full


def validate_instance(
    inst: Instance,
    constraints: Sequence[Dependency] | None = None,
    domain: Iterable[DomainValue] = (),
) -> ValidationReport:
    """Brute-force check of every tgd and egd over the active domain plus the
    declared constants.  Incomplete by construction for witnesses outside
    that domain; violations are data, not errors."""
    from dbmorph.model import active_domain

    if constraints is None:
        constraints = inst.schema.constraints
    base: set = set(active_domain(inst)) | set(domain)
    for dep in constraints:
        lits = list(dep.lhs) + (list(dep.rhs) if isinstance(dep, Tgd) else [])
        for lit in lits:
            for t in literal_terms(lit):
                if isinstance(t, Const):
                    base.add(t.value)
    dom = sorted(base, key=value_key)
    violations: list[Violation] = []
    for dep in constraints:
        if isinstance(dep, Tgd):
            all_vars = list(dep.universals) + list(dep.lhs_exists)
            for g in _lhs_assignments(dep.lhs, all_vars, inst, dom):
                witnessed = False
                for combo in itertools.product(dom, repeat=len(dep.rhs_exists)):
                    full = {v: g[v] for v in dep.universals}
                    full.update(zip(dep.rhs_exists, combo))
                    if all(_literal_holds(a, full, inst) for a in dep.rhs):
                        witnessed = True
                        break
                if not witnessed:
                    witness = tuple(sorted((v, g[v]) for v in dep.universals))
                    if not any(
                        v.constraint == dep and v.witness == witness for v in violations
                    ):
                        violations.append(Violation(dep, witness))
        else:
            for g in _lhs_assignments(dep.lhs, dep.universals, inst, dom):
                for y, z in dep.equalities:
                    if not eval_comparison("=", g[y], g[z]):
                        witness = tuple(sorted((v, g[v]) for v in dep.universals))
                        if not any(
                            v.constraint == dep and v.witness == witness
                            for v in violations
                        ):
                            violations.append(Violation(dep, witness))
                        break
    return ValidationReport(tuple(violations))
