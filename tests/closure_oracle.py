"""The view-closure enumerator as it stood before the semi-naive rewrite,
kept verbatim as the oracle the differential test in ``test_flux.py``
compares ``dbmorph.flux.closure_set`` against: same members in the same
order, same witnesses, same ``capped`` and ``fixpoint``.

It walks every pair of members at each depth, formats a witness for every
candidate and keeps enumerating after the relation cap refuses one.

``member_key`` is the kernel order as it stood before kernels were sorted
as plain tuples: every row keyed by ``row_key``.  ``FluxKernel.sorted_members``
and ``kernel_to_json`` are compared against it in ``test_flux.py``.
"""

import itertools

from dbmorph.dsl import pretty_term
from dbmorph.flux import (
    BOTTOM_MEMBER,
    DEFAULT_BOUNDS,
    ClosureBounds,
    ClosureResult,
    FluxKernel,
)
from dbmorph.logic import Const, eval_comparison
from dbmorph.model import row_key, value_key


def member_key(member: frozenset) -> tuple:
    rows = sorted(row_key(r) for r in member)
    return (0 if member == BOTTOM_MEMBER else 1, len(rows and rows[0]), rows)


def closure_set(
    kernel: FluxKernel,
    bounds: ClosureBounds = DEFAULT_BOUNDS,
    targets: "frozenset | None" = None,
) -> ClosureResult:
    """Breadth-first enumeration of view results over the kernel.

    Views: selection by column = active-domain constant, selection by
    column = column, projection onto any injective position sequence
    (renaming included as permutation), cross product, and same-arity
    union.  Selections compare with the same semantics as mapping guards,
    so NULL matches nothing.  Stops early once every target is found.
    """
    members: dict = {}
    counter = 0
    for member in kernel.sorted_members():
        if member == BOTTOM_MEMBER:
            members[member] = "bottom"
        else:
            counter += 1
            members.setdefault(member, f"g{counter}")
    constants = sorted(kernel.values(), key=value_key)

    remaining = set(targets or ()) - set(members)
    if targets is not None and not remaining:
        return ClosureResult(members, False, False)

    capped = False
    frontier = dict(members)
    depth = 0
    while frontier:
        if bounds.max_depth is not None and depth >= bounds.max_depth:
            return ClosureResult(members, capped, False)
        new: dict = {}

        def arity(member: frozenset) -> int:
            return len(next(iter(member)))

        def add(rows: frozenset, expr: str) -> bool:
            nonlocal capped
            if rows in members or rows in new:
                return False
            if len(members) + len(new) >= bounds.max_relations:
                capped = True
                return False
            new[rows] = expr
            remaining.discard(rows)
            return targets is not None and not remaining

        for member, expr in frontier.items():
            if not member:
                continue
            n = arity(member)
            for col in range(1, n + 1):
                for const in constants:
                    rows = frozenset(
                        r for r in member if eval_comparison("=", r[col - 1], const)
                    )
                    if add(rows, f"select[{col}={pretty_term(Const(const))}]({expr})"):
                        return ClosureResult({**members, **new}, capped, False)
                for col2 in range(col + 1, n + 1):
                    rows = frozenset(
                        r for r in member if eval_comparison("=", r[col - 1], r[col2 - 1])
                    )
                    if add(rows, f"select[{col}={col2}]({expr})"):
                        return ClosureResult({**members, **new}, capped, False)
            for k in range(1, min(n, bounds.max_arity) + 1):
                for seq in itertools.permutations(range(1, n + 1), k):
                    rows = frozenset(tuple(r[j - 1] for j in seq) for r in member)
                    label = ",".join(map(str, seq))
                    if add(rows, f"project[{label}]({expr})"):
                        return ClosureResult({**members, **new}, capped, False)

        for (m1, e1), (m2, e2) in itertools.product(members.items(), repeat=2):
            if m1 not in frontier and m2 not in frontier:
                continue
            if m1 and m2 and arity(m1) + arity(m2) <= bounds.max_arity:
                rows = frozenset(a + b for a in m1 for b in m2)
                if add(rows, f"({e1} x {e2})"):
                    return ClosureResult({**members, **new}, capped, False)
            if (not m1 or not m2 or arity(m1) == arity(m2)) and m1 != m2:
                if add(m1 | m2, f"({e1} u {e2})"):
                    return ClosureResult({**members, **new}, capped, False)

        members.update(new)
        frontier = new
        depth += 1

    return ClosureResult(members, capped, not capped)
