"""Information flux of an interpreted arrow.

The flux of a morphism is the closure, under finitary select-project-join-
rename-union views, of a finite kernel: one relation per operation, namely
the projection of the component's image onto the head positions holding a
bare variable that also occurs in a source-schema atom, plus the nullary
one-row relation ⊥.  Two morphisms between the same instances are equal
exactly when their fluxes coincide.

A saturated morphism adds one member per extra, computed by deltas, not
from the extra's image.  That image is its component's image with one row
swapped, so the member is the component's member without the projection
of the produced row, when the produced row and its projection both lose
their last preimage, and with the projection of the output.  An extra
whose output projects to the row its produced row projects to adds its
component's member again, so it adds nothing.  Every extra that
saturation builds is one: it agrees with its base at every
simple-variable head position, and the flux positions are among those.

The closure is infinite in general (joins grow arity without bound), so
membership and equality are semi-decided by bounded enumeration: ``yes``
comes with a witnessing view expression, ``unequal`` only from the
active-domain refutation (views cannot invent values), and everything else
is ``unknown-within-bounds``.

Under fixpoint bounds (``max_depth`` None) the closure of a NULL-free
kernel has a closed form.  Selection by an active-domain constant,
projection, product and union reach every nonempty relation over the
kernel's values up to ``max_arity``; a wider member is a nonempty subset
of the kernel rows of its width; the empty relation is reached when the
kernel has two values or holds it.  A target outside that set is not
found by any search, so it is answered without one, with the ``capped``
the search would report: the cap refuses a relation iff the closure has
more members than both the cap and the kernel.  Targets the search can
find still get its witness.

Kernel members are anonymous row-sets; column names play no role here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, mul

from .dsl import pretty_term
from .errors import PreconditionError, SchemaError
from .logic import Const, Var
from .model import _ONE_CLASS, NULL, _key_getter, row_key, value_key
from .operads import OperadOperation

__all__ = [
    "BOTTOM_MEMBER",
    "FluxKernel",
    "ClosureBounds",
    "DEFAULT_BOUNDS",
    "flux_positions",
    "flux_kernel",
    "ClosureResult",
    "closure_set",
    "ClosureVerdict",
    "in_closure",
    "EQUAL",
    "UNEQUAL",
    "UNKNOWN",
    "FluxComparison",
    "flux_equal",
    "require_shared_endpoints",
    "ComposedVerdict",
    "in_composed_flux",
]

BOTTOM_MEMBER = frozenset({()})

EQUAL = "equal"
UNEQUAL = "unequal"
UNKNOWN = "unknown-within-bounds"


@dataclass(frozen=True)
class FluxKernel:
    """Finite generator set of a flux; ⊥ is always a member, so the empty
    flux is ⊥⁰ = {⊥} rather than the empty set.  A member's rows share one
    width, since no view derives rows of two; the first member in input
    order that breaks this is named by its two smallest widths."""

    members: frozenset

    def __init__(self, members=()):
        norm = {BOTTOM_MEMBER}
        for member in members:
            member = frozenset(map(tuple, member))
            widths = sorted(set(map(len, member)))
            if len(widths) > 1:
                raise SchemaError(
                    f"kernel member rows differ in width: {widths[0]} and {widths[1]} values"
                )
            norm.add(member)
        object.__setattr__(self, "members", frozenset(norm))

    def sorted_members(self) -> list:
        return [member for member, _ in self._sorted_rows()]

    def _sorted_rows(self) -> list:
        """(member, its rows in ``row_key`` order) for each member, ⊥
        first, then by arity, then by the sorted rows.  When every value of
        the kernel is an ``int``, or every value a ``str``, rows sort and
        compare as plain tuples, which orders them as ``row_key`` does (see
        ``sort_rows``).  The test covers the whole kernel, since two members
        of one arity compare row by row; any other mix, or a NULL, keys by
        ``row_key``."""
        values = itertools.chain.from_iterable(itertools.chain.from_iterable(self.members))
        plain = set(map(type, values)) in _ONE_CLASS
        keyed = []
        for member in self.members:
            rows = sorted(member, key=None if plain else row_key)
            order = rows if plain else list(map(row_key, rows))
            keyed.append(((member != BOTTOM_MEMBER, len(rows and rows[0]), order), member, rows))
        keyed.sort(key=itemgetter(0))
        return [(member, rows) for _, member, rows in keyed]

    def values(self) -> frozenset:
        return frozenset(v for m in self.members for row in m for v in row)

    def __contains__(self, member: object) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClosureBounds:
    """max_depth None means: iterate to an actual fixpoint (or the cap)."""

    max_depth: "int | None" = 3
    max_arity: int = 6
    max_relations: int = 100_000

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.max_arity < 1:
            raise ValueError("max_arity must be positive")
        if self.max_relations < 1:
            raise ValueError("max_relations must be positive")


DEFAULT_BOUNDS = ClosureBounds()


def _source_variables(op: OperadOperation) -> frozenset:
    names: set = set()
    for place in op.places:
        if not place.char:
            names.update(place.variables)
    return frozenset(names)


def flux_positions(op: OperadOperation) -> tuple:
    """1-based head positions holding a bare variable that occurs in a
    source-schema atom of the body."""
    source_vars = _source_variables(op)
    return tuple(
        j
        for j, term in enumerate(op.target_terms, 1)
        if isinstance(term, Var) and term.name in source_vars
    )


def flux_kernel(morphism) -> FluxKernel:
    """One member per operation with source-carrying head variables: the
    projection of its image onto those positions.  ⊥ is adjoined; with no
    contributing operation the kernel is exactly ⊥⁰.  Each of
    ``morphism.extras`` adds a member by the delta rule above."""
    members, projected, counts = [], {}, {}
    for c in morphism.components:
        positions = flux_positions(c.op)
        if positions:
            project = _key_getter([j - 1 for j in positions])
            member = frozenset(map(project, c.image()))
            projected[c] = project, member
            members.append(member)
    for extra in morphism.extras:
        c = extra.component
        if c not in projected:
            continue
        project, member = projected[c]
        produced = c.graph()[extra.trigger]
        gone, new = project(produced), project(extra.output)
        if gone == new:
            continue
        if c not in counts:
            counts[c] = Counter(map(project, c.image()))
        if c.preimage_counts()[produced] == 1 and counts[c][gone] == 1:
            member = member - {gone}
        members.append(member | {new})
    return FluxKernel(members)


@dataclass(frozen=True)
class ClosureResult:
    """Everything the bounded enumeration produced: row-set -> witnessing
    view expression over the generator names."""

    members: dict
    capped: bool
    fixpoint: bool


@lru_cache(maxsize=256)
def _projections(classes: tuple, blocks: tuple, max_arity: int) -> tuple:
    """(getter, witness column list) of the projections of a member onto
    its injective position sequences of at most ``max_arity``, keeping the
    first sequence in enumeration order of each orbit below.  ``classes``
    numbers the member's distinct column vectors in order of first
    occurrence, one entry per column; two sequences with the same pattern
    pick equal column vectors and so give the same row set.  ``blocks`` is
    the (label, width) of each block of a member that is a product, equal
    blocks labelled alike, or () unless two blocks are equal.  A swap of
    equal blocks maps the member's rows onto themselves, so a sequence and
    its image give the same row set; it also maps equal column vectors
    onto equal ones, so a pattern's orbit under the swaps is one row set.
    A member with repeated columns or equal blocks filters the table of
    one with distinct columns, and shares its getters."""
    distinct = tuple(range(len(classes)))
    if classes != distinct or blocks:
        # each kept sequence marks the patterns of its whole orbit as seen
        swaps = _block_swaps(blocks) if blocks else [distinct]
        images = [tuple(classes[j] for j in g) for g in swaps]
        seen: set = set()
        out = []
        for p in _projections(distinct, (), max_arity):
            if p[0](classes) not in seen:
                out.append(p)
                seen.update(map(p[0], images))
        return tuple(out)
    out = []
    for k in range(1, min(len(classes), max_arity) + 1):
        for seq in itertools.permutations(distinct, k):
            if k == 1:  # a slice keeps the projected rows tuples
                get = itemgetter(slice(seq[0], seq[0] + 1))
            else:
                get = itemgetter(*seq)
            out.append((get, ",".join(str(j + 1) for j in seq)))
    return tuple(out)


def _block_swaps(blocks: tuple) -> list:
    """Every column permutation that permutes equal blocks among
    themselves, as the tuple of each column's image."""
    starts = itertools.accumulate((w for _, w in blocks), initial=0)
    columns = [range(start, start + w) for start, (_, w) in zip(starts, blocks)]
    return [
        tuple(itertools.chain.from_iterable(columns[b] for b in order))
        for order in itertools.permutations(range(len(blocks)))
        if all(blocks[b] == block for b, block in zip(order, blocks))
    ]


def _mask(rows: frozenset, bits: dict) -> int:
    """The row-set bitmask of ``rows``; a row gets the next free bit the
    first time a mask holds it, so masks map one-to-one onto row sets."""
    mask = 0
    for row in rows:
        bit = bits.get(row)
        if bit is None:
            bit = bits[row] = 1 << len(bits)
        mask |= bit
    return mask


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
    so NULL matches nothing.  Stops early once every target is found, and
    at the first new relation the cap refuses (``capped``).

    The search is semi-naive: each depth's frontier is the tail of
    ``members`` that the depth before added (see ``_views``).  One loop
    admits every new relation.  Each member's row-set mask is made once: a
    union's comes with it, and any other member's when the next depth
    starts, since only then can it be paired; the last depth of a bounded
    search adds most members and pairs none of them.

    Three kinds of projection are never built, because each gives a row
    set that is in ``members`` by then (see ``_views``); skipping a view
    that would not be proposed changes no member, witness, order or
    ``capped``.  For the third, ``blocks`` keeps the blocks of each product
    ``_views`` proposes; a product of products concatenates its operands'
    blocks.  They are a property of the row set, whatever its witness.
    """
    members: dict = {}
    counter = 0
    for member in kernel.sorted_members():
        if member == BOTTOM_MEMBER:
            members[member] = "bottom"
        else:
            counter += 1
            members.setdefault(member, f"g{counter}")
    constants = [(c, pretty_term(Const(c))) for c in sorted(kernel.values(), key=value_key)]
    bits: dict = {}
    masks: list = [None] * len(members)  # in the order of ``members``; None until made
    known: set = set()
    blocks: dict = {}  # product row set -> its blocks' row sets, as ``_views`` built it

    remaining = set(targets or ()) - set(members)
    views = iter(())
    start = depth = 0
    # the target test comes before every step, so a kernel that already
    # holds every target ends the search before the first depth
    while targets is None or remaining:
        view = next(views, None)
        if view is None:
            if start == len(members):
                return ClosureResult(members, False, True)
            if bounds.max_depth is not None and depth >= bounds.max_depth:
                break
            for i, member in enumerate(itertools.islice(members, start, None), start):
                if masks[i] is None:
                    masks[i] = _mask(member, bits)
                    known.add(masks[i])
            views = _views(members, masks, known, blocks, start, constants, bounds.max_arity)
            start, depth = len(members), depth + 1
        elif len(members) >= bounds.max_relations:
            return ClosureResult(members, True, False)
        else:
            rows, witness, mask = view
            members[rows] = witness
            masks.append(mask)
            if mask is not None:
                known.add(mask)
            remaining.discard(rows)
    return ClosureResult(members, False, False)


def _views(
    members: dict, masks: list, known: set, blocks: dict, start: int, constants: list, max_arity: int
):
    """One depth of the search: each view result not yet in ``members``,
    with its witness text and, for a union, its row-set mask.

    The unary views apply to the frontier, the members from ``start`` on;
    products and unions take, in the order of the full pair product, only
    the pairs that hold a frontier member.  The caller admits or refuses a
    proposal before resuming, so the duplicate test sees every member
    admitted so far.  Every member from before this depth has its mask in
    ``masks`` and ``known``, and so has every union admitted since; a union
    whose mask is in ``known`` is a duplicate (a member's own mask is, so
    the diagonal never proposes), and that test comes before any row set
    is built.  Each outer member first keeps only the partners that could
    propose a product or such a union.  A product or union with ⊥ or the
    empty row set gives back one of its operands, so none is tried.

    Projections skip three kinds of duplicate before a row set is built:
    - Of position sequences whose columns carry the same pattern of column
      vectors, only the first is built (``_projections``): equal column
      vectors give equal rows.  That first one is in ``members`` when a
      later one would come, since it was known, or proposed and admitted,
      or refused by the cap, which ends the search.
    - Of a product with equal blocks, a sequence that a swap of equal
      blocks maps onto an earlier one, or onto the pattern of an earlier
      one, is not built (``_projections``): the swap maps the product's
      rows onto themselves, so both give one row set, and by the argument
      above the earlier one's is in ``members``.
    - A member whose witness is ``project[t](m)`` has no projection built.
      It was admitted in the depth before, from ``m`` in that depth's
      frontier, and ``project[s](project[t](m))`` is ``project[t∘s](m)``, a
      projection of ``m`` onto at most ``max_arity`` positions; by the rule
      above every such row set is in ``members`` once that depth completes.
    """
    items = [
        (m, e, len(next(iter(m))) if m else 0, k) for (m, e), k in zip(members.items(), masks)
    ]
    frontier = items[start:]

    for member, expr, n, _ in frontier:
        if not member:
            continue
        for col in range(1, n + 1):
            c = col - 1
            for const, shown in constants:
                rows = frozenset(r for r in member if r[c] is not NULL and r[c] == const)
                if rows not in members:
                    yield rows, f"select[{col}={shown}]({expr})", None
            for col2 in range(col + 1, n + 1):
                c2 = col2 - 1
                rows = frozenset(r for r in member if r[c] is not NULL and r[c] == r[c2])
                if rows not in members:
                    yield rows, f"select[{col}={col2}]({expr})", None
        if expr.startswith("project["):
            continue  # its projections are projections of its operand
        classes: dict = {}
        key = tuple(classes.setdefault(col, len(classes)) for col in zip(*member))
        for get, columns in _projections(key, _equal_blocks(blocks.get(member, ())), max_arity):
            rows = frozenset(map(get, member))
            if rows not in members:
                yield rows, f"project[{columns}]({expr})", None

    for i, (m1, e1, n1, k1) in enumerate(items):
        room = max_arity - n1 if n1 else 0  # the widest product partner
        partners = [
            p for p in (items if i >= start else frontier)
            if 0 < p[2] <= room or (p[2] == n1 and k1 | p[3] not in known)
        ]
        for m2, e2, n2, k2 in partners:
            if 0 < n2 <= room:
                rows = frozenset(a + b for a in m1 for b in m2)
                if rows not in members:
                    blocks[rows] = blocks.get(m1, (m1,)) + blocks.get(m2, (m2,))
                    yield rows, f"({e1} x {e2})", None
            # a member admitted since the partners were kept can make the
            # union a duplicate: a union has its mask in ``known`` by now,
            # any other member of this depth only its rows in ``members``
            if n2 == n1 and k1 | k2 not in known:
                rows = m1 | m2
                if rows not in members:
                    yield rows, f"({e1} u {e2})", k1 | k2


def _equal_blocks(parts: tuple) -> tuple:
    """The ``blocks`` of ``_projections`` for a product of the row sets
    ``parts``: () unless two of them are equal."""
    labels: dict = {}
    shape = tuple((labels.setdefault(b, len(labels)), len(next(iter(b)))) for b in parts)
    return shape if len(labels) < len(shape) else ()


@dataclass(frozen=True)
class ClosureVerdict:
    found: bool
    witness: "str | None"
    capped: bool


def _as_member(relation) -> frozenset:
    rows = getattr(relation, "rows", relation)
    return frozenset(tuple(r) for r in rows)


def _closed_form(kernel: FluxKernel, bounds: ClosureBounds, target: frozenset) -> "bool | None":
    """The ``capped`` of a fixpoint search of ``kernel`` for ``target``
    when the closed form of the closure leaves ``target`` out, so that no
    search finds it.  None when the target lies in the closure or the
    closed form does not apply (bounded depth or a kernel that holds
    NULL).  Each member's rows share one width (``FluxKernel``)."""
    if bounds.max_depth is not None:
        return None
    values: set = set()
    wide: dict = {}  # each width above max_arity -> the kernel rows of that width
    for member in kernel.members:
        for row in member:
            values.update(row)
            if len(row) > bounds.max_arity:
                wide.setdefault(len(row), set()).add(row)
    if NULL in values:
        return None
    empty = len(values) >= 2 or frozenset() in kernel.members
    if _reachable(target, values, wide, bounds.max_arity, empty):
        return None
    return _fixpoint_capped(len(values), wide, empty, len(kernel), bounds)


def _reachable(target: frozenset, values: set, wide: dict, max_arity: int, empty: bool) -> bool:
    """Whether the fixpoint closure of a NULL-free kernel holds ``target``:
    the empty relation when ``empty``, any other relation of one width up
    to ``max_arity`` over the kernel's values, and a nonempty subset of
    the kernel rows of a wider width."""
    if not target:
        return empty
    widths = {len(row) for row in target}
    if len(widths) > 1:
        return False
    (n,) = widths
    if n > max_arity:
        return target <= wide.get(n, set())
    return _member_values(target) <= values


def _fixpoint_capped(
    a: int, wide: dict, empty: bool, kernel_size: int, bounds: ClosureBounds
) -> bool:
    """Whether the cap stops a fixpoint search of a NULL-free kernel with
    ``a`` values: whether the closure, of ``1 + Σ_{j=1..max_arity}
    (2^(a^j) − 1) + Σ_wide (2^|rows| − 1) + [empty]`` members, outnumbers
    both the cap and the kernel (the cap refuses only new relations).  The
    sum stops once the answer is settled, and a term 2^e whose exponent
    exceeds the limit's bit length, and so the limit on its own, is never
    built."""
    limit = max(bounds.max_relations, kernel_size)
    size = 1 + empty
    if a < 2:  # 2^(a^j) − 1 = a for every j
        size += a * bounds.max_arity
        exponents = iter(())
    else:
        exponents = itertools.accumulate(itertools.repeat(a, bounds.max_arity), mul)
    for e in itertools.chain(exponents, map(len, wide.values())):
        if e > limit.bit_length():
            return True
        size += (1 << e) - 1
        if size > limit:
            return True
    return size > limit


def in_closure(
    relation, kernel: FluxKernel, bounds: ClosureBounds = DEFAULT_BOUNDS
) -> ClosureVerdict:
    """Semi-decision: a positive answer carries the view expression; a
    negative one only means not found within the bounds.  Under fixpoint
    bounds a target that the closed form puts outside the closure of a
    NULL-free kernel is answered without a search, with the ``capped`` of
    the search it skips (see the module docstring)."""
    target = _as_member(relation)
    capped = _closed_form(kernel, bounds, target)
    if capped is not None:
        return ClosureVerdict(False, None, capped)
    result = closure_set(kernel, bounds, targets=frozenset({target}))
    if target in result.members:
        return ClosureVerdict(True, result.members[target], result.capped)
    return ClosureVerdict(False, None, result.capped)


def _member_values(member: frozenset) -> frozenset:
    return frozenset(v for row in member for v in row)


@dataclass(frozen=True)
class FluxComparison:
    verdict: str
    detail: tuple = ()
    capped: bool = False


def flux_equal(
    k1: FluxKernel, k2: FluxKernel, bounds: ClosureBounds = DEFAULT_BOUNDS
) -> FluxComparison:
    """Closure-operator reduction: the fluxes coincide iff each kernel's
    generators all lie in the other's closure.  Set-identical kernels are
    equal outright; a generator whose values leave the other kernel's
    active domain refutes equality outright."""
    if k1.members == k2.members:
        return FluxComparison(EQUAL)

    refuted = []
    for a, b, tag in ((k1, k2, "left"), (k2, k1, "right")):
        dom = b.values()
        for member in a.sorted_members():
            if not _member_values(member) <= dom:
                refuted.append((tag, member))
    if refuted:
        return FluxComparison(UNEQUAL, tuple(refuted))

    capped = False
    unresolved = []
    for a, b, tag in ((k1, k2, "left"), (k2, k1, "right")):
        missing = frozenset(m for m in a.members if m not in b.members)
        if not missing:
            continue
        result = closure_set(b, bounds, targets=missing)
        capped = capped or result.capped
        for member in a.sorted_members():
            if member in missing and member not in result.members:
                unresolved.append((tag, member))
    if unresolved:
        return FluxComparison(UNKNOWN, tuple(unresolved), capped)
    return FluxComparison(EQUAL, capped=capped)


def require_shared_endpoints(m1, m2) -> None:
    """Morphisms compare only between identical source and target instances."""
    if m1.source != m2.source or m1.target != m2.target:
        raise PreconditionError(
            "morphism equality needs identical source and target instances"
        )


@dataclass(frozen=True)
class ComposedVerdict:
    found: bool
    witnesses: tuple
    capped: bool


def in_composed_flux(
    relation,
    k_first: FluxKernel,
    k_second: FluxKernel,
    bounds: ClosureBounds = DEFAULT_BOUNDS,
) -> ComposedVerdict:
    """The flux of a composed mapping is the intersection of the fluxes, so
    membership is the conjunction of the two memberships."""
    v1 = in_closure(relation, k_first, bounds)
    v2 = in_closure(relation, k_second, bounds)
    return ComposedVerdict(
        v1.found and v2.found, (v1.witness, v2.witness), v1.capped or v2.capped
    )
