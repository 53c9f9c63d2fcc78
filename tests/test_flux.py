"""Flux kernels and the bounded view-closure comparison."""

import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from dbmorph import (
    ClosureBounds,
    FluxKernel,
    Instance,
    NULL,
    NormalizedImplication,
    PreconditionError,
    RelAtom,
    RelationSymbol,
    Schema,
    TarskiInterpretation,
    Var,
    alpha_star,
    flux_equal,
    flux_kernel,
    in_closure,
    in_composed_flux,
    make_operads,
)
from dbmorph import flux
from dbmorph.flux import (
    BOTTOM_MEMBER,
    EQUAL,
    UNEQUAL,
    UNKNOWN,
    closure_set,
    flux_positions,
    require_shared_endpoints,
)
from dbmorph.model import row_key, value_key
from dbmorph.project import compile_project_mapping

from closure_oracle import closure_set as oracle_closure_set
from conftest import arrow_and_interp


def member(*rows):
    return frozenset(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# kernels


def test_bottom_is_always_a_member():
    k = FluxKernel()
    assert BOTTOM_MEMBER in k
    assert len(k) == 1
    k2 = FluxKernel([member((1,))])
    assert BOTTOM_MEMBER in k2 and member((1,)) in k2
    assert len(k2) == 2


def test_empty_rowset_is_distinct_from_bottom():
    k = FluxKernel([frozenset()])
    assert len(k) == 2
    assert frozenset() in k and BOTTOM_MEMBER in k


def test_sorted_members_lead_with_bottom():
    k = FluxKernel([member((2,)), member((1,)), frozenset()])
    ordered = k.sorted_members()
    assert ordered[0] == BOTTOM_MEMBER
    assert ordered[1] == frozenset()
    assert ordered[2:] == [member((1,)), member((2,))]


def test_kernel_values_pool_all_rows():
    k = FluxKernel([member((1, 2)), member(("a",))])
    assert k.values() == frozenset({1, 2, "a"})


# ---------------------------------------------------------------------------
# flux positions


def test_flux_positions_keep_source_carried_variables():
    a = Schema("A", [RelationSymbol("r", ("c1",))])
    b = Schema("B", [RelationSymbol("s", ("c1", "c2"))])
    impl = NormalizedImplication(
        ("x", "y"),
        (RelAtom("r", (Var("x"),)), RelAtom("Q", (Var("y"),))),
        RelAtom("s", (Var("x"), Var("y"))),
    )
    (op,) = make_operads([impl], a, b).operations
    # y is a bare head variable, but it only occurs in a foreign atom
    assert op.places[1].char
    assert flux_positions(op) == (1,)


def test_flux_positions_of_the_join_example(example3):
    arrow = compile_project_mapping(example3, "m_ab")
    (op,) = arrow.operations
    assert flux_positions(op) == (1, 2, 3)


def test_kernel_of_the_join_example(example3):
    arrow, it = arrow_and_interp(example3, "example3", "m_ab", "interp.json")
    k = flux_kernel(alpha_star(it, arrow))
    assert k.members == frozenset({BOTTOM_MEMBER, member((1, 3, 5))})


def test_kernel_of_the_hobby_example(example4):
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp.json")
    k = flux_kernel(alpha_star(it, arrow))
    assert k.members == frozenset({BOTTOM_MEMBER, member((132,))})


def test_skolem_only_heads_leave_the_kernel_trivial():
    a = Schema("A", [RelationSymbol("r", ("c1",))])
    b = Schema("B", [RelationSymbol("s", ("c1",))])
    arrow = make_operads(
        [
            NormalizedImplication(
                ("x",),
                (RelAtom("r", (Var("x"),)),),
                RelAtom("s", (Var("x"),)),
            )
        ],
        a,
        b,
    )
    src = Instance.build(a, {"r": []})
    tgt = Instance.build(b, {})
    morphism = alpha_star(TarskiInterpretation(src, tgt, {}), arrow)
    # the operation contributes the empty projection, not nothing
    assert flux_kernel(morphism).members == frozenset({BOTTOM_MEMBER, frozenset()})


# ---------------------------------------------------------------------------
# closure enumeration


def test_generators_witness_themselves():
    k = FluxKernel([member((1,)), member((2, 2))])
    v = in_closure(member((1,)), k)
    assert v.found and v.witness == "g1"
    assert in_closure(BOTTOM_MEMBER, k).witness == "bottom"


def test_selection_by_constant():
    k = FluxKernel([member((1,), (2,))])
    v = in_closure(member((1,)), k)
    assert v.found and v.witness == "select[1=1](g1)"


def test_selection_between_columns():
    k = FluxKernel([member((1, 1), (1, 2))])
    v = in_closure(member((1, 1)), k)
    assert v.found and v.witness == "select[1=2](g1)"


def test_projection_permutes_and_narrows():
    k = FluxKernel([member((1, 2))])
    v = in_closure(member((2, 1)), k)
    assert v.found and v.witness == "project[2,1](g1)"
    v2 = in_closure(member((2,)), k)
    assert v2.found and v2.witness == "project[2](g1)"


def test_cross_product():
    k = FluxKernel([member((1,)), member((2,))])
    v = in_closure(member((1, 2)), k)
    assert v.found and v.witness == "(g1 x g2)"


def test_same_arity_union():
    k = FluxKernel([member((1,)), member((2,))])
    v = in_closure(member((1,), (2,)), k)
    assert v.found and v.witness == "(g1 u g2)"


def test_union_with_the_empty_rowset_is_allowed():
    k = FluxKernel([frozenset(), member((1,))])
    result = closure_set(k, ClosureBounds(max_depth=1))
    # ∅ u g1 just reproduces g1; nothing new, but no arity complaint either
    assert member((1,)) in result.members


def test_selections_never_match_null():
    k = FluxKernel([member((NULL,), (1,))])
    assert in_closure(frozenset(), k).found
    assert not in_closure(member((NULL,)), k).found


def test_depth_zero_enumerates_only_generators():
    k = FluxKernel([member((1,), (2,))])
    result = closure_set(k, ClosureBounds(max_depth=0))
    assert set(result.members) == set(k.members)
    assert not result.fixpoint


def test_fixpoint_mode_reports_completion():
    k = FluxKernel([member((1,))])
    result = closure_set(k, ClosureBounds(max_depth=None, max_arity=2))
    assert result.fixpoint and not result.capped
    assert set(result.members) == {BOTTOM_MEMBER, member((1,)), member((1, 1))}


def test_closure_is_idempotent_at_the_fixpoint():
    k = FluxKernel([member((1,), (2,))])
    bounds = ClosureBounds(max_depth=None, max_arity=2)
    first = closure_set(k, bounds)
    assert first.fixpoint
    again = closure_set(FluxKernel(first.members), bounds)
    assert set(again.members) == set(first.members)


def test_relation_cap_marks_the_result():
    k = FluxKernel([member((1,), (2,), (3,))])
    result = closure_set(k, ClosureBounds(max_depth=None, max_relations=4))
    assert result.capped and not result.fixpoint
    assert len(result.members) <= 4


@pytest.mark.parametrize("cap, size, capped", [(5, 5, False), (4, 4, True)])
def test_relation_cap_boundary(cap, size, capped):
    # the closure is bottom, g1, select[1=0](g1), select[1=1](g1) and ∅:
    # a cap of exactly five refuses nothing new, so the search completes
    k = FluxKernel([member((0,), (1,))])
    result = closure_set(k, ClosureBounds(None, 1, cap))
    assert len(result.members) == size
    assert result.capped == capped and result.fixpoint == (not capped)


def test_bounds_validation():
    with pytest.raises(ValueError):
        ClosureBounds(max_depth=-1)
    with pytest.raises(ValueError):
        ClosureBounds(max_arity=0)
    with pytest.raises(ValueError):
        ClosureBounds(max_relations=0)


def test_in_closure_accepts_relations(example3):
    arrow, it = arrow_and_interp(example3, "example3", "m_ab", "interp.json")
    k = flux_kernel(alpha_star(it, arrow))
    rel = it.source.relation("r1")  # rows {(1, 2, 3)}: 2 never reaches the head
    assert not in_closure(rel, k).found


# ---------------------------------------------------------------------------
# equality verdicts


def test_identical_kernels_are_equal_outright():
    k = FluxKernel([member((1,))])
    out = flux_equal(k, FluxKernel([member((1,))]))
    assert out.verdict == EQUAL and out.detail == ()


def test_value_escape_refutes_equality():
    out = flux_equal(FluxKernel([member((7,))]), FluxKernel([member((1,))]))
    assert out.verdict == UNEQUAL
    assert set(out.detail) == {("left", member((7,))), ("right", member((1,)))}


def test_underivable_member_within_domain_is_unknown():
    k1 = FluxKernel([member((1,))])
    k2 = FluxKernel([member((1,)), frozenset()])
    out = flux_equal(k1, k2, ClosureBounds(max_depth=None, max_arity=2))
    assert out.verdict == UNKNOWN
    assert out.detail == (("right", frozenset()),)


def test_column_permutations_compare_equal():
    k1 = FluxKernel([member((1, 2), (3, 4))])
    k2 = FluxKernel([member((2, 1), (4, 3))])
    out = flux_equal(k1, k2)
    assert out.verdict == EQUAL


def test_kernel_plus_own_projection_stays_equal():
    g = member((1, 2), (3, 4))
    out = flux_equal(FluxKernel([g]), FluxKernel([g, member((1,), (3,))]))
    assert out.verdict == EQUAL


def test_morphism_equality_requires_shared_endpoints(example1):
    ab_arrow, ab_it = arrow_and_interp(example1, "example1", "m_ab", "interp_ab.json")
    bc_arrow, bc_it = arrow_and_interp(example1, "example1", "m_bc", "interp_bc.json")
    m_ab = alpha_star(ab_it, ab_arrow)
    m_bc = alpha_star(bc_it, bc_arrow)
    require_shared_endpoints(m_ab, m_ab)
    assert flux_equal(flux_kernel(m_ab), flux_kernel(m_ab)).verdict == EQUAL
    with pytest.raises(PreconditionError):
        require_shared_endpoints(m_ab, m_bc)


def test_composed_flux_membership_is_a_conjunction():
    k1 = FluxKernel([member((1,), (2,))])
    k2 = FluxKernel([member((1,))])
    both = in_composed_flux(member((1,)), k1, k2)
    assert both.found
    assert both.witnesses == ("select[1=1](g1)", "g1")
    one = in_composed_flux(member((2,)), k1, k2)
    assert not one.found


# ---------------------------------------------------------------------------
# small closure properties


small_values = st.integers(min_value=0, max_value=2)


@st.composite
def small_kernels(draw):
    members = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        arity = draw(st.integers(min_value=1, max_value=2))
        rows = draw(
            st.frozensets(
                st.tuples(*([small_values] * arity)), min_size=0, max_size=3
            )
        )
        members.append(rows)
    return FluxKernel(members)


@settings(max_examples=30, deadline=None)
@given(small_kernels())
def test_generators_lie_in_their_own_closure(kernel):
    result = closure_set(kernel, ClosureBounds(max_depth=1, max_arity=3))
    for m in kernel.members:
        assert m in result.members


@settings(max_examples=30, deadline=None)
@given(small_kernels())
def test_closure_values_stay_inside_the_kernel_domain(kernel):
    result = closure_set(kernel, ClosureBounds(max_depth=2, max_arity=3, max_relations=2000))
    dom = kernel.values()
    for m in result.members:
        assert frozenset(v for row in m for v in row) <= dom


@settings(max_examples=20, deadline=None)
@given(small_kernels())
def test_every_kernel_equals_itself(kernel):
    out = flux_equal(kernel, FluxKernel(kernel.members))
    assert out.verdict == EQUAL


# ---------------------------------------------------------------------------
# the semi-naive enumeration against the full pair product


closure_values = st.sampled_from([0, 1, "a", NULL])


@st.composite
def closure_cases(draw):
    members = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        arity = draw(st.integers(min_value=1, max_value=3))
        rows = st.tuples(*([closure_values] * arity))
        members.append(draw(st.frozensets(rows, max_size=3)))
    kernel = FluxKernel(members)

    max_arity = draw(st.integers(min_value=1, max_value=4))
    depths = st.integers(min_value=0, max_value=3)
    if max_arity <= 2:
        depths = depths | st.none()
    bounds = ClosureBounds(
        draw(depths), max_arity, draw(st.integers(min_value=1, max_value=300))
    )

    pool = kernel.sorted_members()
    kind = draw(st.sampled_from(["none", "member", "selection", "foreign"]))
    if kind == "none":
        return kernel, bounds, None
    if kind == "member":
        target = draw(st.sampled_from(pool))
    elif kind == "selection":
        rows = sorted(draw(st.sampled_from(pool)), key=row_key)
        target = frozenset(r for r in rows if draw(st.booleans()))
    else:
        row = draw(st.lists(closure_values, min_size=1, max_size=3))
        row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = "foreign"
        target = member(row)
    return kernel, bounds, frozenset({target})


def assert_matches_the_oracle(kernel, bounds, targets):
    """Same members in the same order, same witnesses, same ``capped`` and
    ``fixpoint`` as the full pair product; returns the result."""
    expected = oracle_closure_set(kernel, bounds, targets)
    result = closure_set(kernel, bounds, targets)
    assert list(result.members.items()) == list(expected.members.items())
    assert (result.capped, result.fixpoint) == (expected.capped, expected.fixpoint)
    return result


@settings(max_examples=150, deadline=None)
@given(closure_cases())
def test_closure_matches_the_full_pair_product(case):
    assert_matches_the_oracle(*case)


# the two regimes the row-set masks serve: a fixpoint search over a power
# set, where nearly every union is a duplicate, and a bounded search that
# the relation cap stops in the middle of a depth
MASK_REGIMES = [
    pytest.param(
        FluxKernel([member((0, 0), (1, 0), ("a", "a"))]),
        ClosureBounds(None, 2, 4000),
        520,
        id="power-set-fixpoint",
    ),
    pytest.param(
        FluxKernel([member((0, 0), (1, 1), ("a", "a")), member((1,))]),
        ClosureBounds(3, 6, 1500),
        1500,
        id="cap-mid-depth",
    ),
]


@pytest.mark.parametrize("kernel, bounds, size", MASK_REGIMES)
def test_closure_matches_the_full_pair_product_on_large_searches(kernel, bounds, size):
    result = assert_matches_the_oracle(kernel, bounds, frozenset({member(("zz",))}))
    assert len(result.members) == size
    assert result.capped == (bounds.max_depth is not None)


@st.composite
def projection_cases(draw):
    """Bounded searches in which projections repeat one another: kernels
    of one- or two-row members over three values, so that a member and its
    products often hold equal column vectors, up to depth 3 and arity 6
    under a small cap, probing for a projection of a product of two kernel
    members or for a foreign row."""
    members = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rows = st.tuples(*[st.sampled_from([0, 1, "a"])] * draw(st.integers(1, 3)))
        members.append(draw(st.frozensets(rows, min_size=1, max_size=2)))
    kernel = FluxKernel(members)
    bounds = ClosureBounds(
        draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 150))
    )
    if draw(st.booleans()):
        pool = kernel.sorted_members()[1:]  # ⊥ leads
        left, right = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        product = [a + b for a in sorted(left, key=row_key) for b in sorted(right, key=row_key)]
        width = len(product[0])
        seq = draw(st.permutations(range(width)))[: draw(st.integers(1, width))]
        target = frozenset(tuple(r[j] for j in seq) for r in product)
    else:
        target = member((draw(st.sampled_from(sorted(kernel.values(), key=value_key))), "foreign"))
    return kernel, bounds, frozenset({target})


@settings(max_examples=120, deadline=None)
@given(projection_cases())
def test_duplicate_projections_are_settled_as_the_full_pair_product_settles_them(case):
    assert_matches_the_oracle(*case)


# ---------------------------------------------------------------------------
# the closure in closed form under fixpoint bounds


def characterized_closure(kernel, max_arity):
    """The NULL-free members of the fixpoint closure as the law states
    them: ⊥; every nonempty relation over the kernel's non-NULL values up
    to ``max_arity``; every nonempty subset of the NULL-free kernel rows of
    each wider width; and ∅ when the kernel has two non-NULL values, holds
    NULL (which no selection by a constant matches) or holds ∅.  For a
    NULL-free kernel these are all the members."""
    values = sorted(kernel.values() - {NULL}, key=value_key)
    wide = {r for m in kernel.members for r in m if len(r) > max_arity and NULL not in r}
    rows_by_width = [list(itertools.product(values, repeat=j)) for j in range(1, max_arity + 1)]
    for n in sorted({len(r) for r in wide}):
        rows_by_width.append(sorted((r for r in wide if len(r) == n), key=row_key))
    out = {BOTTOM_MEMBER}
    for rows in rows_by_width:
        for k in range(1, len(rows) + 1):
            out.update(frozenset(c) for c in itertools.combinations(rows, k))
    if len(values) >= 2 or NULL in kernel.values() or frozenset() in kernel:
        out.add(frozenset())
    return out


def fixpoint_cases(values, max_members=3):
    """A kernel of up to ``max_members`` members of arity 1 to 3 over
    ``values``, and an arity bound of 1 or 2, so that some members are
    wider; under arity bound 2 the pool loses the value 1, which keeps the
    oracle quick."""

    @st.composite
    def cases(draw):
        max_arity = draw(st.integers(min_value=1, max_value=2))
        pool = values if max_arity == 1 else [v for v in values if v != 1]
        members = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_members))):
            arity = draw(st.integers(min_value=1, max_value=3))
            rows = st.tuples(*([st.sampled_from(pool)] * arity))
            members.append(draw(st.frozensets(rows, max_size=3)))
        return FluxKernel(members), max_arity

    return cases()


@settings(max_examples=60, deadline=None)
@given(fixpoint_cases([0, 1, "a"]))
def test_the_fixpoint_closure_of_a_null_free_kernel_has_a_closed_form(case):
    kernel, max_arity = case
    result = oracle_closure_set(kernel, ClosureBounds(None, max_arity, 10_000))
    assert result.fixpoint
    assert set(result.members) == characterized_closure(kernel, max_arity)


@settings(max_examples=30, deadline=None)
@given(fixpoint_cases([0, 1, "a", NULL], max_members=2))
def test_the_null_free_members_keep_the_closed_form_when_the_kernel_holds_null(case):
    # a NULL never matches a selection, so members holding one have no such
    # simple form
    kernel, max_arity = case
    result = oracle_closure_set(kernel, ClosureBounds(None, max_arity, 10_000))
    assert result.fixpoint
    null_free = {m for m in result.members if all(NULL not in r for r in m)}
    assert null_free == characterized_closure(kernel, max_arity)


@pytest.mark.parametrize(
    "members, reached",
    [
        ([], False),
        ([frozenset()], True),
        ([member((1,))], False),
        ([member((1,), (1,)), member((1, 1))], False),
        ([member((1,)), frozenset()], True),
        ([member((1,)), member((2,))], True),
        ([member((1, 2))], True),
        ([member((NULL,))], True),
    ],
)
def test_the_empty_relation_needs_two_values_a_null_or_a_kernel_that_holds_it(members, reached):
    kernel = FluxKernel(members)
    for max_arity in (1, 2):
        result = oracle_closure_set(kernel, ClosureBounds(None, max_arity, 10_000))
        assert (frozenset() in result.members) == reached
        null_free = {m for m in result.members if all(NULL not in r for r in m)}
        assert null_free == characterized_closure(kernel, max_arity)


def searched_verdict(target, kernel, bounds):
    """``in_closure`` with the closed form switched off and the full pair
    product as the enumerator: what the search alone answers."""
    with mock.patch.object(flux, "_closed_form", lambda *a: None), \
            mock.patch.object(flux, "closure_set", oracle_closure_set):
        return in_closure(target, kernel, bounds)


def closure_caps(kernel, max_arity):
    """The caps where ``capped`` turns: the kernel's size, and one below,
    at and above the size of its fixpoint closure."""
    size = len(oracle_closure_set(kernel, ClosureBounds(None, max_arity, 10_000)).members)
    return sorted({c for c in (len(kernel), size - 1, size, size + 1) if c >= 1})


@st.composite
def unreachable_cases(draw):
    """A NULL-free kernel, an arity bound and a target no view reaches:
    one with a foreign value or a NULL, one wider than the bound and not
    within the kernel rows of its width, one of mixed widths, or ∅ over a
    kernel of at most one value that does not hold it."""
    kind = draw(st.sampled_from(["foreign", "null", "wide", "mixed", "empty"]))
    if kind == "empty":
        v = draw(st.sampled_from([0, 1, "a"]))
        widths = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2))
        return FluxKernel(member((v,) * n) for n in widths), draw(st.integers(1, 2)), frozenset()
    kernel, max_arity = draw(fixpoint_cases([0, 1, "a"]))
    value = st.sampled_from(sorted(kernel.values(), key=value_key) or [0])
    if kind == "wide":
        row = st.tuples(*([value] * draw(st.integers(min_value=max_arity + 1, max_value=3))))
        target = draw(st.frozensets(row, min_size=1, max_size=3))
        assume(not target <= {r for m in kernel.members for r in m})
        return kernel, max_arity, target
    row = draw(st.lists(value, min_size=1, max_size=2))
    if kind == "mixed":
        return kernel, max_arity, member(row, row + row[:1])
    row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = (
        "foreign" if kind == "foreign" else NULL
    )
    return kernel, max_arity, member(row)


@settings(max_examples=60, deadline=None)
@given(unreachable_cases())
def test_an_unreachable_target_is_answered_without_a_search(case):
    kernel, max_arity, target = case
    for cap in closure_caps(kernel, max_arity):
        bounds = ClosureBounds(None, max_arity, cap)
        with mock.patch.object(flux, "closure_set", side_effect=AssertionError("searched")):
            verdict = in_closure(target, kernel, bounds)
        assert verdict == searched_verdict(target, kernel, bounds)
        assert not verdict.found and verdict.witness is None


@st.composite
def reachable_cases(draw):
    """A NULL-free kernel, an arity bound and a target in the closed form
    of its closure: half the time, where the kernel has members wider than
    the bound, a subset of one such member's rows."""
    kernel, max_arity = draw(fixpoint_cases([0, 1, "a"]))
    wide = [m for m in kernel.sorted_members() if m and len(next(iter(m))) > max_arity]
    if wide and draw(st.booleans()):
        rows = sorted(draw(st.sampled_from(wide)), key=row_key)
        return kernel, max_arity, frozenset(draw(st.lists(st.sampled_from(rows), min_size=1)))
    closure = sorted(characterized_closure(kernel, max_arity), key=flux._member_key)
    return kernel, max_arity, draw(st.sampled_from(closure))


@settings(max_examples=40, deadline=None)
@given(reachable_cases())
def test_a_target_in_the_closure_is_still_searched_for(case):
    kernel, max_arity, target = case
    for cap in closure_caps(kernel, max_arity):
        bounds = ClosureBounds(None, max_arity, cap)
        verdict = in_closure(target, kernel, bounds)
        assert verdict == searched_verdict(target, kernel, bounds)
    # the last cap holds the whole closure
    assert verdict.found and verdict.witness is not None
