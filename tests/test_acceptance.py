"""Acceptance gate: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion.  The randomized
criteria use fixed seeds; the logical equivalence check is judged by
evaluators written here from first principles, independent of the library
internals they verify.
"""

import itertools
import random
import time

from dbmorph import (
    ClosureBounds,
    ComponentFunction,
    FluxKernel,
    FunctionTable,
    RelAtom,
    RelationSymbol,
    Schema,
    TarskiInterpretation,
    Tgd,
    Var,
    alpha_star,
    build_equal_var_set,
    derive_pfunction,
    flux_equal,
    flux_kernel,
    hash_tuple,
    in_closure,
    in_composed_flux,
    make_operads,
    normalize,
    parse_tuple,
    satisfies,
    saturate,
    skolemize,
)
from dbmorph.cli import main
from dbmorph.dsl import parse_mapping, pretty_mapping
from dbmorph.flux import EQUAL, closure_set, require_shared_endpoints
from dbmorph.logic import App

from conftest import FIXTURES, arrow_and_interp, build_instance
from interp_oracle import cmp


def test_criterion_1_join_compaction_and_application(example3):
    started = time.monotonic()
    arrow, it = arrow_and_interp(example3, "example3", "m_ab", "interp.json")
    (op,) = arrow.operations

    s = build_equal_var_set(op)
    assert s == frozenset(
        {
            frozenset({(1, 1), (2, 2)}),
            frozenset({(2, 1), (1, 3)}),
            frozenset({(3, 1), (2, 3)}),
            frozenset({(3, 2), (4, 3)}),
        }
    )

    letters = (("a1", "a2", "a3"), ("b1", "b2", "b3"), ("c1", "c2", "c3", "c4"))
    assert cmp(s, letters) == ("a1", "a2", "a3", "b1", "b3", "c3")

    args = ((1, 2, 3), (4, 1, 5), (2, 3, 6, 5))
    # head: <x, z, w, f2(v, z)> with f2(4, 3) = 7 in the fixture table
    assert ComponentFunction(it, op).apply(args) == (1, 3, 5, 7)
    assert time.monotonic() - started < 1.0


def test_criterion_2_saturation_and_pfunction(example4):
    started = time.monotonic()
    arrow, it = arrow_and_interp(example4, "example4", "m_ab", "interp.json")
    sat = saturate(it, arrow)
    assert len(sat.extras) == 3

    pf = derive_pfunction(sat, 1)
    ((d1, outputs),) = pf.graph
    assert outputs == frozenset(
        {
            (132, "art"),
            (132, "music"),
            (132, "photography"),
            (132, "travel"),
        }
    )
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# criterion 3: saturation never moves the flux, at scale


VALUE_POOL = ("a", "b", "c", 1, 2)


def random_saturation_fixture(rng):
    domain = rng.sample(VALUE_POOL, rng.randint(1, 5))

    src_syms = [
        RelationSymbol(f"r{i}", tuple(f"c{j}" for j in range(1, rng.randint(1, 3) + 1)))
        for i in range(1, rng.randint(1, 3) + 1)
    ]
    source_schema = Schema("S", src_syms)
    source = build_instance(
        source_schema,
        {
            sym.name: {
                tuple(rng.choice(domain) for _ in range(sym.arity))
                for _ in range(rng.randint(0, 4))
            }
            for sym in src_syms
        },
    )

    t_arity = rng.randint(1, 3)
    tgt_sym = RelationSymbol("t1", tuple(f"d{j}" for j in range(1, t_arity + 1)))
    target_schema = Schema("T", [tgt_sym])

    n_skolems = rng.randint(0, 2)
    tgds = []
    for _ in range(rng.randint(1, 2)):
        sym = rng.choice(src_syms)
        universals = tuple(f"x{j}" for j in range(1, sym.arity + 1))
        lhs = [RelAtom(sym.name, tuple(Var(u) for u in universals))]
        existentials = tuple(
            f"z{j}" for j in range(1, rng.randint(0, n_skolems) + 1)
        )
        names = list(universals) + list(existentials)
        head_vars = [rng.choice(names) for _ in range(t_arity)]
        for z in existentials:  # every existential must reach the head
            if z not in head_vars:
                head_vars[rng.randrange(t_arity)] = z
        used = tuple(z for z in existentials if z in head_vars)
        tgds.append(
            Tgd(
                universals,
                tuple(lhs),
                (RelAtom("t1", tuple(Var(v) for v in head_vars)),),
                rhs_exists=used,
            )
        )

    sotgd = skolemize(tgds)
    arrow = make_operads(normalize(sotgd), source_schema, target_schema, "m")
    tables = {
        f.name: FunctionTable(f.name, {}, default=rng.choice(domain))
        for f in sotgd.functions
    }

    probe = TarskiInterpretation(source, build_instance(target_schema, {}), tables)
    rows = set()
    for component in alpha_star(probe, arrow).components:
        rows |= component.image()
    for _ in range(rng.randint(0, 3)):  # noise the saturation can reach for
        rows.add(tuple(rng.choice(domain) for _ in range(t_arity)))
    target = build_instance(target_schema, {"t1": rows})
    return TarskiInterpretation(source, target, tables), arrow


def test_criterion_3_saturation_preserves_flux_at_scale():
    started = time.monotonic()
    rng = random.Random(1105)
    nontrivial = 0
    for round_no in range(500):
        it, arrow = random_saturation_fixture(rng)
        assert satisfies(alpha_star(it, arrow)).satisfied, round_no
        sat = saturate(it, arrow)
        nontrivial += bool(sat.extras)
        require_shared_endpoints(sat.base, sat)
        outcome = flux_equal(flux_kernel(sat.base), flux_kernel(sat))
        assert outcome.verdict == EQUAL, (round_no, outcome)
        assert flux_kernel(sat.base).members == flux_kernel(sat).members, round_no
    assert nontrivial >= 50  # the sample must reach the deviation machinery
    assert time.monotonic() - started < 60.0


def test_criterion_4_vector_flattening(example5):
    started = time.monotonic()
    source = example5.instance("a")
    contacts = source.schema.symbol("Contacts")
    row = (132, "Zoran", "Majkic", "Appia", "00187")
    index = "8045563be38c4ee5"  # frozen FNV-1a oracle value
    assert hash_tuple(row) == index
    assert [tuple(t) for t in parse_tuple(contacts, row)] == [
        ("Contacts", index, "contactID", 132),
        ("Contacts", index, "firstName", "Zoran"),
        ("Contacts", index, "lastName", "Majkic"),
        ("Contacts", index, "street", "Appia"),
        ("Contacts", index, "zipCode", "00187"),
    ]

    arrow, it = arrow_and_interp(example5, "example5", "mop", "interp.json")
    morphism = alpha_star(it, arrow)
    column_of_op = [
        (sym, i)
        for sym in source.schema.ordinary_symbols()
        for i in range(1, sym.arity + 1)
    ]
    assert len(arrow.operations) == len(column_of_op) == 11
    for component, (sym, i) in zip(morphism.components, column_of_op):
        image = component.image()
        assert {out[3] for out in image} == {
            r[i - 1] for r in source.rows(sym.name)
        }, (sym.name, i)

    assert saturate(it, arrow).extras == ()
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# criterion 5: a tgd holds iff its skolemization has a witnessing table
#
# Both judges below work straight off the definitions over {0, 1} and touch
# none of the library's evaluation machinery.


DOMAIN2 = (0, 1)


def _fo_tgd_holds(src_rows, tgt_rows, tgd):
    names = list(tgd.universals)
    for values in itertools.product(DOMAIN2, repeat=len(names)):
        g = dict(zip(names, values))
        if not all(
            tuple(g[t.name] for t in atom.terms) in src_rows[atom.relation]
            for atom in tgd.lhs
        ):
            continue
        witnessed = False
        for zs in itertools.product(DOMAIN2, repeat=len(tgd.rhs_exists)):
            h = dict(g)
            h.update(zip(tgd.rhs_exists, zs))
            if all(
                tuple(h[t.name] for t in atom.terms) in tgt_rows[atom.relation]
                for atom in tgd.rhs
            ):
                witnessed = True
                break
        if not witnessed:
            return False
    return True


def _term_value(term, g, tables):
    if isinstance(term, Var):
        return g[term.name]
    return tables[term.func.name][tuple(_term_value(a, g, tables) for a in term.args)]


def _sotgd_satisfiable(src_rows, tgt_rows, sotgd):
    arg_arities = {}
    for conj in sotgd.conjuncts:
        for atom in conj.rhs:
            for t in atom.terms:
                if isinstance(t, App):
                    arg_arities[t.func.name] = len(t.args)
    points = {
        name: list(itertools.product(DOMAIN2, repeat=k))
        for name, k in arg_arities.items()
    }
    names = [f.name for f in sotgd.functions]
    choice_spaces = [
        [dict(zip(points[n], vals)) for vals in itertools.product(DOMAIN2, repeat=len(points[n]))]
        for n in names
    ]
    for combo in itertools.product(*choice_spaces):
        tables = dict(zip(names, combo))
        if all(
            _conjunct_holds(src_rows, tgt_rows, conj, tables)
            for conj in sotgd.conjuncts
        ):
            return True
    return False


def _conjunct_holds(src_rows, tgt_rows, conj, tables):
    for values in itertools.product(DOMAIN2, repeat=len(conj.universals)):
        g = dict(zip(conj.universals, values))
        if not all(
            tuple(g[t.name] for t in atom.terms) in src_rows[atom.relation]
            for atom in conj.lhs
        ):
            continue
        for atom in conj.rhs:
            row = tuple(_term_value(t, g, tables) for t in atom.terms)
            if row not in tgt_rows[atom.relation]:
                return False
    return True


def random_tgd_and_instances(rng):
    src_arities = {"r1": rng.randint(1, 2), "r2": rng.randint(1, 2)}
    tgt_arity = rng.randint(1, 2)
    pool = ("x1", "x2")

    atoms = []
    for name in rng.sample(sorted(src_arities), rng.randint(1, 2)):
        terms = tuple(Var(rng.choice(pool)) for _ in range(src_arities[name]))
        atoms.append(RelAtom(name, terms))
    universals = tuple(
        sorted({t.name for atom in atoms for t in atom.terms})
    )

    existentials = tuple(f"z{j}" for j in range(1, rng.randint(0, 2) + 1))
    head_pool = list(universals) + list(existentials)
    head_vars = [rng.choice(head_pool) for _ in range(tgt_arity)]
    used = tuple(z for z in existentials if z in head_vars)
    tgd = Tgd(
        universals,
        tuple(atoms),
        (RelAtom("s", tuple(Var(v) for v in head_vars)),),
        rhs_exists=used,
    )

    def rows(arity):
        return {
            tuple(rng.choice(DOMAIN2) for _ in range(arity))
            for _ in range(rng.randint(0, 3))
        }

    src_rows = {name: rows(k) for name, k in src_arities.items()}
    tgt_rows = {"s": rows(tgt_arity)}
    return tgd, src_rows, tgt_rows


def test_criterion_5_skolemization_equivalence():
    started = time.monotonic()
    rng = random.Random(2203)
    outcomes = {True: 0, False: 0}
    for round_no in range(200):
        tgd, src_rows, tgt_rows = random_tgd_and_instances(rng)
        fo = _fo_tgd_holds(src_rows, tgt_rows, tgd)
        so = _sotgd_satisfiable(src_rows, tgt_rows, skolemize([tgd]))
        assert fo == so, (round_no, tgd, src_rows, tgt_rows)
        outcomes[fo] += 1
    # the sample must exercise both sides of the equivalence
    assert outcomes[True] > 0 and outcomes[False] > 0
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# criterion 6: closure-operator laws of the flux oracle


def random_kernel(rng):
    members = []
    for _ in range(rng.randint(0, 3)):
        arity = rng.randint(1, 2)
        members.append(
            frozenset(
                tuple(rng.choice((0, 1, "a")) for _ in range(arity))
                for _ in range(rng.randint(0, 3))
            )
        )
    return FluxKernel(members)


def test_criterion_6_flux_oracle_properties():
    started = time.monotonic()
    rng = random.Random(3301)
    bounds = ClosureBounds(max_depth=3, max_arity=6, max_relations=1500)
    fix_bounds = ClosureBounds(max_depth=None, max_arity=2, max_relations=4000)
    kernels = [random_kernel(rng) for _ in range(50)]

    for i, kernel in enumerate(kernels):
        result = closure_set(kernel, bounds)
        for m in kernel.members:  # Δ ⊆ T(Δ)
            assert m in result.members, i
        dom = kernel.values()  # active-domain confinement
        for m in result.members:
            assert frozenset(v for row in m for v in row) <= dom, i

        fixed = closure_set(kernel, fix_bounds)
        if fixed.fixpoint:  # idempotence at the fixpoint
            again = closure_set(FluxKernel(fixed.members), fix_bounds)
            assert set(again.members) == set(fixed.members), i

    for i in range(0, 50, 2):  # composition is memberwise conjunction
        k1, k2 = kernels[i], kernels[i + 1]
        probes = list(k1.sorted_members())[:2] + list(k2.sorted_members())[:2]
        probes.append(frozenset({(rng.choice((0, 1, "a")),)}))
        for probe in probes:
            combined = in_composed_flux(probe, k1, k2, bounds)
            assert combined.found == (
                in_closure(probe, k1, bounds).found
                and in_closure(probe, k2, bounds).found
            ), i
    assert time.monotonic() - started < 120.0


def test_criterion_7_round_trip_and_byte_stability(tmp_path):
    sources = sorted(FIXTURES.rglob("*.map"))
    assert len(sources) >= 7
    for path in sources:
        text = path.read_text(encoding="utf-8")
        parsed = parse_mapping(text)
        printed = pretty_mapping(parsed)
        assert parse_mapping(printed) == parsed, path
        assert pretty_mapping(parse_mapping(printed)) == printed, path

    runs = []
    for n in (1, 2):
        out = tmp_path / f"arrow{n}.json"
        code = main(
            [
                "compile",
                "--project", str(FIXTURES / "example3" / "project.json"),
                "--mapping", "m_ab",
                "--out", str(out),
            ]
        )
        assert code == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]

    runs = []
    for n in (1, 2):
        out = tmp_path / f"flux{n}.json"
        code = main(
            [
                "flux",
                "--project", str(FIXTURES / "example4" / "project.json"),
                "--mapping", "m_ab",
                "--interp", str(FIXTURES / "example4" / "interp.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
