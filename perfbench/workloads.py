"""Seeded inputs and output checks for the three benchmark workloads.

Each ``build_<workload>(seed, root)`` writes project directories under
``root`` and returns a ``Workload``: the request pool one pass of the
stream issues, in order, and the short warm-up list.  A request carries
the argv for ``dbmorph.cli.main``, the exit code its inputs were built to
produce, and a check of its stdout.  The same seed gives byte-identical
files and the same requests.

The checks are the benchmark's own and do not call ``dbmorph``:

* join: a hash join over the generated rows gives every image size, the
  saturation extras count and the p-function graph size;
* closure: witnesses are replayed by a small view evaluator, and probes
  that no view can produce (too wide, or holding a value outside the
  kernel) must never be found;
* corpus: the exit code the generator planted, and a digest of stdout
  against ``golden_corpus.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("join", "closure", "corpus")
COMMANDS = ("compile", "eval", "saturate", "pfunction", "flux", "equal", "parse", "validate")


@dataclass
class Request:
    cmd: str
    argv: list
    code: int
    check: object = None  # callable(stdout) -> error message or None


@dataclass
class Workload:
    requests: list
    warmup: list
    info: dict = field(default_factory=dict)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _relation(columns, rows) -> dict:
    return {"columns": list(columns), "rows": [list(r) for r in rows]}


def _cli(cmd, project, *rest, mapping="m", interp=None) -> list:
    argv = [cmd, "--project", str(project)]
    if mapping is not None:
        argv += ["--mapping", mapping]
    if interp is not None:
        argv += ["--interp", str(interp)]
    return argv + [str(a) for a in rest]


def _expect(test, message):
    return None if test else message


# ---------------------------------------------------------------------------
# join: R(x,y) & S(y,z) with about n/10 keys, skolem-headed T and guarded U

# Fixed sizes, so that every seed carries the same amount of work; the seed
# draws the values, the join partners and the alternative rows.  The sizes
# stop at 64 so that one run of ``run_seconds`` still issues more than a
# hundred requests on two cores.
JOIN_SIZES = (24, 28, 32, 36, 40, 44, 48, 52, 58, 64)
# requests per pass; each subcommand is spread evenly over the sizes, so
# that the latency quantiles fall among many closely spaced costs
JOIN_MIX = (
    ("eval", 15), ("flux", 15), ("saturate", 10), ("pfunction", 5),
    ("equal", 5), ("compile", 5), ("parse", 5), ("validate", 5),
)
JOIN_MAPPING = (
    "exists f, g .\n"
    "forall x, y, z . R(x, y) & S(y, z) -> T(x, z, f(x, y, z))\n"
    "&& forall x, y, z . R(x, y) & S(y, z) & x != z -> U(x, g(x, z))\n"
)
JOIN_PROJECT = {
    "domain": [],
    "schemas": {
        "A": {
            "relations": {"R": ["x", "y"], "S": ["y", "z"]},
            "constraints": "forall x, y . R(x, y) -> S(y, z)",
        },
        "B": {"relations": {"T": ["x", "z", "v"], "U": ["x", "w"]}},
    },
    "instances": {"a": {"schema": "A", "file": "a.json"}, "b": {"schema": "B", "file": "b.json"}},
    "mappings": {"m": {"source": "A", "target": "B", "file": "m.map"}},
    "graph": [["A", "B", "m"]],
}


def _join_instance(rng: random.Random, n: int) -> dict:
    keys = max(2, n // 10)
    xs = rng.sample(range(100, 100 + 4 * n), n)
    zs = rng.sample(range(100, 100 + 4 * n), n)
    R = [(xs[i], 1 + i % keys) for i in range(n)]
    S = [(1 + i % keys, zs[i]) for i in range(n)]
    rng.shuffle(R)
    rng.shuffle(S)
    gx = {x: rng.randrange(10**6) for x, _ in R}
    f, g = {}, {}
    for x, y in R:
        for y2, z in S:
            if y2 == y:
                f[(x, y, z)] = rng.randrange(10**6)
                if x != z:
                    g[(x, z)] = gx[x]
    T = {(x, z, v) for (x, _, z), v in f.items()}
    U = {(x, w) for (x, _), w in g.items()}
    # 5% alternative skolem rows, an exact count so that every seed makes
    # the same number of saturation extras
    T |= {(x, z, v + 1 + rng.randrange(1000)) for x, z, v in rng.sample(sorted(T), round(len(T) / 20))}
    U |= {(x, w + 1 + rng.randrange(1000)) for x, w in rng.sample(sorted(U), round(len(U) / 20))}
    return {"R": R, "S": S, "f": f, "g": g, "T": T, "U": U}


def join_expectations(inst: dict) -> dict:
    """Image sizes, kernel sizes and the extras count by hash join."""
    by_key: dict = {}
    for y, z in inst["S"]:
        by_key.setdefault(y, []).append(z)
    t_count: dict = {}
    for x, z, _ in inst["T"]:
        t_count[(x, z)] = t_count.get((x, z), 0) + 1
    u_count: dict = {}
    for x, _ in inst["U"]:
        u_count[x] = u_count.get(x, 0) + 1
    t_image, u_image = set(), set()
    extras_t = extras_u = 0
    for x, y in inst["R"]:
        for z in by_key.get(y, ()):
            t_image.add((x, z, inst["f"][(x, y, z)]))
            extras_t += t_count[(x, z)] - 1
            if x != z:
                u_image.add((x, inst["g"][(x, z)]))
                extras_u += u_count[x] - 1
    return {
        "t_image": len(t_image),
        "u_image": len(u_image),
        "kernel": sorted([1, len({(x, z) for x, z, _ in t_image}), len({x for x, _ in u_image})]),
        "extras_t": extras_t,
        "extras": extras_t + extras_u,
        "args": len(inst["R"]) * len(inst["S"]),
        "vector_rows": 2 * len(inst["R"]) + 2 * len(inst["S"]),
    }


def _join_check(cmd: str, exp: dict):
    def check(out: str):
        data = json.loads(out)
        if cmd == "compile":
            return _expect(len(data["operations"]) == 2, "compile: expected 2 operations")
        if cmd == "eval":
            sizes = [len(c["image"]) for c in data["components"]]
            return _expect(
                data["satisfied"] and sizes == [exp["t_image"], exp["u_image"]],
                f"eval: image sizes {sizes}",
            )
        if cmd == "flux":
            sizes = sorted(len(m) for m in data["members"])
            return _expect(sizes == exp["kernel"], f"flux: kernel sizes {sizes}")
        if cmd == "saturate":
            return _expect(
                data["counts"] == {"extras": exp["extras"], "skipped": 0},
                f"saturate: counts {data['counts']}, expected {exp['extras']} extras",
            )
        if cmd == "pfunction":
            rows = sum(len(e["rows"]) for e in data["graph"])
            return _expect(
                len(data["graph"]) == exp["args"] and rows == exp["t_image"] + exp["extras_t"],
                f"pfunction: {len(data['graph'])} args, {rows} rows",
            )
        if cmd == "equal":
            return _expect(
                data["verdict"] == "equal" and not data["capped"], f"equal: {data['verdict']}"
            )
        if cmd == "parse":
            rows = len(data["relations"]["r_V"]["rows"])
            return _expect(rows == exp["vector_rows"], f"parse: {rows} vector rows")
        return _expect(data == {"valid": True, "violations": []}, "validate: not valid")

    return check


def _request_argv(cmd: str, d: Path) -> list:
    """argv for one subcommand on the project in ``d``."""
    project, interp = d / "project.json", d / "interp.json"
    if cmd == "compile":
        return _cli(cmd, project)
    if cmd in ("parse", "validate"):
        return _cli(cmd, project, "--instance", "a", mapping=None)
    if cmd == "pfunction":
        return _cli(cmd, project, "--op", "1", interp=interp)
    return _cli(cmd, project, interp=interp)


def _join_request(cmd: str, d: Path, exp: dict) -> Request:
    return Request(cmd, _request_argv(cmd, d), 0, _join_check(cmd, exp))


def build_join(seed: int, root: Path) -> Workload:
    rng = random.Random(f"join:{seed}")
    pool, instances = [], []
    for i, n in enumerate(JOIN_SIZES):
        inst = _join_instance(rng, n)
        d = root / f"join{i}"
        d.mkdir(parents=True)
        _write_json(d / "project.json", JOIN_PROJECT)
        _write_json(d / "a.json", {"schema": "A", "relations": {
            "R": _relation(("x", "y"), sorted(inst["R"])),
            "S": _relation(("y", "z"), sorted(inst["S"])),
        }})
        _write_json(d / "b.json", {"schema": "B", "relations": {
            "T": _relation(("x", "z", "v"), sorted(inst["T"])),
            "U": _relation(("x", "w"), sorted(inst["U"])),
        }})
        (d / "m.map").write_text(JOIN_MAPPING, encoding="utf-8")
        _write_json(d / "interp.json", {"source": "a", "target": "b", "skolem": {
            "f": {"entries": [[list(k), v] for k, v in sorted(inst["f"].items())]},
            "g": {"entries": [[list(k), v] for k, v in sorted(inst["g"].items())]},
        }})
        instances.append((d, join_expectations(inst)))
    for j, (cmd, count) in enumerate(JOIN_MIX):
        for k in range(count):
            pool.append(_join_request(cmd, *instances[(k * len(instances) // count + j) % len(instances)]))
    warmup = [_join_request(cmd, *instances[0]) for cmd in COMMANDS]
    rng.shuffle(pool)
    return Workload(pool, warmup, {"sizes": JOIN_SIZES})


# ---------------------------------------------------------------------------
# closure: flux --member against identity-copy projects

CLOSURE_VALUES = (0, 1, "a")
FOREIGN_VALUE = "zz"
BOUNDS = ("3,6,1500", "none,2,4000")
MAX_ARITY = {"3,6,1500": 6, "none,2,4000": 2}

# The kernels are the 50 of acceptance criterion 6 (tests/test_acceptance.py,
# seed 3301), minus those with no rows, whose closure is trivial, and those
# with more than 8 cells (rows x arity), whose bounded search alone takes
# seconds; kernel 22 (10 cells, about 1.6 s) stays as the one long search.
# Keeping the kernels fixed keeps the cost of a pass the same for every
# seed; the seed renames the values, draws the probes and orders the
# requests.
CATALOG_SEED = 3301
CATALOG_SIZE = 50
MAX_CELLS = 8
LONG_SEARCH = 22
# companions: two other subcommands on each project, fixed by the kernel's
# index, so that every subcommand has a median on this workload too.  They
# run as one block at the end of each pass: between exhaustive searches a
# 2 ms request's time swings with the state the search left behind.
COMPANIONS = ("compile", "eval", "saturate", "pfunction", "equal", "parse", "validate")


def random_kernel(rng: random.Random) -> list:
    """The criterion-6 kernel distribution: up to three members of arity
    1 or 2, each with up to three rows over {0, 1, "a"}."""
    members = []
    for _ in range(rng.randint(0, 3)):
        arity = rng.randint(1, 2)
        members.append(
            frozenset(
                tuple(rng.choice(CLOSURE_VALUES) for _ in range(arity))
                for _ in range(rng.randint(0, 3))
            )
        )
    return members


def _value_key(v):
    return (0, v) if isinstance(v, int) else (1, v)


def generators(members) -> list:
    """Kernel members in the order the closure names them g1, g2, ...:
    by arity, then by sorted rows."""
    def key(m):
        rows = sorted(tuple(_value_key(v) for v in r) for r in m)
        return (len(rows[0]) if rows else 0, rows)

    distinct = {frozenset(m) for m in members} - {frozenset({()})}
    return sorted(distinct, key=key)


def _parse_value(text: str):
    if text.startswith('"'):
        return json.loads(text)
    if text == "null":
        return None
    return int(text)


def eval_witness(expr: str, gens: list) -> set:
    """Every row set a witness expression can denote over the generators.
    ``select[i=2]`` reads both as a column and as the integer constant,
    because the closure prints the two alike."""

    def close(i):
        if expr[i:i + 1] != ")":
            raise ValueError(f"unreadable witness {expr!r} at {i}")

    def term(i):
        if expr.startswith("bottom", i):
            return {frozenset({()})}, i + 6
        if expr[i] == "g":
            j = i + 1
            while j < len(expr) and expr[j].isdigit():
                j += 1
            return {gens[int(expr[i + 1:j]) - 1]}, j
        if expr[i] == "(":
            left, i = term(i + 1)
            op, i = expr[i:i + 3], i + 3
            right, i = term(i)
            close(i)
            out = set()
            for a, b in itertools.product(left, right):
                out.add(frozenset(r + s for r in a for s in b) if op == " x " else a | b)
            return out, i + 1
        for name in ("select[", "project["):
            if expr.startswith(name, i):
                bracket = expr.index("](", i)
                spec = expr[i + len(name):bracket]
                inner, j = term(bracket + 2)
                close(j)
                return {r for m in inner for r in _view(name, spec, m)}, j + 1
        raise ValueError(f"unreadable witness {expr!r} at {i}")

    result, end = term(0)
    if end != len(expr):
        raise ValueError(f"trailing text in witness {expr!r}")
    return result


def _view(name: str, spec: str, member: frozenset) -> list:
    if name == "project[":
        seq = [int(p) - 1 for p in spec.split(",")]
        return [frozenset(tuple(r[j] for j in seq) for r in member)]
    col, rhs = spec.split("=", 1)
    c = int(col) - 1
    const = _parse_value(rhs)
    out = [frozenset(r for r in member if r[c] is not None and r[c] == const)]
    if rhs.isdigit():
        c2 = int(rhs) - 1
        out.append(frozenset(r for r in member if len(r) > c2 and r[c] is not None and r[c] == r[c2]))
    return out


def _depth1_view(rng: random.Random, gens: list, values: list, max_arity: int) -> frozenset:
    """A row set one selection, projection, product or union away from the
    generators."""
    m = rng.choice([g for g in gens if g])
    arity = len(next(iter(m)))
    choice = rng.randrange(5)
    if choice == 0:
        c = rng.randrange(arity)
        v = rng.choice(values)
        return frozenset(r for r in m if r[c] == v)
    if choice == 1 and arity == 2:
        return frozenset(r for r in m if r[0] == r[1])
    if choice == 2:
        seq = rng.sample(range(arity), rng.randint(1, arity))
        return frozenset(tuple(r[j] for j in seq) for r in m)
    partners = [g for g in gens if g and len(next(iter(g))) == arity]
    if choice == 3 and 2 * arity <= max_arity:
        other = rng.choice(partners)
        return frozenset(a + b for a in m for b in other)
    return m | rng.choice(partners)


def _closure_check(kind: str, members: list, probe: frozenset):
    gens = generators(members)
    expected_kernel = sorted(
        json.dumps(sorted([list(r) for r in m], key=lambda r: [_value_key(v) for v in r]))
        for m in gens + [frozenset({()})]
    )

    def check(out: str):
        data = json.loads(out)
        kernel = sorted(json.dumps(m) for m in data["members"])
        if kernel != expected_kernel:
            return "flux: kernel differs from the generated relations"
        verdict = data["member"]
        if verdict["found"]:
            if kind != "view":
                return f"flux: a {kind} probe was found ({verdict['witness']})"
            if probe not in eval_witness(verdict["witness"], gens):
                return f"flux: witness {verdict['witness']} does not give the probe"
        elif kind == "view" and not verdict["capped"]:
            return "flux: a derivable probe was not found and the search was not capped"
        return None

    return check


def _companion_check(cmd: str, members: list):
    def check(out: str):
        data = json.loads(out)
        if cmd == "eval":
            images = sorted(len(c["image"]) for c in data["components"])
            return _expect(
                data["satisfied"] and images == sorted(len(m) for m in members),
                "eval: identity copy is not satisfied",
            )
        if cmd == "saturate":
            return _expect(data["counts"] == {"extras": 0, "skipped": 0}, "saturate: extras")
        if cmd == "equal":
            return _expect(data["verdict"] == "equal", "equal: not equal")
        if cmd == "validate":
            return _expect(data["valid"], "validate: not valid")
        if cmd == "parse":
            cells = sum(len(r) for m in members for r in m)
            return _expect(len(data["relations"]["r_V"]["rows"]) == cells, "parse: rows")
        if cmd == "compile":
            return _expect(len(data["operations"]) == len(members), "compile: operations")
        return _expect(len(data["graph"]) == len(members[0]), "pfunction: graph size")

    return check


def _identity_project(d: Path, members: list) -> None:
    d.mkdir(parents=True)
    names = [f"{i}" for i in range(1, len(members) + 1)]
    cols = [tuple(f"c{j}" for j in range(1, len(next(iter(m), (0,))) + 1)) for m in members]
    # an empty member takes arity 1: its relation has no rows either way
    _write_json(d / "project.json", {
        "domain": [],
        "schemas": {
            "A": {"relations": {f"G{n}": list(c) for n, c in zip(names, cols)}},
            "B": {"relations": {f"H{n}": list(c) for n, c in zip(names, cols)}},
        },
        "instances": {"a": {"schema": "A", "file": "a.json"}, "b": {"schema": "B", "file": "b.json"}},
        "mappings": {"m": {"source": "A", "target": "B", "file": "m.map"}},
        "graph": [["A", "B", "m"]],
    })
    for inst, rel in (("a", "G"), ("b", "H")):
        _write_json(d / f"{inst}.json", {
            "schema": inst.upper(),
            "relations": {
                f"{rel}{n}": _relation(c, sorted(m, key=lambda r: [_value_key(v) for v in r]))
                for n, c, m in zip(names, cols, members)
            },
        })
    conjuncts = []
    for n, c in zip(names, cols):
        xs = ", ".join(f"x{j}" for j in range(1, len(c) + 1))
        conjuncts.append(f"forall {xs} . G{n}({xs}) -> H{n}({xs})")
    (d / "m.map").write_text(" &&\n".join(conjuncts) or "taut", encoding="utf-8")
    _write_json(d / "interp.json", {"source": "a", "target": "b"})


def closure_catalog() -> list:
    """(index, members) of the criterion-6 kernels the workload uses."""
    rng = random.Random(CATALOG_SEED)
    kernels = [random_kernel(rng) for _ in range(CATALOG_SIZE)]
    return [
        (i, members) for i, members in enumerate(kernels)
        if 1 <= sum(len(r) for m in members for r in m) <= MAX_CELLS or i == LONG_SEARCH
    ]


def build_closure(seed: int, root: Path) -> Workload:
    rng = random.Random(f"closure:{seed}")
    pool, companions, warmup = [], [], []
    for i, kernel in closure_catalog():
        rename = dict(zip(CLOSURE_VALUES, rng.sample(CLOSURE_VALUES, 3)))
        members = [frozenset(tuple(rename[v] for v in r) for r in m) for m in kernel]
        d = root / f"closure{i:02d}"
        _identity_project(d, members)
        gens = generators(members)
        values = sorted({v for m in members for r in m for v in r}, key=_value_key)
        project, interp = d / "project.json", d / "interp.json"
        # one probe a depth-1 view derives, and one search that cannot
        # succeed: too wide for the arity bound, or holding a value outside
        # the kernel.  The bounds of each probe are fixed per kernel, so
        # that the cost of a pass does not depend on the seed.
        bounds = BOUNDS[(i + 1) % 2]
        probes = [("view", bounds, _depth1_view(rng, gens, values, MAX_ARITY[bounds]))]
        bounds = BOUNDS[i % 2]
        if rng.random() < 0.5:
            width = MAX_ARITY[bounds] + 1
            probes.append(("wide", bounds, frozenset({tuple(rng.choice(values) for _ in range(width))})))
        else:
            row = [rng.choice(values) for _ in range(rng.randint(1, 2))]
            row[rng.randrange(len(row))] = FOREIGN_VALUE
            probes.append(("foreign", bounds, frozenset({tuple(row)})))
        for k, (kind, bounds, probe) in enumerate(probes):
            member_file = d / f"probe{k}.json"
            _write_json(member_file, sorted([list(r) for r in probe], key=lambda r: [_value_key(v) for v in r]))
            argv = _cli("flux", project, "--bounds", bounds, "--member", member_file, interp=interp)
            code = 0 if kind == "view" else 2
            pool.append(Request("flux", argv, code, _closure_check(kind, members, probe)))
        companions += [_companion_request(COMPANIONS[(i + k) % len(COMPANIONS)], d, members) for k in (0, 3)]
        if not warmup:
            warmup = [_companion_request(c, d, members) for c in COMPANIONS] + pool[-2:-1]
    rng.shuffle(pool)
    rng.shuffle(companions)
    return Workload(pool + companions, warmup, {"kernels": len(closure_catalog())})


def _companion_request(cmd: str, d: Path, members: list) -> Request:
    return Request(cmd, _request_argv(cmd, d), 0, _companion_check(cmd, members))


# ---------------------------------------------------------------------------
# corpus: many small projects, every subcommand, planted exit codes

# The corpus is a fixed pool generated from CORPUS_POOL_SEED, so that each
# request's stdout digest can be recorded once in golden_corpus.json; the
# run seed picks which projects a run uses and the order of the requests.
CORPUS_POOL_SEED = 20141405
CORPUS_POOL = 48
CORPUS_PER_RUN = 20
CORPUS_DOMAIN = (0, 1, 2, "a")
GOLDEN = Path(__file__).with_name("golden_corpus.json")


def _corpus_body(rng: random.Random, y0: int) -> tuple:
    """A random lhs over P, W, Q, the characteristic place C, comparisons,
    notnull and hash, together with the variables it binds.  Every choice
    holds at the planted witness x = x0 < y = y0."""
    if rng.random() < 0.25:
        lits, bound = [f"P(x, {y0})"], ["x"]
    elif rng.random() < 0.3:
        lits, bound = ["W(x, y)", "notnull(y)"], ["x", "y"]
    else:
        lits, bound = ["P(x, y)"], ["x", "y"]
    options = ["Q(x)", "C(x)"]
    if "y" in bound:
        options += ["not Q(y)", "x != y", "x < y", "hash(x, y) != hash(y, x)"]
    lits += [o for o in options if rng.random() < 0.35]
    rng.shuffle(lits)
    return " & ".join(lits), bound


def _corpus_tgds(rng: random.Random, y0) -> tuple:
    """Plain tgds; a head-only variable becomes a skolem f1, f2, ..."""
    conjuncts, skolems = [], 0
    for _ in range(rng.randint(1, 3)):
        body, bound = _corpus_body(rng, y0)
        v = rng.choice(bound)
        head = rng.choice([f"T({bound[0]}, {bound[-1]})", f"T({v}, z)", f"V({v})", 'V("a")'])
        skolems += head.endswith(", z)")
        conjuncts.append(f"forall {', '.join(bound)} . {body} -> {head}")
    return " &&\n".join(conjuncts) + "\n", skolems


def _corpus_sotgd(rng: random.Random, y0) -> str:
    conjuncts = []
    for _ in range(rng.randint(1, 2)):
        body, bound = _corpus_body(rng, y0)
        v = rng.choice(bound)
        head = rng.choice([
            f"T({v}, f({v}))", f"T(f({bound[-1]}), {bound[0]})", f"V(g({v}))",
            # saturation skips: a constant position, and one skolem twice
            f'T(g({v}), "a")', f"T(f({v}), f({v}))",
        ])
        conjuncts.append(f"forall {', '.join(bound)} . {body} -> {head}")
    return "exists f, g .\n" + "\n&& ".join(conjuncts) + "\n"


def _corpus_project(rng: random.Random, d: Path) -> list:
    d.mkdir(parents=True)
    dom = CORPUS_DOMAIN
    x0, y0 = rng.choice([(0, 1), (0, 2), (1, 2)])
    P = {(x0, y0)} | {(rng.choice(dom), rng.choice(dom)) for _ in range(rng.randint(2, 6))}
    W = {(x0, y0)} | {(rng.choice(dom), rng.choice(dom + (None,))) for _ in range(rng.randint(2, 5))}
    Q = ({v for v in dom if rng.random() < 0.5} | {x0}) - {y0}
    C = {v for v in dom if rng.random() < 0.5} | {x0}
    keys = rng.sample(dom, rng.randint(2, 4))
    # K's values stay integers: two key violations whose witnesses mix int
    # and str values crash validation_to_json's sort (a known defect, kept
    # visible by test_known_defect_mixed_witness_sort)
    K = {(k, rng.choice(dom[:3])) for k in keys}
    L = set(keys) | {v for v in dom if rng.random() < 0.3}
    dup = next(iter(sorted(K, key=str)))
    K_bad = K | {(dup[0], next(v for v in dom[:3] if v != dup[1]))}
    L_bad = L - {sorted(keys, key=str)[-1]}

    def source(k_rows, l_rows):
        return {"schema": "A", "relations": {
            "P": _relation(("p1", "p2"), sorted(P, key=str)),
            "Q": _relation(("q1",), sorted([(v,) for v in Q], key=str)),
            "W": _relation(("w1", "w2"), sorted(W, key=str)),
            "K": _relation(("k", "v"), sorted(k_rows, key=str)),
            "L": _relation(("l",), sorted([(v,) for v in l_rows], key=str)),
        }}

    _write_json(d / "a.json", source(K, L))
    _write_json(d / "a_bad.json", source(K_bad, L_bad))
    # the full product satisfies every mapping whose head values stay in
    # the domain; the empty target violates any mapping with an image
    _write_json(d / "b.json", {"schema": "B", "relations": {
        "T": _relation(("t1", "t2"), itertools.product(dom, dom)),
        "V": _relation(("v1",), [(v,) for v in dom]),
    }})
    _write_json(d / "b_empty.json", {"schema": "B", "relations": {}})
    _write_json(d / "e.json", {"schema": "E", "relations": {
        "C": _relation(("c1",), sorted([(v,) for v in C], key=str)),
    }})
    tgds, skolems = _corpus_tgds(rng, y0)
    (d / "m1.map").write_text(tgds, encoding="utf-8")
    (d / "m2.map").write_text(_corpus_sotgd(rng, y0), encoding="utf-8")
    (d / "m_xy.map").write_text("forall x, y . P(x, y) -> T(x, y)\n", encoding="utf-8")
    (d / "m_yx.map").write_text("forall x, y . P(x, y) -> T(y, x)\n", encoding="utf-8")
    (d / "m_q.map").write_text("forall x . Q(x) -> V(x)\n", encoding="utf-8")
    maps = ("m1", "m2", "m_xy", "m_yx", "m_q")
    _write_json(d / "project.json", {
        "domain": [],
        "schemas": {
            "A": {
                "relations": {"P": ["p1", "p2"], "Q": ["q1"], "W": ["w1", "w2"], "K": ["k", "v"], "L": ["l"]},
                "constraints": "forall k, v, w . K(k, v) & K(k, w) -> v = w\n&& forall k, v . K(k, v) -> L(k)",
            },
            "B": {"relations": {"T": ["t1", "t2"], "V": ["v1"]}},
            "E": {"relations": {"C": ["c1"]}},
        },
        "instances": {
            name: {"schema": name[0].upper(), "file": f"{name}.json"}
            for name in ("a", "a_bad", "b", "b_empty", "e")
        },
        "mappings": {m: {"source": "A", "target": "B", "file": f"{m}.map"} for m in maps},
        "graph": [["A", "B", "m1"]],
    })

    def table():
        entries = [[[rng.choice(dom)], rng.choice(dom)] for _ in range(3)]
        unique = {json.dumps(a): [a, v] for a, v in entries}
        return {"entries": [unique[k] for k in sorted(unique)], "default": rng.choice(dom)}

    skolem = {f"f{i}": {"default": rng.choice(dom)} for i in range(1, skolems + 1)}
    skolem.update({"f": table(), "g": table()})
    for name, target in (("i_ok", "b"), ("i_bad", "b_empty")):
        _write_json(d / f"{name}.json", {"source": "a", "target": target, "extras": ["e"], "skolem": skolem})
    _write_json(d / "probe_in.json", sorted([list(r) for r in P if r[0] == x0], key=str))
    _write_json(d / "probe_out.json", [[x0, "zz"]])

    p, ok, bad = d / "project.json", d / "i_ok.json", d / "i_bad.json"
    return [
        ("compile", _cli("compile", p, mapping="m1"), 0),
        ("compile", _cli("compile", p, mapping="m2"), 0),
        ("compile", _cli("compile", p, mapping="missing"), 3),
        ("eval", _cli("eval", p, mapping="m1", interp=ok), 0),
        ("eval", _cli("eval", p, mapping="m2", interp=ok), 0),
        ("eval", _cli("eval", p, mapping="m1", interp=bad), 1),
        ("saturate", _cli("saturate", p, mapping="m1", interp=ok), 0),
        ("saturate", _cli("saturate", p, mapping="m2", interp=bad), 1),
        ("pfunction", _cli("pfunction", p, "--op", "1", mapping="m2", interp=ok), 0),
        ("flux", _cli("flux", p, mapping="m1", interp=ok), 0),
        ("flux", _cli("flux", p, "--member", d / "probe_in.json", mapping="m_xy", interp=ok), 0),
        ("flux", _cli("flux", p, "--bounds", "2,2,200", "--member", d / "probe_out.json",
                      mapping="m_xy", interp=ok), 2),
        ("flux", _cli("flux", p, "--bounds", "1,2", mapping="m1", interp=ok), 3),
        ("equal", _cli("equal", p, mapping="m1", interp=ok), 0),
        ("equal", _cli("equal", p, "--mapping2", "m_yx", "--interp2", ok, mapping="m_xy", interp=ok), 0),
        ("equal", _cli("equal", p, "--mapping2", "m_q", "--interp2", ok, mapping="m_xy", interp=ok), 1),
        ("parse", _cli("parse", p, "--instance", "a", mapping=None), 0),
        ("parse", _cli("parse", p, "--instance", "a", "--roundtrip", mapping=None), 0),
        ("validate", _cli("validate", p, "--instance", "a", mapping=None), 0),
        ("validate", _cli("validate", p, "--instance", "a_bad", mapping=None), 1),
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def corpus_pool(root: Path, indices) -> dict:
    """Write the chosen projects of the fixed pool; key -> (cmd, argv, code)."""
    rng = random.Random(CORPUS_POOL_SEED)
    out = {}
    for i in range(CORPUS_POOL):
        state = random.Random(rng.getrandbits(64))
        if i not in indices:
            continue
        for j, (cmd, argv, code) in enumerate(_corpus_project(state, root / f"corpus{i:02d}")):
            out[f"{i:02d}.{j:02d}"] = (cmd, argv, code)
    return out


def _corpus_check(want: str):
    return lambda out: _expect(digest(out) == want, "stdout digest differs from the golden digest")


def build_corpus(seed: int, root: Path) -> Workload:
    rng = random.Random(f"corpus:{seed}")
    chosen = sorted(rng.sample(range(CORPUS_POOL), CORPUS_PER_RUN))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pool = [
        Request(cmd, argv, code, _corpus_check(golden[key]))
        for key, (cmd, argv, code) in corpus_pool(root, set(chosen)).items()
    ]
    first = pool[:20]
    rng.shuffle(pool)
    return Workload(pool, first, {"projects": chosen})


BUILD = {"join": build_join, "closure": build_closure, "corpus": build_corpus}
