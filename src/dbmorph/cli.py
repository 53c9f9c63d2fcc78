"""Command-line interface.

Eight batch subcommands over a project file; all outputs are canonical
JSON (sorted keys, sorted rows), written to --out or stdout.  Exit codes:
0 success / equal / valid, 1 unequal / violation, 2 unknown-within-bounds,
3 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dsl import pretty_term
from .errors import DbmorphError, PreconditionError
from .flux import (
    EQUAL,
    UNEQUAL,
    ClosureBounds,
    flux_equal,
    flux_kernel,
    in_closure,
    require_shared_endpoints,
)
from .interp import InstanceMorphism, alpha_star, satisfies
from .irdb import parse_database
from .logic import Const, validate_instance
from .model import NULL, Schema
from .operads import build_equal_var_set
from .project import (
    arrow_to_json,
    canonical_json,
    compile_project_mapping,
    instance_to_json,
    kernel_to_json,
    load_interpretation_file,
    load_member_file,
    load_project,
    morphism_to_json,
    saturation_to_json,
    validation_to_json,
)
from .saturation import derive_pfunction, saturate

__all__ = ["main"]


def _emit(args, payload) -> None:
    text = canonical_json(payload)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except ValueError as exc:  # a NUL in the name, which no file system takes
            raise DbmorphError(f"{args.out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _bounds(spec: "str | None") -> ClosureBounds:
    if not spec:
        return ClosureBounds()
    parts = spec.split(",")
    if len(parts) != 3:
        raise DbmorphError("--bounds takes depth,arity,cap (depth may be 'none')")
    try:
        depth = None if parts[0].strip().lower() == "none" else int(parts[0])
        return ClosureBounds(depth, int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise DbmorphError(f"--bounds {spec}: {exc}") from None


def _trace_morphism(morphism: InstanceMorphism, stream) -> None:
    """Print each component's evaluation as it runs: the equal-variable
    set, then per tuple of the argument product either the failed join
    guard or the assignment, the guard outcomes up to the first failure,
    and the head value.  The trace runs the component's yielding
    evaluation, which calls back as the join reaches each tuple, before
    evaluating it: the product tuples the join passed over since the last
    one failed the join guard.  Constants print as the DSL writes them."""

    def show(row) -> str:
        return "<" + ", ".join(pretty_term(Const(v)) for v in row) + ">"

    for component in morphism.components:
        op = component.op
        rendered = sorted(sorted(group) for group in build_equal_var_set(op))
        print(f"{op.name}: S = {rendered}", file=stream)
        product = component.domain_product()

        def passed_over(reached, product=product) -> None:
            for args in product:
                if args == reached:
                    return
                print(f"  ({', '.join(map(show, args))}) join guard failed -> <>", file=stream)

        # running the evaluations to their end fills the graph
        for args, g, checks, out in component.evaluations(passed_over):
            shown = ", ".join(map(show, args))
            bound = ", ".join(f"{k}={pretty_term(Const(v))}" for k, v in g.items())
            marks = " ".join("[ok]" if holds else "[fail]" for holds in checks)
            suffix = f" guards {marks}" if checks else ""
            print(f"  ({shown}) g: {bound}{suffix} -> {show(out)}", file=stream)
        passed_over(None)


def cmd_compile(args) -> int:
    project = load_project(args.project)
    arrow = compile_project_mapping(project, args.mapping)
    _emit(args, arrow_to_json(arrow))
    return 0


def _arrow_and_interp(args):
    project = load_project(args.project)
    arrow = compile_project_mapping(project, args.mapping)
    it = load_interpretation_file(args.interp, project)
    return project, arrow, it


def cmd_eval(args) -> int:
    project, arrow, it = _arrow_and_interp(args)
    morphism = alpha_star(it, arrow)
    if args.verbose:
        _trace_morphism(morphism, sys.stderr)
    report = satisfies(morphism)
    _emit(args, morphism_to_json(morphism, report))
    return 0 if report.satisfied else 1


def cmd_saturate(args) -> int:
    project, arrow, it = _arrow_and_interp(args)
    sat = saturate(it, arrow)
    _emit(args, saturation_to_json(sat))
    return 0


def cmd_pfunction(args) -> int:
    project, arrow, it = _arrow_and_interp(args)
    sat = saturate(it, arrow)
    pf = derive_pfunction(sat, args.op)
    _emit(args, pf)
    return 0


def cmd_flux(args) -> int:
    bounds = _bounds(args.bounds)
    project, arrow, it = _arrow_and_interp(args)
    morphism = alpha_star(it, arrow)
    kernel = flux_kernel(morphism)
    payload = kernel_to_json(kernel)
    code = 0
    if args.member:
        member = load_member_file(args.member)
        verdict = in_closure(member, kernel, bounds)
        payload["member"] = {
            "found": verdict.found,
            "witness": verdict.witness,
            "capped": verdict.capped,
        }
        code = 0 if verdict.found else 2
    _emit(args, payload)
    return code


def cmd_equal(args) -> int:
    project, arrow, it = _arrow_and_interp(args)
    bounds = _bounds(args.bounds)
    if args.mapping2 or args.interp2:
        if not (args.mapping2 and args.interp2):
            raise DbmorphError("--mapping2 and --interp2 go together")
        arrow2 = compile_project_mapping(project, args.mapping2)
        it2 = load_interpretation_file(args.interp2, project)
        m1 = alpha_star(it, arrow)
        m2 = alpha_star(it2, arrow2)
    else:
        sat = saturate(it, arrow)
        m1, m2 = sat.base, sat
    require_shared_endpoints(m1, m2)
    left, right = flux_kernel(m1), flux_kernel(m2)
    comparison = flux_equal(left, right, bounds)
    payload = {
        "verdict": comparison.verdict,
        "capped": comparison.capped,
        "left": kernel_to_json(left),
        "right": kernel_to_json(right),
    }
    _emit(args, payload)
    if comparison.verdict == EQUAL:
        return 0
    if comparison.verdict == UNEQUAL:
        return 1
    return 2


def _reconstruct(schema: Schema, vector_rows) -> dict:
    grouped: dict = {}
    for r_name, t_index, a_name, value in vector_rows:
        grouped.setdefault((r_name, t_index), {})[a_name] = value
    rows: dict = {}
    for (r_name, _), cells in grouped.items():
        sym = schema.symbol(r_name)
        row = tuple(cells.get(col, NULL) for col in sym.columns)
        rows.setdefault(r_name, set()).add(row)
    return rows


def cmd_parse(args) -> int:
    project = load_project(args.project)
    inst = project.instance(args.instance)
    vector = parse_database(inst)
    payload = instance_to_json(vector)
    code = 0
    if args.roundtrip:
        rebuilt = _reconstruct(inst.schema, vector.rows("r_V"))
        mismatches = []
        for sym in inst.schema.ordinary_symbols():
            original = inst.rows(sym.name)
            got = frozenset(rebuilt.get(sym.name, set()))
            for row in sorted(original - got, key=str):
                mismatches.append({"relation": sym.name, "missing": row})
            for row in sorted(got - original, key=str):
                mismatches.append({"relation": sym.name, "spurious": row})
        payload["roundtrip"] = {"ok": not mismatches, "mismatches": mismatches}
        code = 0 if not mismatches else 1
    _emit(args, payload)
    return code


def cmd_validate(args) -> int:
    project = load_project(args.project)
    inst = project.instance(args.instance)
    report = validate_instance(inst, inst.schema.constraints, project.domain)
    _emit(args, validation_to_json(report))
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbmorph",
        description="Compile schema mappings to operad arrows and evaluate "
        "them over database instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mapping=True, interp=True):
        p.add_argument("--project", required=True, help="project JSON file")
        if mapping:
            p.add_argument("--mapping", required=True, help="mapping name")
        if interp:
            p.add_argument("--interp", required=True, help="interpretation JSON file")
        p.add_argument("--out", help="write the JSON result here instead of stdout")

    p = sub.add_parser("compile", help="compile a mapping to an operad arrow")
    common(p, interp=False)

    p = sub.add_parser("eval", help="evaluate a mapping under an interpretation")
    common(p)
    p.add_argument("--verbose", action="store_true", help="per-tuple trace on stderr")

    p = sub.add_parser("saturate", help="enumerate the saturation extras")
    common(p)

    p = sub.add_parser("pfunction", help="derive the set-valued p-function")
    common(p)
    p.add_argument("--op", type=int, required=True, help="operation index, 1-based")

    p = sub.add_parser("flux", help="information-flux kernel and membership")
    common(p)
    p.add_argument("--bounds", help="closure bounds depth,arity,cap")
    p.add_argument("--member", help="JSON rows file to test against the flux")

    p = sub.add_parser("equal", help="morphism equality via flux kernels")
    common(p)
    p.add_argument("--mapping2", help="second mapping name")
    p.add_argument("--interp2", help="second interpretation file")
    p.add_argument("--bounds", help="closure bounds depth,arity,cap")

    p = sub.add_parser("parse", help="flatten an instance into the vector relation")
    p.add_argument("--project", required=True)
    p.add_argument("--instance", required=True, help="instance name")
    p.add_argument("--roundtrip", action="store_true", help="verify reconstruction")
    p.add_argument("--out")

    p = sub.add_parser("validate", help="check an instance against its constraints")
    p.add_argument("--project", required=True)
    p.add_argument("--instance", required=True, help="instance name")
    p.add_argument("--out")

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code else 0
    try:
        # looked up per call, so a rebound cmd_* handler is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DbmorphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
