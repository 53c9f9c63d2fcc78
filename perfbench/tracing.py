"""Spans and counts around dbmorph's public functions, for the traced run.

``Tracer.install()`` replaces every public function of each dbmorph module
(its ``__all__``, plus the ``cmd_*`` handlers and helpers of ``cli``)
with a wrapper that records a span, and rebinds the name in every dbmorph
module that imported it, so calls from ``dbmorph.cli`` and
``dbmorph.saturation`` are seen too.  ``ComponentFunction.graph`` and
``ExtraFunction.image`` are wrapped on their classes.  ``uninstall()``
puts the originals back.  Nothing under ``src/`` changes.

Per-row helpers (``PER_ROW``) are left alone: they run once per tuple,
value or term, so a wrapper would cost more than their work, and their
time stays in the self time of the function that called them.

A span is (name, start, end, parent span index, request id); spans stay in
memory until ``dump()``.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "project", "dsl", "logic", "operads", "interp", "saturation", "flux", "irdb")

PER_ROW = frozenset({
    "interp.eval_term", "interp.eval_guard", "interp.component_assignment",
    "interp.apply_component", "interp.apply_v",
    "logic.hash_symbol", "logic.char_symbol", "logic.literal_terms", "logic.eval_comparison",
    "dsl.pretty_term", "dsl.pretty_literal", "dsl.pretty_atom",
    "operads.build_equal_var_set", "operads.simple_var_positions", "operads.cmp",
    "project.value_to_json", "project.value_from_json", "project.rows_to_json",
    "irdb.hash_tuple", "irdb.parse_tuple",
})
CLI_EXTRA = (
    "_build_parser", "_emit", "_bounds", "_reconstruct", "_arrow_and_interp",
    "cmd_compile", "cmd_eval", "cmd_saturate", "cmd_pfunction", "cmd_flux",
    "cmd_equal", "cmd_parse", "cmd_validate",
)

# per-layer self-time metrics: metric -> span names it sums
SELF_GROUPS = {
    "project.load.self_s": (
        "project.load_project", "project.load_instance_file",
        "project.load_instance", "project.load_interpretation_file",
    ),
    "project.serialize.self_s": (
        "project.canonical_json", "project.instance_to_json", "project.arrow_to_json",
        "project.morphism_to_json", "project.kernel_to_json", "project.saturation_to_json",
        "project.pfunction_to_json", "project.validation_to_json",
    ),
    "dsl.parse_mapping.self_s": ("dsl.parse_mapping",),
    "logic.normalize.self_s": ("logic.skolemize", "logic.normalize", "logic.hoist_constants"),
    "logic.validate_instance.self_s": ("logic.validate_instance",),
    "operads.compile.self_s": ("operads.compile_source", "operads.make_operads"),
    "interp.graph.self_s": ("interp.ComponentFunction.graph",),
    "interp.satisfies.self_s": ("interp.satisfies",),
    "saturation.saturate.self_s": ("saturation.saturate",),
    "saturation.extra_image.self_s": ("saturation.ExtraFunction.image",),
    "saturation.pfunction.self_s": ("saturation.derive_pfunction",),
    "flux.kernel.self_s": ("flux.flux_kernel",),
    "flux.closure.self_s": ("flux.closure_set", "flux.in_closure", "flux.flux_equal"),
    "irdb.parse_database.self_s": ("irdb.parse_database",),
}
COUNTS = (
    "project.bytes_out", "dsl.bytes_in", "logic.violations", "operads.operations",
    "interp.graph_builds", "interp.args_enumerated", "interp.image_rows",
    "saturation.triggers", "saturation.extras", "saturation.skipped",
    "flux.closure_calls", "flux.closure_members", "irdb.vector_rows",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list = []
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if after:
                after(args, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n.startswith("dbmorph") and m}
        hooks = self._hooks()
        for layer in LAYERS:
            mod = modules[f"dbmorph.{layer}"]
            names = list(mod.__all__) + (list(CLI_EXTRA) if layer == "cli" else [])
            for attr in names:
                fn = getattr(mod, attr)
                span = f"{layer}.{attr}"
                if (
                    not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or span in PER_ROW
                ):
                    continue
                wrapper = self._wrap(span, fn, hooks.get(span))
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, key, wrapper)
        interp, saturation = modules["dbmorph.interp"], modules["dbmorph.saturation"]
        image = saturation.ExtraFunction.image
        self._set(saturation.ExtraFunction, "image", self._wrap("saturation.ExtraFunction.image", image))
        # graph() is also called once per tuple to read the cached graph;
        # only the call that builds it gets a span
        graph = interp.ComponentFunction.graph
        build = self._wrap("interp.ComponentFunction.graph", graph, hooks["interp.ComponentFunction.graph"])
        self._set(
            interp.ComponentFunction, "graph",
            lambda comp: graph(comp) if comp._graph is not None else build(comp),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counts, taken at the same boundaries as the spans ------------------

    def _hooks(self) -> dict:
        c = self.counts
        from dbmorph.logic import FuncKind, term_functions
        from dbmorph.interp import ComponentFunction

        graph = ComponentFunction.graph

        def skolem_headed(op):
            return any(
                f.kind is FuncKind.SKOLEM for t in op.target_terms for f in term_functions(t)
            )

        def graph_after(args, result):
            c["interp.graph_builds"] += 1
            c["interp.args_enumerated"] += len(result)
            c["interp.image_rows"] += sum(1 for out in result.values() if out != ())

        def saturate_after(args, sat):
            c["saturation.extras"] += len(sat.extras)
            c["saturation.skipped"] += len(sat.skipped)
            for comp in sat.base.components:
                if skolem_headed(comp.op):
                    # the graph is built by now; the unwrapped call reuses it
                    c["saturation.triggers"] += sum(1 for o in graph(comp).values() if o != ())

        def closure_after(args, result):
            c["flux.closure_calls"] += 1
            c["flux.closure_members"] += len(result.members)
            c["flux.closure_capped"] += result.capped

        def in_closure_after(args, verdict):
            c["flux.in_closure_calls"] += 1
            c["flux.in_closure_found"] += verdict.found

        def add(key, size):
            def after(args, result):
                c[key] += size(args, result)
            return after

        return {
            "interp.ComponentFunction.graph": graph_after,
            "saturation.saturate": saturate_after,
            "flux.closure_set": closure_after,
            "flux.in_closure": in_closure_after,
            "project.canonical_json": add("project.bytes_out", lambda a, r: len(r.encode())),
            "dsl.parse_mapping": add("dsl.bytes_in", lambda a, r: len(a[0].encode())),
            "logic.validate_instance": add("logic.violations", lambda a, r: len(r.violations)),
            "operads.compile_source": add("operads.operations", lambda a, r: len(r.operations)),
            "irdb.parse_database": add("irdb.vector_rows", lambda a, r: len(r.rows("r_V"))),
        }

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> total self time in seconds."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics, per request, from the spans and counts."""
        selfs = self.self_times()
        total = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        c = self.counts
        out = {"cli.self_s": sum(t for n, t in selfs.items() if n.startswith("cli."))}
        for metric, names in SELF_GROUPS.items():
            out[metric] = sum(selfs.get(n, 0.0) for n in names)
        for key in COUNTS:
            out[key] = c[key]
        out = {k: v / requests for k, v in out.items()}
        out["interp.join_pass_ratio"] = _ratio(c["interp.image_rows"], c["interp.args_enumerated"])
        out["saturation.extra_yield"] = _ratio(
            c["saturation.extras"], c["saturation.extras"] + c["saturation.skipped"]
        )
        out["flux.capped_ratio"] = _ratio(c["flux.closure_capped"], c["flux.closure_calls"])
        out["flux.found_ratio"] = _ratio(c["flux.in_closure_found"], c["flux.in_closure_calls"])
        for layer in LAYERS:
            busy = sum(t for n, t in selfs.items() if n.split(".", 1)[0] == layer)
            out[f"{layer}.self_share"] = _ratio(busy, total)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name start end parent request\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(a, b) -> float:
    return a / b if b else 0.0
