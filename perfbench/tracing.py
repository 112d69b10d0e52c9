"""Per-layer spans and counts, recorded from outside the program.

:class:`Tracer` replaces chosen functions of the ``geodetic`` modules with
wrappers, at every module attribute that holds the function (so both
``geodetic.graph.is_geodetic`` and the copy imported into ``geodetic.fpt``
are wrapped).  Each wrapper records a span (name, start, end, parent span)
and, for some functions, a count read from its arguments or result.  A
target that no longer exists is listed as missing instead of failing, and a
count hook that no longer fits the program is listed as broken.
"""

from __future__ import annotations

import sys
import time

# (layer span name, module, attribute)
SPANNED = (
    ("graph.parse", "geodetic.graph", "parse_graph"),
    ("graph.verify", "geodetic.graph", "is_geodetic"),
    ("graph.verify", "geodetic.graph", "interval_closure"),
    ("graph.diameter", "geodetic.graph", "diameter"),
    ("reduction.reduce", "geodetic.reduction", "reduce_to_fixpoint"),
    ("reduction.rule_scan", "geodetic.reduction", "apply_collapse"),
    ("reduction.rule_scan", "geodetic.reduction", "apply_twin"),
    ("reduction.rule_scan", "geodetic.reduction", "apply_shortcut"),
    ("reduction.rule_scan", "geodetic.reduction", "apply_margin"),
    ("reduction.rule_scan", "geodetic.reduction", "apply_loop_prune"),
    ("reduction.feg", "geodetic.reduction", "build_feg"),
    ("reduction.lift", "geodetic.reduction", "lift_witness"),
    ("fpt.prepare", "geodetic.fpt", "prepare"),
    ("fpt.enumerate", "geodetic.fpt", "_effective_items"),
    ("fpt.apply", "geodetic.fpt", "apply_guess"),
    ("fpt.ilp_build", "geodetic.fpt", "emit_ilp"),
    ("ilp.solve", "geodetic.ilp", "solve"),
)
# called too often for a span each: counted only
COUNTED = (("fpt.candidate", "geodetic.fpt", "candidate_size"),)

# inclusive time of the outermost span of each name, in ms
INCLUSIVE_MS = {
    "graph.verify_ms": "graph.verify",
    "graph.parse_ms": "graph.parse",
    "graph.diameter_ms": "graph.diameter",
    "reduction.reduce_ms": "reduction.reduce",
    "reduction.rule_scan_ms": "reduction.rule_scan",
    "reduction.feg_ms": "reduction.feg",
    "reduction.lift_ms": "reduction.lift",
    "fpt.prepare_ms": "fpt.prepare",
    "fpt.ilp_build_ms": "fpt.ilp_build",
    "ilp.solve_ms": "ilp.solve",
}
CALLS = {
    "reduction.feg_calls": "reduction.feg",
    "fpt.guesses_generated": "fpt.candidate",
    "fpt.guesses_applied": "fpt.apply",
    "fpt.guesses_to_ilp": "fpt.ilp_build",
    "ilp.calls": "ilp.solve",
}


def _interval_sources(tracer: "Tracer", args: tuple, result) -> None:
    tracer.add("graph.verify_sources", len(set(args[1])))


def _reduction_result(tracer: "Tracer", args: tuple, result) -> None:
    tracer.add("reduction.rules_fired", len(result.trace))
    tracer.add("reduction.kernel_n", result.graph.n)


def _ilp_size(tracer: "Tracer", args: tuple, result) -> None:
    model = args[0]
    tracer.add("ilp.nodes", result.nodes)
    tracer.peak("ilp.vars_max", len(model.variables))
    tracer.peak("ilp.rows_max", len(model.constraints))


HOOKS = {
    ("geodetic.graph", "interval_closure"): _interval_sources,
    ("geodetic.reduction", "reduce_to_fixpoint"): _reduction_result,
    ("geodetic.ilp", "solve"): _ilp_size,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.broken_hooks: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _spanned(self, name: str, fn, hook, hook_name: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if hook is _interval_sources and len(args) > 1:
                # a one-shot iterable would be spent by counting it
                args = (args[0], tuple(args[1]), *args[2:])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.broken_hooks.add(hook_name)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "geodetic" or key.startswith("geodetic."))
        ]
        targets = [(t, True) for t in SPANNED] + [(t, False) for t in COUNTED]
        for (name, modname, attr), spanned in targets:
            fn = getattr(sys.modules.get(modname), attr, None)
            if not callable(fn):
                self.missing.append(f"{modname}.{attr}")
                continue
            if spanned:
                hook = HOOKS.get((modname, attr))
                wrapper = self._spanned(name, fn, hook, f"{modname}.{attr}")
            else:
                wrapper = self._counted(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer totals: inclusive and self time per span name, calls."""
        names = [s[0] for s in self.spans]
        child_ns = [0] * len(self.spans)
        enclosing: list[frozenset] = []
        per_name: dict[str, dict] = {}
        top_ns = 0
        for sid, (name, start, end, parent) in enumerate(self.spans):
            took = end - start
            if parent < 0:
                enclosing.append(frozenset())
                top_ns += took
            else:
                child_ns[parent] += took
                enclosing.append(enclosing[parent] | {names[parent]})
            agg = per_name.setdefault(name, {"calls": 0, "outer_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            if name not in enclosing[sid]:
                agg["outer_ns"] += took
        for sid, (name, start, end, _parent) in enumerate(self.spans):
            per_name[name]["self_ns"] += end - start - child_ns[sid]
        return {
            "per_name": per_name,
            "counts": dict(self.counts),
            "top_level_ns": top_ns,
            "missing": list(self.missing),
            "broken_hooks": sorted(self.broken_hooks),
        }


def layer_metrics(summary: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced pass, by their benchmark names.

    Wall times are summed op times: of the traced pass, and of the
    unhindered untraced pass (each op's fastest untraced time).  What the
    spans do not cover of the traced pass is ``cli.other_ms``; the
    difference of the two walls is the overhead.
    """
    per_name = summary["per_name"]
    counts = summary["counts"]

    def stat(name: str, field: str) -> float:
        return per_name.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for metric, name in INCLUSIVE_MS.items():
        out[metric] = stat(name, "outer_ns") / 1e6
    out["fpt.enumerate_ms"] = stat("fpt.enumerate", "self_ns") / 1e6
    for metric, name in CALLS.items():
        out[metric] = counts.get(name, 0) if name == "fpt.candidate" else stat(name, "calls")
    for key in ("graph.verify_sources", "reduction.rules_fired", "reduction.kernel_n",
                "ilp.nodes", "ilp.vars_max", "ilp.rows_max"):
        out[key] = counts.get(key, 0)
    generated = out["fpt.guesses_generated"]
    out["fpt.guess_yield"] = out["fpt.guesses_to_ilp"] / generated if generated else 0.0
    out["cli.other_ms"] = traced_wall_s * 1e3 - summary["top_level_ns"] / 1e6
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.missing_names"] = len(summary["missing"]) + len(summary["broken_hooks"])
    return out


UNITS = {
    **{metric: "ms" for metric in INCLUSIVE_MS},
    "fpt.enumerate_ms": "ms",
    **{metric: "count" for metric in CALLS},
    "graph.verify_sources": "count",
    "reduction.rules_fired": "count",
    "reduction.kernel_n": "count",
    "ilp.nodes": "count",
    "ilp.vars_max": "count",
    "ilp.rows_max": "count",
    "fpt.guess_yield": "ratio",
    "cli.other_ms": "ms",
    "trace.overhead_s": "s",
    "trace.missing_names": "count",
}
