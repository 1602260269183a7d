"""Span tracing from outside the program.

``Tracer.install`` wraps the public functions of each dompack module in a
span and rebinds every name that points at the original, including the
copies that other modules made with ``from .graph import ...``; without that
the calls through those copies would escape their spans.  ``uninstall``
puts the originals back.

Spans are grouped by layer (``graph.bfs``, ``oracles.check``, ...).  A
group's self time is the time inside its spans minus the time inside their
child spans, so the self times of all groups add up to the time of the
outermost span (``cli.main``).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# Per module: explicit groups for chosen functions, then the group for every
# other public function of the module.  Rewrite rules and the dominating-pair
# test are wrapped too; they count towards the driver that calls them.
LAYERS = {
    "graph": ({
        "from_graph6": "graph.g6_decode",
        "to_graph6": "graph.g6_encode",
        "power2_conflict_graph": "graph.conflict",
        "distances_from": "graph.bfs",
    }, "graph.other"),
    "families": ({
        "enumerate_labeled_graphs": "families.enum",
        "enumerate_connected_bounded_degree": "families.enum",
        "recognize_at_free": "families.atfree",
        "recognize_chordal": "families.cert",
        "is_convex_order": "families.cert",
        "validate_tw_certificate": "families.cert",
        "validate_contraction_sequence": "families.cert",
        "validate_rotation_planarity": "families.cert",
    }, "families.other"),
    "oracles": ({
        "check_xy_dominating": "oracles.check",
        "check_xy_packing": "oracles.check",
        # JSON emit belongs to the command that prints it.
        "exact_result_json": "cli",
    }, "oracles.setup"),
    "solvers": ({
        "min_hitting_set": "solvers.mhs",
        "max_independent_set": "solvers.mis",
    }, None),
    "engine": ({}, "engine.run"),
    "engine_twodeg": ({}, "engine.run"),
    "engine_twinwidth": ({}, "engine.run"),
    "constructions": ({
        "is_dominating_pair": "constructions.pair",
        "find_dominating_pair": "constructions.pair",
    }, "constructions.run"),
    "cli": ({"main": "cli"}, None),
}


class Tracer:
    """Self time and call count per group, inclusive time per function, and
    the exact counters the layers expose through their return values."""

    def __init__(self, record_kernel_calls: bool = False):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        # (kernel group, args, result, request index) while recording.
        self.kernel_calls: list | None = [] if record_kernel_calls else None
        self.current = -1
        self._stack: list[list[float]] = []
        self._restore: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, fn, group: str, qualname: str, on_result=None):
        stack = self._stack
        self_s, calls, incl_s = self.self_s, self.calls, self.incl_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[group] += dt - frame[0]
                calls[group] += 1
                incl_s[qualname] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _gen_span(self, fn, group: str, qualname: str):
        """Generators do their work in next(), so each next() is a span."""
        stack = self._stack
        self_s, calls, incl_s = self.self_s, self.calls, self.incl_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[group] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    self_s[group] += dt - frame[0]
                    incl_s[qualname] += dt
                yield item

        return wrapper

    def _hook(self, qualname: str):
        counts = self.counts
        kernels = {"solvers.min_hitting_set": "solvers.mhs",
                   "solvers.max_independent_set": "solvers.mis"}
        if qualname in kernels:
            group = kernels[qualname]

            def on_kernel(args, res):
                if group == "solvers.mhs":
                    counts["oracles.reqs"] += len(args[0])
                counts[f"{group}.nodes"] += res[2]
                if self.kernel_calls is not None:
                    self.kernel_calls.append((group, args, res, self.current))
            return on_kernel
        if qualname.split(".")[-1].startswith("run_"):
            def on_driver(args, res):
                counts["engine.trace_len"] += len(res.trace)
            return on_driver
        return None

    def install(self) -> None:
        pkg = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "dompack" or name.startswith("dompack."))]
        replace = {}
        for short, (explicit, default) in LAYERS.items():
            mod = sys.modules[f"dompack.{short}"]
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                group = explicit.get(name, None if name.startswith("_") else default)
                if group is None:
                    continue
                qual = f"{short}.{name}"
                if inspect.isgeneratorfunction(fn):
                    replace[fn] = self._gen_span(fn, group, qual)
                else:
                    replace[fn] = self._span(fn, group, qual, self._hook(qual))
        for mod in pkg:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    self._restore.append((mod, name, val))
                    setattr(mod, name, replace[val])
        graph_cls = sys.modules["dompack.graph"].Graph
        original = graph_cls.__dict__["from_edges"]
        self._restore.append((graph_cls, "from_edges", original))
        graph_cls.from_edges = staticmethod(
            self._span(original.__func__, "graph.from_edges", "graph.Graph.from_edges")
        )

    def uninstall(self) -> None:
        for owner, name, val in reversed(self._restore):
            setattr(owner, name, val)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        out = {f"{g}.self_s": v for g, v in self.self_s.items()}
        out.update({f"{g}.calls": v for g, v in self.calls.items()})
        out.update(self.counts)
        return out
