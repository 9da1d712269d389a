"""Spans recorded from outside the program, around its public functions.

Only the traced run installs these wrappers; the untraced run never
imports this module's :func:`install`. Each call into a wrapped function
records a span ``[name, start, end, parent, attrs]`` in memory, where
``parent`` is the index of the enclosing span on the same thread (``-1``
at the top) and ``attrs`` holds counts read off the call's arguments and
result. Spans are written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List

#: (module, attribute path, span name, hook). A hook runs when the call
#: returns, receives ``(tracer, span index, args, kwargs, result)`` and
#: stores counts in the span's ``attrs``.
Target = tuple


def _guess_hook(tracer, index, args, kwargs, result) -> None:
    """One Remark 3.1 guess. Whether it was accepted is read later off
    the ladder's outcome (:func:`_ladder_hook`), so hand the result to
    the enclosing ladder span."""
    span = tracer.spans[index]
    span[4]["k"] = args[1] if len(args) > 1 else kwargs.get("k")
    span[4]["accepted"] = False
    tracer.child_results.setdefault(span[3], []).append((index, result))


def _ladder_hook(tracer, index, args, kwargs, result) -> None:
    """A guess was accepted when the ladder returned that guess's own
    result object straight after making it. The ladder stops at guess 1
    either way and then returns its best result, so returning guess 1's
    result is not read as an acceptance."""
    attrs = tracer.spans[index][4]
    k = args[1] if len(args) > 1 else kwargs.get("k")
    attrs["ladder"] = k is None
    guesses = tracer.child_results.pop(index, [])
    if result is None:
        return
    attrs["valid"] = len(result.valid_classes)
    attrs["requested"] = result.t_requested
    if guesses:
        last, last_result = guesses[-1]
        last_attrs = tracer.spans[last][4]
        if last_result is result and (k is not None or last_attrs["k"] != 1):
            last_attrs["accepted"] = True


def _mwu_hook(tracer, index, args, kwargs, result) -> None:
    if result is not None:
        attrs = tracer.spans[index][4]
        attrs["iterations"] = sum(t.iterations for t in result.traces)
        attrs["runs"] = len(result.traces)
        attrs["capped"] = sum(1 for t in result.traces if not t.stopped_early)


#: Every layer boundary the traced run records.
TARGETS: List[Target] = [
    ("repro.api.specs", "parse_graph_spec", "specs.parse", None),
    ("repro.fastgraph.indexed", "IndexedGraph.from_networkx",
     "fastgraph.canon", None),
    ("repro.core.virtual_graph", "CdsIndex.__init__",
     "virtual_graph.cds_index", None),
    ("repro.core.cds_packing", "fractional_cds_packing",
     "cds_packing.ladder", _ladder_hook),
    ("repro.core.cds_packing", "construct_cds_packing",
     "cds_packing.guess", _guess_hook),
    ("repro.core.bridging", "assign_layer", "bridging.assign_layer", None),
    ("repro.core.spanning_packing", "fractional_spanning_tree_packing",
     "spanning_packing.mwu", _mwu_hook),
    ("repro.core.vertex_connectivity", "estimate_from_packing",
     "vertex_connectivity.estimate", None),
    ("repro.apps.broadcast", "vertex_broadcast", "broadcast.vertex", None),
    ("repro.apps.broadcast", "edge_broadcast", "broadcast.edge", None),
    ("repro.api.envelope", "Result.to_dict", "envelope.encode", None),
    ("repro.api.envelope", "Result.to_json", "envelope.encode", None),
    ("repro.simulator.scenario", "Scenario.__init__", "scenario.build", None),
    ("repro.simulator.scenario", "Scenario.resolve", "scenario.build", None),
    ("repro.simulator.scenario", "Scenario.run", "simulator.run", None),
    ("repro.core.cds_packing_distributed", "run_cds_packing_scenario",
     "cds_packing_distributed", None),
]

#: The daemon's request boundary (traced ``serve`` runs only).
SERVICE_TARGETS: List[Target] = [
    ("repro.service.core", "ServiceCore.handle", "service.request", None),
]


class Tracer:
    """In-memory span recorder; thread-aware parent tracking."""

    def __init__(self) -> None:
        #: Wrappers record only while this is set.
        self.enabled = True
        self.spans: List[list] = []
        #: Results of finished spans, by parent span index, for hooks
        #: that read a call's outcome off its children's.
        self.child_results: Dict[int, List[tuple]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer, index, args, kwargs, result)

        return traced

    def call(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside one span (the benchmark's own request
        boundaries, which parent every layer span of that request)."""
        return self.wrap(name, fn)()

    # -- installation --------------------------------------------------

    def install(self, targets: List[Target] = TARGETS) -> None:
        """Wrap every target, in its module and in every loaded
        ``repro`` module that imported it by name."""
        for module_name, path, name, hook in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                wrapped = self.wrap(name, raw, hook)
            setattr(owner, attr, wrapped)
            if owner is module:
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is raw
                    ):
                        setattr(other, attr, wrapped)

    # -- summaries -----------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds of its outermost spans, and
        self seconds (duration minus the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        names: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent, _attrs) in enumerate(self.spans):
            entry = names.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self._inside(parent, name):
                entry["total_s"] += end - start
        return names

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def named(self, name: str) -> List[list]:
        return [span for span in self.spans if span[0] == name]

    def outermost(self, name: str) -> List[list]:
        """Spans of ``name`` not nested inside another span of ``name``."""
        return [
            span for span in self.named(name)
            if not self._inside(span[3], name)
        ]

    def dump(self, path: str) -> None:
        """Write every span and the per-layer self-time table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = {
            "fields": ["name", "start", "end", "parent", "attrs"],
            "spans": self.spans,
            "layers": self.by_name(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """A tracer holding the spans another process dumped."""
        tracer = cls()
        with open(path, encoding="utf-8") as handle:
            tracer.spans = json.load(handle)["spans"]
        return tracer


def layer_metrics(tracer: Tracer, units: int) -> Dict[str, float]:
    """The per-layer metrics every workload shares. ``*_ms`` values are
    inclusive milliseconds per timed unit of work (a request, a
    simulation, a heavy op); counts are totals over the pass."""
    totals = tracer.by_name()

    def per_unit_ms(name: str) -> float:
        return 1000.0 * totals.get(name, {}).get("total_s", 0.0) / units

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def seconds(spans) -> float:
        return sum(span[2] - span[1] for span in spans)

    guesses = tracer.named("cds_packing.guess")
    rejected = [span for span in guesses if not span[4].get("accepted")]
    ladders = [span for span in tracer.named("cds_packing.ladder")
               if span[4].get("ladder")]
    requested = sum(span[4].get("requested", 0) for span in ladders)
    mwu = tracer.named("spanning_packing.mwu")
    mwu_runs = sum(span[4].get("runs", 0) for span in mwu)
    return {
        "cds_packing.ladder_ms": 1000.0 * seconds(ladders) / units,
        "cds_packing.guesses": len(guesses),
        "cds_packing.guess_accept_ratio": (
            (len(guesses) - len(rejected)) / len(guesses) if guesses else 0.0
        ),
        "cds_packing.rejected_guess_ms": 1000.0 * seconds(rejected) / units,
        "cds_packing.class_valid_ratio": (
            sum(span[4].get("valid", 0) for span in ladders) / requested
            if requested else 0.0
        ),
        "bridging.assign_layer_ms": per_unit_ms("bridging.assign_layer"),
        "bridging.assign_layer_calls": calls("bridging.assign_layer"),
        "spanning_packing.mwu_ms": per_unit_ms("spanning_packing.mwu"),
        "spanning_packing.mwu_iterations": sum(
            span[4].get("iterations", 0) for span in mwu
        ),
        "spanning_packing.capped_ratio": (
            sum(span[4].get("capped", 0) for span in mwu) / mwu_runs
            if mwu_runs else 0.0
        ),
        "fastgraph.canon_ms": per_unit_ms("fastgraph.canon"),
        "virtual_graph.cds_index_ms": per_unit_ms("virtual_graph.cds_index"),
        "specs.parse_ms": per_unit_ms("specs.parse"),
        "vertex_connectivity.estimate_ms": per_unit_ms(
            "vertex_connectivity.estimate"
        ),
        "broadcast.vertex_ms": per_unit_ms("broadcast.vertex"),
        "broadcast.edge_ms": per_unit_ms("broadcast.edge"),
        "envelope.encode_ms": per_unit_ms("envelope.encode"),
        "scenario.build_ms": per_unit_ms("scenario.build"),
        "simulator.run_ms": per_unit_ms("simulator.run"),
        "cds_packing_distributed.ms": per_unit_ms("cds_packing_distributed"),
        "trace.spans": len(tracer.spans),
    }
