"""Outside-in layer tracer: one span each time control crosses layers.

A layer is a module (or package) under ``repro``, told by the module a
frame's function was defined in (so code a module generates, such as
dataclass methods, belongs to that module).  The tracer installs a
``sys.setprofile`` hook; whenever a Python frame starts or resumes in a
different layer from the innermost open span, it opens a span for the
new layer, and closes it when that frame returns or yields.  A span's
self time is its duration minus its child spans' durations, so the
self times of all layers (``other`` included) add up to the traced
wall time.  C functions have no frame of their own here: their time is
charged to the layer that called them.

Spans are kept in memory, up to ``span_cap`` of them, and written out
by :meth:`LayerTracer.write`; self times and call counts are exact
however many spans there were.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

#: Layers named by module under ``repro``; a package name covers every
#: module inside it.  Anything else is ``other``.
LAYERS = (
    "sim.core", "sim.process", "sim.fluid", "gpu.device",
    "workloads.serving", "workloads.resilience", "workloads.fleet",
    "workloads.autoscale", "partition", "faas.chaos", "telemetry",
    "cluster.oracle", "cluster.model", "cluster.packing",
)
OTHER = "other"

#: Functions whose calls are counted by name: (layer, qualname) -> key.
COUNTED = {("sim.fluid", "FluidPool.add"): "fluid_adds"}


def layer_of_module(module: str) -> str:
    """``"sim.core"`` -> ``"sim.core"``; ``"partition.policy"`` ->
    ``"partition"``; unlisted modules -> ``"other"``."""
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    return OTHER


class LayerTracer:
    """Span recorder over :data:`LAYERS`; use ``with tracer:``."""

    def __init__(self, span_cap: int = 200_000):
        self.names = LAYERS + (OTHER,)
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = {key: 0 for key in COUNTED.values()}
        self.wall = 0.0
        self.n_spans = 0
        self.span_cap = span_cap
        # Closed spans: id, parent id, layer index, start, end.
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._layer_of_code: dict = {}
        self._counted_code: dict = {}
        self._stack: list = []
        self._next_id = [0]
        self._t0 = 0.0

    def _classify(self, frame) -> int:
        module = frame.f_globals.get("__name__") or ""
        layer = OTHER
        if module.startswith("repro."):
            layer = layer_of_module(module[len("repro."):])
            key = COUNTED.get((layer, frame.f_code.co_qualname))
            if key is not None:
                self._counted_code[frame.f_code] = key
        return self.names.index(layer)

    def _make_hook(self):
        perf = time.perf_counter
        stack = self._stack
        layer_of_code = self._layer_of_code
        counted = self._counted_code
        counts = self.counts
        classify = self._classify
        self_s = self.self_s
        calls = self.calls
        cap = self.span_cap
        ids, parents, layers = self.span_id, self.span_parent, self.span_layer
        starts, ends = self.span_start, self.span_end
        next_id = self._next_id

        # Runs on every Python call and return, so the span bookkeeping
        # of _close is inlined here.
        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                layer = layer_of_code.get(code)
                if layer is None:
                    layer = layer_of_code[code] = classify(frame)
                if code in counted:
                    counts[counted[code]] += 1
                top = stack[-1]
                if layer != top[1]:
                    sid = next_id[0]
                    next_id[0] = sid + 1
                    calls[layer] += 1
                    stack.append([frame, layer, perf(), 0.0, sid, top[4]])
            elif event == "return":
                top = stack[-1]
                if top[0] is frame:
                    end = perf()
                    stack.pop()
                    duration = end - top[2]
                    self_s[top[1]] += duration - top[3]
                    stack[-1][3] += duration
                    if top[4] < cap:
                        ids.append(top[4])
                        parents.append(top[5])
                        layers.append(top[1])
                        starts.append(top[2])
                        ends.append(end)

        return hook

    def _close(self, top, end: float) -> None:
        duration = end - top[2]
        self.self_s[top[1]] += duration - top[3]
        if self._stack:
            self._stack[-1][3] += duration
        if top[4] < self.span_cap:
            self.span_id.append(top[4])
            self.span_parent.append(top[5])
            self.span_layer.append(top[1])
            self.span_start.append(top[2])
            self.span_end.append(end)

    def __enter__(self) -> "LayerTracer":
        other = self.names.index(OTHER)
        self._hook = self._make_hook()
        self._t0 = time.perf_counter()
        # The root span: the benchmark's own code, until the first call
        # into a layer and between calls.
        sid = self._next_id[0]
        self._next_id[0] = sid + 1
        self._stack.append([None, other, self._t0, 0.0, sid, -1])
        self.calls[other] += 1
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        end = time.perf_counter()
        # Close whatever is still open (the root, at least).
        while self._stack:
            self._close(self._stack.pop(), end)
        self.wall += end - self._t0
        self.n_spans = self._next_id[0]

    def layer_metrics(self, episodes: int) -> dict:
        """Per-episode self seconds, share of traced wall, span counts."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[i] / episodes
            out[f"{name}.share"] = (self.self_s[i] / self.wall
                                    if self.wall else 0.0)
            out[f"{name}.calls"] = self.calls[i] / episodes
        return out

    def write(self, path: str) -> None:
        """Kept spans as tab-separated ``id parent layer start_s end_s``,
        times relative to the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min(self.span_start, default=0.0)
        with open(path, "w") as f:
            f.write("id\tparent\tlayer\tstart_s\tend_s\n")
            for k in range(len(self.span_id)):
                f.write(f"{self.span_id[k]}\t{self.span_parent[k]}\t"
                        f"{self.names[self.span_layer[k]]}\t"
                        f"{self.span_start[k] - t0:.9f}\t"
                        f"{self.span_end[k] - t0:.9f}\n")
