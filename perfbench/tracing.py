"""In-memory spans for the traced run, and the per-layer figures drawn from them.

A span is one call into a layer's public function, timed from outside:
``[name, start, end, parent, op]`` where ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the id of the operation it
belongs to.  Span names are ``<module>.<function>``, so the module name
before the first dot is the layer.  Spans stay in a list until the run
ends and are then written out once.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from collections import defaultdict

# Layers reported as self time; "bench" is the op root, i.e. the glue the
# benchmark replays from the composites (shuffles, loops, argument set-up).
SELF_LAYERS = ("core", "spoil", "certify", "adversary", "analysis", "io", "cli", "bench")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def by_name(self) -> dict[str, list[float]]:
        """Durations of every span, grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in SELF_LAYERS}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[idx]
        return out

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[n], a, b, p, o] for n, a, b, p, o in self.spans],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class GcMeter:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
