"""In-memory spans and call counters around the public functions of bandperm.

The tracer measures the layers from outside: it replaces each public
function of a layer module, in every bandperm namespace that holds it, by
a wrapper that records a span (name, layer, start, end, parent, operation
id) and charges the span's self time (its duration minus the time its
child spans cover) to the layer.  Lazy iterators a public function returns
(the enumerator) are timed item by item and charged to their layer as child
time of whichever span consumes them.

Per-instance primitives are called millions of times per operation; a span
per call would measure the tracer, so they are left alone or only counted.
"""
from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "exact", "sampler", "uncross", "analysis", "cli")

# Core functions whose calls are counted but not timed.
COUNTED = ("cycle_of", "energy", "swap_images")

# Public functions called once per instance inside a layer's own loops;
# their time stays in the enclosing span's self time.
UNTRACED = {
    "core": "*",
    "sampler": {"metropolis_acceptance"},
    "uncross": {
        "first_upcrossing", "last_downcrossing", "crossing_record", "uncross",
        "uncross_min", "uncross_preimage", "crossing_ratio_check",
    },
}


class Tracer:
    """Spans and counts for the operations run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id = 0
        self.busy = defaultdict(float)  # layer -> self seconds
        self.calls = defaultdict(int)  # "layer.name" -> calls
        self.items = defaultdict(int)  # layer -> items yielded by iterators
        self._stack: list[list] = []  # open spans: [record, covered]
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            record = {
                "op": tracer.op_id,
                "name": f"{layer}.{name}",
                "parent": stack[-1][0]["index"] if stack else None,
                "index": len(tracer.spans),
            }
            tracer.spans.append(record)
            tracer.calls[f"{layer}.{name}"] += 1
            frame = [record, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                record.update(start=start, end=end, self=duration - frame[1])
                tracer.busy[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if inspect.isgenerator(result):
                return tracer._timed_iter(layer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_iter(self, layer: str, iterator):
        stack = self._stack
        busy = self.busy
        items = self.items
        while True:
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                duration = perf_counter() - start
                busy[layer] += duration
                if stack:
                    stack[-1][1] += duration
            items[layer] += 1
            yield item

    def _counter(self, key: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every bandperm namespace; undone by :meth:`uninstall`."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "bandperm" or name.startswith("bandperm."))
        ]
        replacements = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"bandperm.{layer}"]
            skip = UNTRACED.get(layer, set())
            for name, obj in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                if layer == "core":
                    if name in COUNTED:
                        replacements[id(obj)] = self._counter(f"core.{name}", obj)
                elif name not in skip:
                    replacements[id(obj)] = self._span(layer, name, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)
        perm = sys.modules["bandperm.core"].Permutation
        original = perm.__post_init__
        self._undo.append((perm, "__post_init__", original))
        perm.__post_init__ = self._counter("core.Permutation", original)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, plus one line of per-layer totals."""
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
            out.write(json.dumps({
                "busy_s": dict(self.busy),
                "calls": dict(self.calls),
                "iterator_items": dict(self.items),
            }) + "\n")
