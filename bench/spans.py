"""Span tracer that wraps the public functions of the bstoa layers.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records one span per call: function name, start, end and the
index of the enclosing span.  ``from .x import y`` copies the binding into
the importing module, so the wrapper is installed in every ``bstoa.*``
namespace that binds the original function, not only in its home module.
Private helpers are not wrapped; their time counts as self time of the
public function that calls them.  ``stale_bindings`` finds any binding of a
traced function that ``install`` could not reach (one held in a module
level container), since calls through it would be booked to the caller.

Spans live in flat arrays while the traced code runs and are written out
only after it ends, so the cost per call is a few appends.  Counts the
layers do not expose as spans are read from return values by per-function
hooks (``COUNTERS``), never by patching library source.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("topology", "channel", "estimator", "analysis", "localization", "harness", "cli")


def _dense_bytes(tracer: "Tracer", result) -> None:
    tracer.dense_bytes.append(int(result.nbytes))


def _gn_iterations(tracer: "Tracer", result) -> None:
    tracer.gn_iterations.append(result[2].copy())


COUNTERS = {
    "topology.weighting_matrix": _dense_bytes,
    "localization.localize_bistatic_batch": _gn_iterations,
}


class Tracer:
    """Records nested spans of calls into the traced bstoa layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: list[tuple[str, str]] = []
        self.dense_bytes: list[int] = []
        self.gn_iterations: list = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}
        self.stale: list[str] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        stack, span_name, parent = self._stack, self.span_name, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised.append((name, type(exc).__name__))
                raise
            finally:
                end[index] = clock()
                stack.pop()
            if counter is not None:
                counter(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced layer."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bstoa.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in _namespaces():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        self._originals = {id(fn): fn for fn, _ in wrappers.values()}
        self.stale = self.stale_bindings()

    def stale_bindings(self) -> list[str]:
        """Places in the bstoa modules that still hold an unwrapped traced
        function after ``install``: module globals and the items of module
        level dicts, lists, tuples and sets."""
        originals = self._originals
        found = []
        for module in _namespaces():
            for attr, obj in vars(module).items():
                if isinstance(obj, dict):
                    items = list(obj.values())
                elif isinstance(obj, (list, tuple, set, frozenset)):
                    items = list(obj)
                else:
                    items = [obj]
                if any(item is not None and originals.get(id(item)) is item for item in items):
                    found.append(f"{module.__name__}.{attr}")
        return found

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: name index, duration and self time (the duration less
        the time its child spans cover)."""
        kind = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return kind, dur, dur - covered

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_csv(self, path: str) -> None:
        """Write every span as ``index,parent,name,start_s,end_s``."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("index,parent,name,start_s,end_s\n")
            names = self.names
            for i, (nid, par, t0, t1) in enumerate(
                zip(self.span_name, self.parent, self.start, self.end)
            ):
                handle.write(f"{i},{par},{names[nid]},{t0:.9f},{t1:.9f}\n")


def _namespaces() -> list:
    return [
        mod for key, mod in sorted(sys.modules.items())
        if key == "bstoa" or key.startswith("bstoa.")
    ]
