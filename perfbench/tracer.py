"""Spans around the calls into gce's public functions.

While a ``Tracer`` is active, every public function of the traced modules is
replaced, under each name a gce module (or the package) binds it to, by a
wrapper that records one span: name, start, end and the span that was open
when it was called. Calls between gce modules go through those module-level
names, so they are recorded too. The benchmark opens one root span per
operation; all spans below it share that root as their identifier.

Spans stay in memory (flat arrays, about 28 bytes each) and are written out
once, at the end, by ``save``.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

TRACED_MODULES = ("core", "param", "entangle", "estimator", "extremal", "oracle", "cli")


class Tracer:
    def __init__(self, package, modules: dict):
        self._package = package
        self._modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for short in TRACED_MODULES:
            mod = self._modules[short]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in (self._package, *self._modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def run_op(self, root_name: str, fn, args):
        """Run one operation under a root span; returns (duration_ns, output or exception)."""
        idx = self._open(self._id(root_name))
        try:
            out = fn(*args)
        except Exception as exc:  # the benchmark counts it as a failed operation
            out = exc
        finally:
            self._close(idx)
        return self.end[idx] - self.start[idx], out

    def spans(self) -> "Spans":
        return Spans(self.names, np.frombuffer(self.name_id, dtype=np.int32).copy(),
                     np.frombuffer(self.start, dtype=np.int64).copy(),
                     np.frombuffer(self.end, dtype=np.int64).copy(),
                     np.frombuffer(self.parent, dtype=np.int64).copy())


class Spans:
    """Span arrays with durations, self times and each span's root."""

    def __init__(self, names, name_id, start, end, parent):
        self.names = list(names)
        self.name_id, self.start, self.end, self.parent = name_id, start, end, parent
        self.duration = end - start
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=self.duration[inner],
                              minlength=len(parent)).astype(np.int64)
        self.self_time = self.duration - covered
        root = np.where(inner, parent, np.arange(len(parent)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def ids(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def roots(self, root_name: str) -> np.ndarray:
        return np.flatnonzero((self.parent < 0) & (self.name_id == self.ids(root_name)))

    def calls(self, fn_name: str, roots: np.ndarray) -> np.ndarray:
        """Indices of the spans of fn_name below the given roots."""
        return np.flatnonzero((self.name_id == self.ids(fn_name)) & np.isin(self.root, roots))

    def per_root_sum(self, values: np.ndarray, idx: np.ndarray, roots: np.ndarray) -> np.ndarray:
        sums = np.bincount(self.root[idx], weights=values[idx], minlength=len(self.parent))
        return sums[roots]

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), name_id=self.name_id,
                            start=self.start, end=self.end, parent=self.parent)
