"""Tracing from outside the program: timing wrappers around public functions.

`Tracer.install` replaces every public function of every `intertwine`
module, in every `intertwine` module namespace that binds it, by a
wrapper that records a span (name, start, end, parent).  Spans stay in
memory, one buffer per thread, and are written out when the run ends.
A span's self time is its duration minus the union of the intervals its
children cover, so children that overlap in time (the scan thread pool)
are not counted twice.  A span opened on a pool thread outside any other
span is a child of the innermost span open on the main thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("linalg", "vectorize", "liouville", "floquet", "models", "selfcheck", "cli")


class _Buffer:
    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.eig_max_dim = 0  # largest matrix passed to linalg.eig
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._main_stack: list[int] = []  # spans open on the main thread
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = self._local.buffer = _Buffer()
            self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = self._local.stack
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, label: str, fn):
        name_id = len(self.labels)
        self.labels.append(label)
        track_dim = label == "linalg.eig"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            stack = self._local.stack
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            elif stack is self._main_stack:
                parent = -1
            else:
                # A pool thread: its parent is the innermost span open on
                # the main thread, which waits for the pool (cli.run_scan).
                main = self._main_stack
                parent = main[-1] if main else -1
            if track_dim and args:
                self.eig_max_dim = max(self.eig_max_dim, int(np.shape(args[0])[0]))
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.parents.append(parent)
                buf.names.append(name_id)
                buf.starts.append(start)
                buf.ends.append(end)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of `package`'s modules wherever they are bound."""
        modules = [getattr(package, m) for m in MODULES] + [package]
        wrappers = {}
        for mod in modules[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in self._restore:
            setattr(mod, name, obj)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        cols = {k: [] for k in ("ids", "parents", "names", "starts", "ends")}
        for buf in self._buffers:
            for k in cols:
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=getattr(buf, k).typecode))
        out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
        order = np.argsort(out["ids"])
        return {k: v[order] for k, v in out.items()}

    def dump(self, path: Path) -> None:
        np.savez_compressed(path, labels=np.array(self.labels), **self.spans())


def self_times(s: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    ids, parents, starts, ends = s["ids"], s["parents"], s["starts"], s["ends"]
    own = ends - starts
    index = {int(i): k for k, i in enumerate(ids)}
    covered = np.zeros_like(own)
    order = np.lexsort((starts, parents))
    group_parent, reach = None, -np.inf
    for k in order:
        p = int(parents[k])
        if p < 0 or p not in index:
            continue
        pk = index[p]
        if p != group_parent:
            group_parent, reach = p, starts[pk]
        lo = max(starts[k], reach)
        hi = min(ends[k], ends[pk])
        if hi > lo:
            covered[pk] += hi - lo
            reach = hi
    return own - covered


class LayerStats:
    """Per-label and per-module totals over one traced pass."""

    def __init__(self, tracer: Tracer):
        s = tracer.spans()
        labels = np.array(tracer.labels, dtype=object)
        names = labels[s["names"].astype(int)] if s["names"].size else np.array([], dtype=object)
        own = self_times(s) if s["ids"].size else np.zeros(0)
        dur = s["ends"] - s["starts"]
        self.calls, self.self_s, self.total_s = {}, {}, {}
        for label in set(names):
            mask = names == label
            self.calls[label] = int(np.count_nonzero(mask))
            self.self_s[label] = float(np.sum(own[mask]))
            self.total_s[label] = float(np.sum(dur[mask]))
        self.eig_max_dim = tracer.eig_max_dim
        # propagators composed inside `scan` jobs, for the per-grid-point count
        in_scan = names == "cli.run_scan"
        index = {int(i): k for k, i in enumerate(s["ids"])}
        for k, p in enumerate(s["parents"].tolist()):  # ids ascend, parents come first
            if not in_scan[k] and p in index:
                in_scan[k] = in_scan[index[p]]
        self.scan_propagator_calls = int(np.count_nonzero(in_scan & (names == "floquet.propagator")))

    def module_self_s(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == module)
