"""Span tracing of polyan's public functions from outside the library.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent) in memory, at the
module attribute and under every name another module imported it by (for
example ``h4.cr_residual``, ``polyan.multiply``).  It also wraps the
``__call__`` of ``VectorField``, ``GammaField`` and ``ScalarField`` and
``ScalarField.gradient``.  A few wrappers also count work done inside the
call: FD stencil probes, integrator steps and bytes written.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# (module short name, class name, method) pairs wrapped as spans
_METHODS = (
    ("fields", "VectorField", "__call__"),
    ("fields", "GammaField", "__call__"),
    ("h4", "ScalarField", "__call__"),
    ("h4", "ScalarField", "gradient"),
)


class Tracer:
    """Spans in four parallel typed arrays; counters keyed by metric name.

    A span's parent is the index of the span open when it started, or -1.
    Spans are appended when they start, so indices follow start times.
    """

    def __init__(self):
        self.labels = []            # span name by name id
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def reset(self) -> None:
        """Forget recorded spans and counts; the wrappers stay installed."""
        for store in (self.name_ids, self.parents, self.starts, self.ends):
            del store[:]
        self.counts.clear()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper recording one span per call.

        before(args, kwargs) may rewrite the arguments and returns
        (args, kwargs, token); after(token, args, result) records counts.
        """
        name_id = len(self.labels)
        self.labels.append(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            token = None
            if before is not None:
                args, kwargs, token = before(args, kwargs)
            starts[idx] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if after is not None:
                after(token, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of algebra, fields, h4, geodesics and cli."""
        mods = {short: getattr(package, short)
                for short in ("algebra", "fields", "h4", "geodesics", "cli")}
        originals = {}
        for short, mod in mods.items():
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    originals[val] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(name, fn, *self._hooks(name)) for fn, name in originals.items()}
        for mod in (package, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for short, cls_name, meth in _METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            label = f"{short}.{cls_name}" + ("" if meth == "__call__" else f".{meth}")
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(label, fn))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- counting hooks ----------------------------------------------------

    def _hooks(self, name: str):
        counts = self.counts
        if name == "fields.fd_jacobian":
            def before(args, kwargs):
                func = args[0]

                def probe(x):
                    counts["fields.fd_jacobian.probes"] += 1
                    return func(x)

                return (probe, *args[1:]), kwargs, None
            return before, None
        if name in ("geodesics.integrate_geodesic", "geodesics.integrate_extremal"):
            def after(token, args, result):
                counts[f"{name}.steps"] += len(result) - 1
            return None, after
        if name in ("geodesics.write_geodesic_csv", "geodesics.write_extremal_csv"):
            def before(args, kwargs):
                return args, kwargs, args[1].tell()

            def after(token, args, result):
                counts["geodesics.csv_bytes"] += args[1].tell() - token
            return before, after
        if name == "cli.render_report":
            def after(token, args, result):
                counts["cli.render_report.bytes"] += len(result.encode("utf-8"))
            return None, after
        return None, None

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        """Copies, so the typed arrays can grow again afterwards."""
        return tuple(np.array(store, dtype=dtype) for store, dtype in (
            (self.name_ids, np.uint16), (self.parents, np.int64),
            (self.starts, float), (self.ends, float)))

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Spans of one thread nest, so the part of a span covered by its
        children is the sum of the direct children's durations.
        """
        ids, parents, starts, ends = self._arrays()
        dur = ends - starts
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.labels)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {self.labels[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                 "self_s": float(own[i])}
                for i in range(k) if calls[i]}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called name that started inside a span called ancestor.

        On one thread, starting inside a span's interval means descending
        from it; ancestor spans are assumed not to nest in each other.
        """
        ids, _, starts, ends = self._arrays()
        inner = np.sort(starts[ids == self.labels.index(name)])
        outer = ids == self.labels.index(ancestor)
        lo = np.searchsorted(inner, starts[outer], side="left")
        hi = np.searchsorted(inner, ends[outer], side="right")
        return int(np.sum(hi - lo))

    def write(self, path: str) -> None:
        """All spans as a compressed .npz: name (by index into names), parent,
        start and end seconds relative to the first span."""
        ids, parents, starts, ends = self._arrays()
        t0 = starts[0] if len(starts) else 0.0
        np.savez_compressed(path, names=np.array(self.labels), name=ids, parent=parents,
                            start_s=starts - t0, end_s=ends - t0)
