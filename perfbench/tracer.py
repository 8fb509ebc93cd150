"""Span tracing of sgf2d's public functions, installed from outside the package.

``Tracer.install`` rebinds every module-level name that refers to a public
function of one of the traced modules -- in the defining module, in every
sibling module that imported it with ``from .grid import ...``, and in the
package namespace -- to a wrapper that records one span per call.
``Tracer.uninstall`` puts the original objects back. ``grid.dstn`` (scipy's
DST, imported into ``sgf2d.grid``) is traced too, with the bytes it reads and
writes computed from the array size.

A span is (name, start, end, parent, op). Spans are kept in typed arrays in
memory and written out with ``save`` when the run ends. Self time (duration
minus the time covered by child spans) and call counts are also accumulated
per name while the run goes, so reading them needs no pass over the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter, defaultdict

LAYERS = (
    "grid",
    "state",
    "sensitivity",
    "adjoint",
    "optimizer",
    "spaces",
    "certificates",
    "config",
    "cli",
    "fieldio",
)


def _dstn_bytes(args, kwargs, result) -> int:
    # a real-to-real transform reads its input and writes an array of the same size
    return 2 * int(args[0].nbytes)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


_BYTES = {
    "grid.dstn": _dstn_bytes,
    "fieldio.write_field": _file_bytes,
    "fieldio.write_field_csv": _file_bytes,
}


class Tracer:
    """Records spans for calls into the traced modules while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nbytes: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        import sgf2d

        modules = {layer: importlib.import_module(f"sgf2d.{layer}") for layer in LAYERS}
        wrappers = {}  # id of an original function -> its wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        dstn = modules["grid"].dstn
        wrappers[id(dstn)] = self._wrap(dstn, "grid.dstn")

        for mod in (sgf2d, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        count_bytes = _BYTES.get(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count_bytes is not None:
                self.nbytes[nid] += count_bytes(args, kwargs, result)
            return result

        return traced

    # -- reading ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, self seconds and (where counted) bytes."""
        out = {}
        for nid, name in enumerate(self.names):
            if self.calls[nid]:
                out[name] = {
                    "calls": self.calls[nid],
                    "self_s": self.self_s[nid],
                    "bytes": self.nbytes[nid],
                }
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        hits = 0
        for idx, sid in enumerate(self.span_name):
            if sid != nid:
                continue
            p = self.span_parent[idx]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            hits += p >= 0
        return hits

    def save(self, path) -> None:
        """Write all spans as a NumPy archive (see the benchmark README)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
