"""In-memory trace spans recorded around calls into the engine.

The engine is not changed: `Tracer` replaces a function or method with a
wrapper that opens a span, calls the original and closes the span, and puts
every original back in `restore`.  A module-level function is replaced in
every loaded module that holds it under some name, so callers that imported
it by name are covered too.

Spans are kept in flat arrays (name id, parent index, start, end), about 22
bytes each, because one geodesic pass makes a few hundred thousand tape
calls.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = {}
        self._current = -1
        self._patches = []  # (namespace, key, original)

    # -- recording ----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._current)
        self.end.append(0.0)
        self._current = i
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._current = self.parent[i]

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- wrapping -----------------------------------------------------------------

    def _traced(self, fn, name, after):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(tracer, args, out)
            return out
        return traced

    def _patch(self, namespace, key, original, replacement):
        self._patches.append((namespace, key, original))
        if isinstance(namespace, dict):
            namespace[key] = replacement
        else:
            setattr(namespace, key, replacement)

    def wrap_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patch(cls, attr, original, self._traced(original, name, after))

    def wrap_function(self, module, attr, name, after=None):
        """Replace `module.attr` in `module` and in every loaded riemcheck
        module that holds the same object under some name."""
        original = getattr(module, attr)
        traced = self._traced(original, name, after)
        holders = [module] + [m for k, m in list(sys.modules.items())
                              if m is not None and m is not module
                              and k.split(".")[0] == "riemcheck"]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, traced)

    def wrap_item(self, mapping, key, name, after=None):
        original = mapping[key]
        self._patch(mapping, key, original, self._traced(original, name, after))

    def restore(self) -> None:
        """Put every original back, then check that each one is in place."""
        for namespace, key, original in reversed(self._patches):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        for namespace, key, original in self._patches:
            now = (namespace[key] if isinstance(namespace, dict)
                   else getattr(namespace, key))
            if now is not original:
                raise RuntimeError(f"tracer failed to restore {key!r}")
        self._patches.clear()

    # -- analysis -----------------------------------------------------------------

    def arrays(self):
        name_of = np.frombuffer(self.name_of, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name_of, parent, start, end

    def self_times(self):
        """Per-span (duration, self time) arrays."""
        _, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def totals(self):
        """name -> (calls, summed self time, summed duration)."""
        name_of, _, _, _ = self.arrays()
        dur, own = self.self_times()
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        selfs = np.bincount(name_of, weights=own, minlength=k)
        durs = np.bincount(name_of, weights=dur, minlength=k)
        return {name: (int(calls[i]), float(selfs[i]), float(durs[i]))
                for i, name in enumerate(self.names)}

    # -- output -------------------------------------------------------------------

    def save(self, path) -> None:
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_of=name_of,
                 parent=parent, start=start, end=end)

    def save_chrome(self, path, roots: int) -> None:
        """Chrome trace-event JSON (opens in Perfetto) of the first `roots`
        root spans and everything below them."""
        name_of, parent, start, end = self.arrays()
        keep = np.zeros(len(start), dtype=bool)
        keep[np.flatnonzero(parent < 0)[:roots]] = True
        for i in range(len(start)):
            if parent[i] >= 0 and keep[parent[i]]:
                keep[i] = True
        t0 = start[0]
        events = [{"name": self.names[name_of[i]], "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start[i] - t0) * 1e6,
                   "dur": (end[i] - start[i]) * 1e6}
                  for i in np.flatnonzero(keep)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
