"""Outside-in span tracer for the tomomle layers.

The tracer replaces functions in the program's namespaces with timing
wrappers, under the name each caller resolves at call time: a module-level
`from .x import f` binds `f` in the importing module, so the wrapper has to
go there, not only on the defining module.  Nothing inside the program
changes; uninstalling puts every original object back.

Spans stay in memory as parallel arrays (name id, parent index, start, end).
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans sum exactly to the durations of the
root spans.
"""

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self._stack = []
        self._originals = []
        self._targets = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, on_return=None):
        """Timing wrapper around fn; on_return(counters, args, result) runs
        after the span has closed, so its cost is not charged to fn."""
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(self.counters, args, result)
            return result

        return wrapper

    def add_target(self, name, bindings, on_return=None):
        """Register one traced function.

        bindings: (namespace, key) pairs naming every place a caller looks
        the function up; a namespace is a module or a dict.  All bindings
        must hold the same function, and they share one wrapper.
        """
        self._targets.append((name, bindings, on_return))

    @contextmanager
    def installed(self):
        for name, bindings, on_return in self._targets:
            fns = {id(_get(ns, key)) for ns, key in bindings}
            if len(fns) != 1:
                raise RuntimeError(f"bindings of {name} hold different objects")
            wrapper = self.wrap(name, _get(*bindings[0]), on_return)
            for ns, key in bindings:
                self._originals.append((ns, key, _get(ns, key)))
                _set(ns, key, wrapper)
        try:
            yield
        finally:
            while self._originals:
                _set(*self._originals.pop())

    def self_times(self):
        """Per span name: (calls, summed self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {nm: (int(calls[i]), float(self_s[i])) for i, nm in enumerate(self.names)}

    def root_seconds(self):
        """Summed duration of the spans that have no parent."""
        if not len(self.start):
            return 0.0
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[parent < 0].sum())


def _get(ns, key):
    return ns[key] if isinstance(ns, dict) else getattr(ns, key)


def _set(ns, key, value):
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)
