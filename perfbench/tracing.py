"""Span tracer that wraps monosafe's public functions from outside.

While ``Tracer.active()`` is entered, each traced function is replaced by a
wrapper that records a span (name, start, end, parent span, operation id);
on exit the originals are restored.  Spans live in flat arrays in memory and
are written once, at the end of the run.  A layer's self time is its spans'
durations minus the part covered by their child spans.

Membership calls made inside another membership call (``BoxUnion.locate``
testing each ``Box``) are not recorded as spans of their own: the outer
call's span covers them, and each rollout step makes several.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from time import perf_counter

import numpy as np

MEMBERSHIP = ("order.Box.contains", "order.BoxUnion.locate",
              "order.BoxUnion.contains", "order.PolyLowerSet.contains")


def _targets():
    """(owner, attribute, span name) for every traced function.

    A function imported by name into another module is patched there too,
    where that module's calls should be seen.  ``cli`` keeps its own
    ``load_system_file``, so the spec load of a command is part of the
    command's self time.
    """
    mod = {name: importlib.import_module(f"monosafe.{name}")
           for name in ("cli", "encode", "invariance", "milp", "order", "rng",
                        "simulate", "systems")}
    return [
        (mod["cli"], "main", "cli.main"),
        (mod["cli"], "find_s_sequence", "invariance.find_s_sequence"),
        (mod["invariance"], "encode_switched", "encode.encode_switched"),
        (mod["invariance"], "encode_traffic", "encode.encode_traffic"),
        (mod["invariance"], "solve_milp", "milp.solve_milp"),
        (mod["invariance"], "decode", "encode.decode"),
        (mod["milp"], "solve_lp", "milp.solve_lp"),
        (mod["cli"], "verify_certificate", "simulate.verify_certificate"),
        (mod["simulate"], "verify_certificate", "simulate.verify_certificate"),
        (mod["cli"], "compute_limit_cycle", "invariance.compute_limit_cycle"),
        (mod["invariance"], "compute_limit_cycle", "invariance.compute_limit_cycle"),
        (mod["simulate"], "simulate", "simulate.simulate"),
        (mod["systems"], "load_system_file", "systems.load_system_file"),
        (mod["systems"].SwitchedAffineSystem, "step", "systems.step"),
        (mod["systems"].TrafficNetwork, "step", "systems.step"),
        (mod["rng"].SplitMix64, "uniform", "rng.uniform"),
        (mod["order"].Box, "contains", "order.Box.contains"),
        (mod["order"].BoxUnion, "locate", "order.BoxUnion.locate"),
        (mod["order"].BoxUnion, "contains", "order.BoxUnion.contains"),
        (mod["order"].PolyLowerSet, "contains", "order.PolyLowerSet.contains"),
    ]


class Tracer:
    """Records spans while active; keeps the return values of ``observe`` names."""

    def __init__(self, observe=()):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._op = -1
        self._saved = []
        self.results = {name: [] for name in observe}
        self._membership = {self._intern(n) for n in MEMBERSHIP}

    def _intern(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self._intern(name)
        skip_inside = self._membership if nid in self._membership else ()
        kept = self.results.get(name)

        def traced(*args, **kwargs):
            if skip_inside and self._stack and self.name[self._stack[-1]] in skip_inside:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if kept is not None:
                kept.append(out)
            return out

        return traced

    @contextlib.contextmanager
    def active(self):
        """Wrap every target for the duration of the block."""
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def span(self, name, op=False):
        """Context manager for a span of the benchmark's own.

        ``op=True`` starts a new operation: spans opened inside carry its id.
        """
        if op:
            self._op += 1
        return _Span(self, self._intern(name))

    def spans(self):
        return Spans(self)

    def write(self, path):
        """All spans as numpy arrays in one compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.i = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.i)
        return False

    @property
    def seconds(self):
        return self.tracer.end[self.i] - self.tracer.start[self.i]


class Spans:
    """Recorded spans as arrays, with each span's self time."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.dur = (np.frombuffer(tracer.end, dtype=np.float64)
                    - np.frombuffer(tracer.start, dtype=np.float64))
        covered = np.zeros_like(self.dur)
        inner = self.parent >= 0
        np.add.at(covered, self.parent[inner], self.dur[inner])
        self.self_time = self.dur - covered

    def _mask(self, name, under=None):
        if name not in self.names:
            return np.zeros(self.name.shape, dtype=bool)
        mask = self.name == self.names.index(name)
        if under is not None:
            parent_name = np.where(self.parent >= 0, self.name[self.parent], -1)
            mask &= parent_name == (self.names.index(under) if under in self.names else -2)
        return mask

    def durations(self, name, under=None):
        return self.dur[self._mask(name, under)]

    def own(self, name, under=None):
        return self.self_time[self._mask(name, under)]

    def self_by_layer(self):
        """Self time in ms summed per layer (the span name's first part)."""
        out = {}
        for nid, label in enumerate(self.names):
            layer = label.split(".")[0]
            out[layer] = out.get(layer, 0.0) + 1000.0 * float(
                self.self_time[self.name == nid].sum())
        return out
