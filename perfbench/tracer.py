"""In-memory span tracer that wraps the public functions of fisgan's modules.

A span is (name, start, end, parent, error).  Spans are kept in memory
while the traced code runs; ``install`` replaces module attributes with
timing wrappers and ``restore`` puts the originals back.  Nothing inside
``src/`` is changed: the wrappers act only because fisgan's modules call
each other through module attributes (``nn.forward``) or through their own
globals, both of which resolve at call time.

Self time of a span is its duration minus the part of its interval that
its direct children cover.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _forward_mflop(args, kwargs, result):
    net, batch = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "batch")
    rows = np.shape(batch)[0]
    return {"mflop": sum(2.0 * rows * l.in_dim * l.out_dim for l in net.layers) / 1e6}


def _backward_mflop(args, kwargs, result):
    # weight gradient plus input gradient: two matmuls per layer
    net, caches = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "caches")
    rows = caches[0][0].shape[0]
    return {"mflop": sum(4.0 * rows * l.in_dim * l.out_dim for l in net.layers) / 1e6}


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": float(os.path.getsize(_arg(args, kwargs, 0, "path")))}


# qualified name -> function(args, kwargs) giving the span-name suffix
NAMERS = {
    "flows.fit": lambda a, k: _arg(a, k, 0, "flow").kind,
    "flows.sample": lambda a, k: _arg(a, k, 0, "flow").kind,
    "flows.build_flow": lambda a, k: _arg(a, k, 0, "kind"),
    "norms.batch_norms": lambda a, k: _arg(a, k, 2, "kind", "frobenius"),
}

# qualified name -> function(args, kwargs, result) giving counters to add
COUNTERS = {
    "nn.forward": _forward_mflop,
    "nn.backward": _backward_mflop,
    "flows.sample": lambda a, k, r: {"rows": float(_arg(a, k, 1, "n"))},
    "checkpoint.save_checkpoint": _checkpoint_bytes,
}


class Tracer:
    """Records nested spans around wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.errors = []
        self.counters = {}
        self._stack = []
        self._saved = []
        self.uncovered = []

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self.errors.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx, error=None):
        self.ends[idx] = self.clock()
        self._stack.pop()
        self.errors[idx] = error

    def wrap(self, qualname, fn):
        tracer = self
        namer = NAMERS.get(qualname)
        counter = COUNTERS.get(qualname)

        def traced(*args, **kwargs):
            name = qualname if namer is None else f"{qualname}.{namer(args, kwargs)}"
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.close(idx, type(err).__name__)
                raise
            tracer.close(idx)
            if counter is not None:
                tracer.counters[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, modules):
        """Wrap every public function of each module, both where it is
        defined and where another listed module binds it by name.

        ``modules`` maps a short layer name ("nn") to the module object.
        Public classes bound by name in another module are not wrapped;
        they are recorded in ``self.uncovered``.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        origin = {mod.__name__: short for short, mod in modules.items()}
        for short, mod in modules.items():
            for attr, value in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = origin.get(getattr(value, "__module__", None))
                if home is None:
                    continue
                if inspect.isfunction(value):
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self.wrap(f"{home}.{attr}", value))
                elif inspect.isclass(value) and home != short:
                    self.uncovered.append(f"{short}.{attr} (class from {home})")

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def arrays(self):
        """The spans as parallel arrays (names as an index into a table)."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        return {
            "names": np.array(table),
            "name_id": np.array([index[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
            "parent": np.array(self.parents, dtype=np.int64),
            "error": np.array([e or "" for e in self.errors]),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


def self_times(starts, ends, parents):
    """Per-span duration minus the union of its direct children's
    intervals, each clipped to the parent's interval."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for kid in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[kid], lo), min(ends[kid], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out


class SpanStats:
    """Per-name aggregates over one or more traced rounds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(lambda: defaultdict(float))
        self.errors = defaultdict(lambda: defaultdict(int))
        self.rounds = 0

    def add(self, tracer: Tracer):
        selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
        for idx, name in enumerate(tracer.names):
            self.calls[name] += 1
            self.self_s[name] += selfs[idx]
            self.durations[name].append(tracer.ends[idx] - tracer.starts[idx])
            if tracer.errors[idx]:
                self.errors[name][tracer.errors[idx]] += 1
        for idx, extra in tracer.counters.items():
            for key, value in extra.items():
                self.counters[tracer.names[idx]][key] += value
        self.rounds += 1

    def per_round(self, name, what):
        """calls, self_ms, total_ms or a counter, averaged per traced round."""
        rounds = max(1, self.rounds)
        if what == "calls":
            return self.calls.get(name, 0) / rounds
        if what == "self_ms":
            return 1000.0 * self.self_s.get(name, 0.0) / rounds
        if what == "total_ms":
            return 1000.0 * sum(self.durations.get(name, ())) / rounds
        return self.counters[name][what] / rounds if name in self.counters else 0.0

    def percentile_ms(self, name, q):
        values = self.durations.get(name)
        return 1000.0 * float(np.percentile(values, q)) if values else 0.0

    def layer_self_ms(self):
        """Self time per module, summed over its functions, per round."""
        totals = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        rounds = max(1, self.rounds)
        return {layer: 1000.0 * s / rounds for layer, s in totals.items()}
