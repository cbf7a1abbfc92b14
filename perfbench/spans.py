"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: each public entry point
of poseadapt is replaced, while tracing is on, by a wrapper installed at the
attribute where its caller looks it up (``trainer`` imports ``mpjpe`` by
name, ``uncertainty`` calls ``hm.entropy`` through the module, and so on).
The package itself is never edited.

A span is ``[name, parent index, start, end, group]``; ``group`` is shared
by the spans of one training iteration or one serving request. Self time is
a span's duration minus the durations of its direct children, which the
single-threaded call stack keeps properly nested.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.group = None
        self.active = False
        self.work = defaultdict(float)   # counter name -> summed amount
        self._stack = []
        self._hooks = []                 # (owner, attribute, wrapper)
        self._saved = []                 # (owner, attribute, original) while installed

    # -- wrapping -----------------------------------------------------------

    def hook(self, owner, attr, name=None, work=None):
        """Register a wrapper for ``owner.attr``. With ``name`` every call
        becomes a span; ``work(args, kwargs, result)`` yields (counter,
        amount) pairs added after the span has ended."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Region(tracer, name) if name is not None else contextlib.nullcontext():
                result = fn(*args, **kwargs)
            if work is not None:
                for key, amount in work(args, kwargs, result):
                    tracer.work[key] += amount
            return result

        self._hooks.append((owner, attr, wrapper))

    def install(self):
        for owner, attr, wrapper in self._hooks:
            # keep the raw attribute (a classmethod stays a classmethod)
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.active = False
        self.group = None

    def region(self, name):
        """Context manager recording one span around benchmark code; a
        no-op while the wrappers are not installed."""
        return _Region(self, name) if self.active else contextlib.nullcontext()

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """name -> {"calls", "total_s", "self_s"}."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, _, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def dump(self, path, origin):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["id", "name", "parent", "start_s", "end_s", "group"],
                       "spans": [[i, n, p, s - origin, e - origin, g]
                                 for i, (n, p, s, e, g) in enumerate(self.spans)],
                       "work": dict(self.work)}, f)


class _Region:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, t._stack[-1] if t._stack else -1, 0.0, 0.0, t.group]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[2] = perf_counter()

    def __exit__(self, *exc):
        self.rec[3] = perf_counter()
        self.tracer._stack.pop()
        return False
