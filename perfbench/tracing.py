"""In-memory spans around the calls into germinv's layers.

The traced run replaces each layer function at the module attribute the
pipeline calls it through (``germinv.invariant.restrict``, a method on its
class, ...) with a wrapper that records a span, and puts the original back
afterwards. Untraced runs never install a wrapper. A target that a later
version of germinv no longer has is recorded as absent, not an error.

A span is [name, start, end, parent, germ id]; parent is the index of the
enclosing span or -1. A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.germ = None
        self.phase = "setup"
        self.absent: set[str] = set()
        self.self_s = defaultdict(float)    # (phase, name) -> seconds
        self.total_s = defaultdict(float)   # (phase, name) -> seconds
        self.calls = defaultdict(int)       # (phase, name) -> count
        self.counts = defaultdict(int)      # (phase, name) -> count
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._patches: list[tuple] = []

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.germ])
        self._stack.append(idx)
        self._child_s.append(0.0)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        children = self._child_s.pop()
        dur = span[2] - span[1]
        if self._child_s:
            self._child_s[-1] += dur
        key = (self.phase, span[0])
        self.self_s[key] += dur - children
        self.total_s[key] += dur
        self.calls[key] += 1

    def add(self, name: str, n: int) -> None:
        self.counts[(self.phase, name)] += n

    def note_max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def wrap(self, target: str, name: str) -> None:
        """Trace ``module.attr`` or ``module.Class.attr`` as span ``name``."""
        path, attr = target.rsplit(".", 1)
        owner = _resolve(path)
        orig = None if owner is None else owner.__dict__.get(attr)
        if orig is None:
            self.absent.add(name)
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return tracer.call(name, orig, *args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(path: str):
    """The module, or the class inside a module, named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
