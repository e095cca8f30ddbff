"""In-memory spans around the calls into the solver's modules.

A ``Tracer`` replaces module attributes -- the names callers look up at call
time, such as ``forms.apply_convection`` -- with wrappers that record one span
per call: name, job id, parent span, start and end.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.

This module imports nothing from the solver, so its arithmetic is tested on
hand-made spans.
"""

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    job: int
    parent: int  # index of the parent span in Tracer.spans, or None
    start: float
    end: float = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; ``restore`` undoes every patch."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = 0
        self._stack = []
        self._patched = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, self.clock()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, name, fn):
        """``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def patch(self, module, attr, name):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def children_of(spans):
    """Child span indices of every span index."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    return children


def self_times(spans):
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def summarize(spans):
    """Per span name: number of calls, busy seconds and self seconds."""
    table = defaultdict(lambda: dict(calls=0, busy_s=0.0, self_s=0.0))
    for span, own in zip(spans, self_times(spans)):
        row = table[span.name]
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += own
    return dict(table)
