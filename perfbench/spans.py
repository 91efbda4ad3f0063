"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name (``<layer>.<function>``), the span
that caused it, the pass it belongs to, and its start and end on the
``perf_counter`` clock.  Spans and their counts stay in memory until the run
ends; ``write`` dumps them as JSON.  A span's self time is its duration minus
the part of that interval its child spans cover.
"""

import json
import time


class Span:
    __slots__ = ("id", "parent", "name", "trace", "start", "end", "attrs")

    def __init__(self, id, parent, name, trace, start, end=None, attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.trace = trace
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "trace": self.trace, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Recorder:
    """Collects nested spans from a single thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name, trace):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, trace, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        if self._open.pop() is not span:
            raise AssertionError(f"span {span.name} closed out of order")

    def wrap(self, name, fn, observe=None):
        """``fn`` recorded as a span of the current pass.

        ``observe(result)`` returns the counts to attach to the span.
        """
        def traced(*args, **kwargs):
            span = self.begin(name, self._open[0].trace if self._open else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if observe is not None:
                span.attrs = observe(result)
            return result
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time of every span, keyed by span id."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: span.duration - covered(children.get(span.id, ()),
                                             span.start, span.end)
            for span in spans}


def subtree(spans, root_id):
    """The spans of the tree under ``root_id``, root included, in order."""
    keep = {root_id}
    out = []
    for span in spans:
        if span.id == root_id or span.parent in keep:
            keep.add(span.id)
            out.append(span)
    return out
