"""In-memory span tracing around calls into the program, applied from outside.

The tracer never edits the program: it replaces module and class attributes
that the benchmark's workloads call through with wrappers that record a span,
and puts the originals back when the traced region ends.  A span records its
name (``<layer>.<callable>``), start and end on one monotonic clock, the index
of the span that was open when it started, and the operation it belongs to.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: int, end: int, parent: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, -1 for a root
        self.op = op

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, str]] = []

    def wrap(self, name: str, fn):
        """Return fn recording one span per call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def target(self, owner, attr: str, name: str) -> None:
        """Trace calls made through ``owner.attr`` while installed."""
        self._targets.append((owner, attr, name))

    @contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attr, name in self._targets:
                # class attributes are read from __dict__ so a method stays a
                # plain function and binds as before once wrapped
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and the
    self times of a tree sum to its root's duration.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def self_by_layer(spans: list[Span], selfs: list[int]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        out[span.layer] += own
    return dict(out)


def ancestor_names(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent
