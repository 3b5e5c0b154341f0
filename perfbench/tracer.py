"""In-memory span recording and the two ways of reading a span tree.

A span is one call into a layer: name, start, end, the span that caused
it, and the operation (sampled run or service job) it belongs to.  Spans
are kept in memory and written out once, when the benchmark ends.

:func:`blocking_path` splits a root span's wall time over the layers
that block it.  Every instant goes to the innermost spans active then
(split evenly when parallel workers are active at once), so the layers
sum to the root's duration exactly; instants only the root covers are
the unattributed remainder.  On a serial tree each layer's share is its
self time: its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Blocking-path key for time no layer span covers.
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    span_id: str = ""
    parent: "str | None" = None
    op: "str | None" = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_tuple(self) -> tuple:
        return (self.name, self.start, self.end, self.span_id, self.parent,
                self.op, self.attrs)

    @classmethod
    def from_tuple(cls, values) -> "Span":
        return cls(*values)


class Tracer:
    """Collects spans; ``op_source`` names the operation a new span joins."""

    def __init__(self, op_source=None) -> None:
        self.spans: list[Span] = []
        self.op: "str | None" = None
        self.op_source = op_source
        self._local = threading.local()
        self._ids = itertools.count()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> "str | None":
        if self.op_source is not None:
            return self.op_source()
        return self.op

    def open(self, name: str, **attrs) -> Span:
        stack = self.stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            span_id=f"{os.getpid():x}.{next(self._ids)}",
            parent=stack[-1].span_id if stack else None,
            op=self.current_op(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def adopt(self, records, parent: Span) -> None:
        """Merge spans recorded elsewhere, rooting them under `parent`."""
        for values in records:
            span = Span.from_tuple(values)
            if span.parent is None:
                span.parent = parent.span_id
            span.op = parent.op
            self.spans.append(span)


def blocking_path(spans, root: Span) -> dict:
    """``{layer: seconds}`` over `root`'s interval, summing to its duration.

    Each elementary interval between span boundaries goes to the active
    spans none of whose children are active at that time, split evenly
    between them; a span's name is its layer, and the root's own share
    is reported under :data:`UNATTRIBUTED`.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    events = []
    pending = [(root, 0)]
    while pending:
        span, depth = pending.pop()
        pending.extend((child, depth + 1)
                       for child in children.get(span.span_id, ()))
        lo = max(span.start, root.start)
        hi = min(span.end, root.end)
        if hi > lo:
            events.append((lo, 1, depth, span))
            events.append((hi, 0, -depth, span))
    # At one instant, ends go before starts, children end before their
    # parents, and parents start before their children.
    events.sort(key=lambda event: event[:3])
    active: dict = {}
    active_children: dict = defaultdict(int)
    result: dict = defaultdict(float)
    last = root.start
    for instant, is_start, _, span in events:
        if instant > last and active:
            leaves = [item for key, item in active.items()
                      if active_children[key] == 0]
            share = (instant - last) / len(leaves)
            for leaf in leaves:
                layer = UNATTRIBUTED if leaf is root else leaf.name
                result[layer] += share
        last = max(last, instant)
        if is_start:
            active[span.span_id] = span
            if span.parent in active:
                active_children[span.parent] += 1
        else:
            active.pop(span.span_id, None)
            if span.parent in active:
                active_children[span.parent] -= 1
    return dict(result)
