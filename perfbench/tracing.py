"""In-memory spans for the traced benchmark run.

A span is one interval the benchmark spent inside a call into one layer
of ``repro`` (``sync.construct``, ``sweep.execute_spec``, ...).  Spans
carry a name, start and end (``time.perf_counter`` seconds), the id of
the enclosing span and the id of the operation they belong to.  They stay
in memory while the workload runs and are written out once, as JSON
lines, when the run ends.

With tracing off the benchmark passes :data:`NULL_TRACER`, whose ``span``
is a shared no-op context, so the untraced path pays one method call per
operation.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import IO, Any, Dict, Iterator, List, Optional

__all__ = ["NULL_TRACER", "Span", "Tracer", "engine_spans", "self_times"]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def wall(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class _Open:
    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span.sid)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *_exc: Any) -> None:
        self.span.end = time.perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """Collects spans; nesting follows the ``with`` blocks."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    def span(self, name: str, **attrs: Any) -> _Open:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, self.op, attrs)
        self.spans.append(span)
        return _Open(self, span)

    def add(
        self, name: str, start: float, end: float, op: Optional[int] = None, **attrs: Any
    ) -> Span:
        """Record an interval measured elsewhere (e.g. in a sweep worker)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, start, parent, op, attrs)
        span.end = end
        self.spans.append(span)
        return span

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def write_jsonl(self, fh: IO[str], **fields: Any) -> None:
        """Append every span as one JSON line (plus ``fields``) to ``fh``."""
        for span in self.spans:
            fh.write(json.dumps({**span.as_dict(), **fields}, sort_keys=True) + "\n")


class _NullOpen:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc: Any) -> None:
        return None


_NULL_OPEN = _NullOpen()


class _NullTracer:
    enabled = False
    # Shared by every untraced run, so the current-operation slot keeps nothing.
    op = property(lambda self: None, lambda self, value: None)

    def span(self, name: str, **attrs: Any) -> _NullOpen:
        return _NULL_OPEN

    def add(self, name: str, start: float, end: float, op=None, **attrs: Any) -> None:
        return None


NULL_TRACER = _NullTracer()


def _covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total wall and self time.

    A span's self time is its wall time minus the part of its interval
    that its child spans cover (children clipped to the parent, overlaps
    counted once, since sweep cells run concurrently on two workers).
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        kids = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
            if c.end > span.start and c.start < span.end
        ]
        row = table.setdefault(span.name, {"count": 0, "wall_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["wall_s"] += span.wall
        row["self_s"] += span.wall - _covered(kids)
    return table


def _spanned(cls, layer: str, tracer: Tracer):
    """A subclass of engine ``cls`` whose construction and run are spans."""

    class Spanned(cls):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            with tracer.span(f"{layer}.construct") as span:
                super().__init__(*args, **kwargs)
            span.attrs.update(n=self.n, mode=getattr(self, "mode", None))

        def run(self, *args: Any, **kwargs: Any):
            with tracer.span(f"{layer}.run") as span:
                result = super().run(*args, **kwargs)
            lanes = result if isinstance(result, list) else [result]
            span.attrs["seeds"] = len(lanes)
            span.attrs["messages"] = sum(r.messages for r in lanes)
            if hasattr(result, "events"):
                span.attrs["events"] = result.events
            return result

    Spanned.__name__ = cls.__name__
    Spanned.__qualname__ = cls.__qualname__
    return Spanned


@contextlib.contextmanager
def engine_spans(tracer: Tracer) -> Iterator[None]:
    """Span every engine construction and run started inside the block.

    ``repro.sweep.api`` imports the engine classes when it executes a
    spec, so putting a spanned subclass in each engine module records the
    calls from the dispatch layer into the engines without touching the
    program.  ``sweep.execute_spec``'s self time is then the dispatch
    layer's own cost.  Sweep workers are other processes: their spans are
    not collected.
    """
    import repro.asyncnet.engine as asyncnet
    import repro.fastsync as fastsync
    import repro.fastsync.engine as fastsync_engine
    import repro.sync.engine as sync

    fast = _spanned(fastsync_engine.FastSyncNetwork, "fastsync", tracer)
    swaps = [
        (sync, "SyncNetwork", _spanned(sync.SyncNetwork, "sync", tracer)),
        (asyncnet, "AsyncNetwork", _spanned(asyncnet.AsyncNetwork, "asyncnet", tracer)),
        (fastsync, "FastSyncNetwork", fast),
        (fastsync_engine, "FastSyncNetwork", fast),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in swaps]
    for module, name, cls in swaps:
        setattr(module, name, cls)
    try:
        yield
    finally:
        for module, name, cls in saved:
            setattr(module, name, cls)
