"""Span-based tracing: nested, timed intervals on named tracks.

The repository's one tracer.  A :class:`Span` is an interval
``[start, end]`` on a *track* (one per replica, ordering node,
frontend, or logical subsystem such as ``consensus``), optionally
nested under a parent span; an :class:`Instant` is a zero-duration
marker on a track -- the message log is one instant per send on the
``network`` track (:class:`repro.obs.Observability`, ``messages=True``).
Span trees (:meth:`SpanTracer.tree`) ignore instants.

Two nesting styles coexist:

- **auto-nesting** -- ``begin(name, track)`` with no explicit parent
  parents to the innermost open auto-nested span on the same track, so
  call-stack-shaped instrumentation never threads handles around;
- **explicit trees** -- ``begin(..., parent=span)`` or
  ``begin(..., root=True)`` place a span precisely, for lifecycles
  (consensus instances, blocks) that interleave on one track.

Orphan detection: a span whose parent ends before it, or that is still
open when :meth:`SpanTracer.close` runs, is an *orphan* -- a lifecycle
that never completed (a sync phase that never SYNCed, a block that was
cut but never matched).  Orphans are first-class queryable output, not
an error.

Exporters live in :mod:`repro.obs.export` (Chrome trace-event JSON and
ASCII critical paths).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    """One timed interval on a track."""

    sid: int
    name: str
    track: str
    category: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker on a track."""

    name: str
    track: str
    time: float
    args: Dict[str, Any] = field(default_factory=dict)


class SpanTracer:
    """Records spans against a (simulated) clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock
        self._ids = itertools.count()
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._auto_open: Dict[str, List[Span]] = {}
        self._children: Dict[int, List[Span]] = {}
        self._orphans: List[Span] = []
        self._orphan_ids: set[int] = set()
        self.closed = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def _now(self, at: Optional[float]) -> float:
        if at is not None:
            return at
        if self._clock is None:
            raise RuntimeError("tracer has no clock bound; pass at= or bind_clock()")
        return self._clock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        track: str,
        category: str = "",
        parent: Optional[Span] = None,
        root: bool = False,
        at: Optional[float] = None,
        **args: Any,
    ) -> Span:
        """Open a span.

        With neither ``parent`` nor ``root``, the span auto-parents to
        the innermost open auto-nested span on the same track.
        """
        if self.closed:
            raise RuntimeError("tracer already closed")
        if root and parent is not None:
            raise ValueError("a span cannot be both root and parented")
        start = self._now(at)
        stack = self._auto_open.setdefault(track, [])
        if root:
            parent_id: Optional[int] = None
        elif parent is not None:
            if parent.end is not None:
                raise ValueError(f"parent span {parent.name!r} already ended")
            parent_id = parent.sid
        else:
            parent_id = stack[-1].sid if stack else None
        span = Span(
            sid=next(self._ids),
            name=name,
            track=track,
            category=category,
            start=start,
            parent=parent_id,
            args=dict(args),
        )
        self.spans.append(span)
        if parent_id is not None:
            self._children.setdefault(parent_id, []).append(span)
        if not root and parent is None:
            stack.append(span)
        return span

    def end(self, span: Span, at: Optional[float] = None, **args: Any) -> Span:
        """Close a span.  Closing a span with open children orphans them."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already ended")
        span.end = self._now(at)
        if span.end < span.start:
            raise ValueError(
                f"span {span.name!r} would end before it starts "
                f"({span.end} < {span.start})"
            )
        span.args.update(args)
        for child in self._children.get(span.sid, ()):
            if child.open:
                self._mark_orphan(child)
        stack = self._auto_open.get(span.track, [])
        if span in stack:
            del stack[stack.index(span) :]
        return span

    def instant(
        self, name: str, track: str, at: Optional[float] = None, **args: Any
    ) -> Instant:
        marker = Instant(name=name, track=track, time=self._now(at), args=dict(args))
        self.instants.append(marker)
        return marker

    def _mark_orphan(self, span: Span) -> None:
        if span.sid not in self._orphan_ids:
            self._orphan_ids.add(span.sid)
            self._orphans.append(span)

    def close(self) -> List[Span]:
        """Finish tracing: every still-open span becomes an orphan."""
        self.closed = True
        for span in self.spans:
            if span.open:
                self._mark_orphan(span)
        self._auto_open.clear()
        return list(self._orphans)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def orphans(self) -> List[Span]:
        """Spans flagged as orphaned (never properly completed)."""
        return list(self._orphans)

    def children(self, span: Span) -> List[Span]:
        return list(self._children.get(span.sid, ()))

    def roots(self, track: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.parent is None and (track is None or s.track == track)
        ]

    def tracks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        for marker in self.instants:
            seen.setdefault(marker.track, None)
        return list(seen)

    def tree(self, track: Optional[str] = None) -> List[Dict[str, Any]]:
        """A normalized, id-free nested view -- stable across runs of
        the same seeded scenario, used by the golden-file tests."""

        def node(span: Span) -> Dict[str, Any]:
            return {
                "name": span.name,
                "track": span.track,
                "category": span.category,
                "start": span.start,
                "end": span.end,
                "args": {k: span.args[k] for k in sorted(span.args)},
                "children": [
                    node(child)
                    for child in sorted(
                        self.children(span), key=lambda s: (s.start, s.sid)
                    )
                ],
            }

        return [
            node(span)
            for span in sorted(self.roots(track), key=lambda s: (s.start, s.sid))
        ]
