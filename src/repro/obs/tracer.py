"""Span-based tracing with Chrome ``trace_event`` and JSONL exporters.

A :class:`Tracer` records **spans** (named, attributed intervals) and
**instant events** (zero-duration markers such as a retry or a cache
eviction storm).  Spans nest via a per-thread stack, so

.. code-block:: python

    with tracer.span("sweep"):
        with tracer.span("matrix", matrix="cant"):
            ...

produces parent/child records that Chrome's ``chrome://tracing`` (or
Perfetto) renders as stacked bars per thread.  Two export formats:

- :meth:`Tracer.chrome_trace` / :meth:`write_chrome_trace` — the
  ``trace_event`` JSON object format (``{"traceEvents": [...]}``) with
  complete (``"ph": "X"``) events for spans and instant (``"ph": "i"``)
  events for markers; timestamps are microseconds from the tracer
  epoch, as the format requires.
- :meth:`write_jsonl` — one JSON object per line, append-friendly and
  greppable, for log pipelines.

The **disabled fast path** matters more than the enabled one: the
module-level helpers in :mod:`repro.obs` return the shared
:data:`NULL_SPAN` singleton without touching the tracer at all, so
instrumented hot paths cost one attribute check when observability is
off (<2% of warm-sweep time; measured by ``repro bench``'s ``obs``
section).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union


class _NullSpan:
    """Shared no-op span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        return None


#: The singleton handed out on every disabled ``span()`` call.
NULL_SPAN = _NullSpan()


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    ts_us: float          # start, microseconds from tracer epoch
    dur_us: float
    tid: int
    depth: int            # nesting depth on its thread (0 = root)
    parent: Optional[str] = None
    args: Dict[str, object] = field(default_factory=dict)
    pid: Optional[int] = None   #: foreign process; None = the tracer's own


@dataclass
class EventRecord:
    """One instant event."""

    name: str
    ts_us: float
    tid: int
    args: Dict[str, object] = field(default_factory=dict)
    pid: Optional[int] = None   #: foreign process; None = the tracer's own


class Span:
    """A live span; use as a context manager (or ``start()``/``finish()``)."""

    __slots__ = ("_tracer", "name", "args", "_start", "_tid", "_depth", "_parent")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0
        self._tid = 0
        self._depth = 0
        self._parent: Optional[str] = None

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on the live span."""
        self.args.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Record an instant event while this span is open."""
        self._tracer.instant(name, **attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = getattr(tracer._local, "stack", None) or tracer._stack()
        self._parent = stack[-1].name if stack else None
        self._depth = len(stack)
        stack.append(self)
        self._tid = threading.get_ident()
        self._start = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer.clock()
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:           # tolerate out-of-order exits
            stack.remove(self)
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        # Positional: this runs once per span while tracing.
        record = SpanRecord(self.name, (self._start - tracer.epoch) * 1e6,
                            (end - self._start) * 1e6, self._tid, self._depth,
                            self._parent, self.args)
        with tracer._lock:
            tracer.spans.append(record)
        return False


class Tracer:
    """Collects spans and instant events; exports Chrome trace / JSONL."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.epoch = clock()
        #: Wall-clock time of the epoch — the cross-process anchor the
        #: telemetry stitcher rebases worker timestamps against.
        self.epoch_wall = time.time()
        self.pid = os.getpid()
        #: Chrome ``process_name`` labels per pid (stitched campaigns).
        self.process_labels: Dict[int, str] = {}
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a new (nested) span on the calling thread."""
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration marker event."""
        record = EventRecord(
            name=name,
            ts_us=(self.clock() - self.epoch) * 1e6,
            tid=threading.get_ident(),
            args=attrs,
        )
        with self._lock:
            self.events.append(record)

    def clear(self) -> None:
        """Drop every recorded span and event (open spans keep running)."""
        with self._lock:
            self.spans.clear()
            self.events.clear()

    def drain(self, span_start: int, event_start: int
              ) -> "Tuple[List[SpanRecord], List[EventRecord]]":
        """Finished records past the given indices (streaming export).

        The record lists are append-only while recording, so a caller
        holding ``(span_start, event_start)`` cursors and advancing
        them by the returned lengths reads each record exactly once —
        the telemetry writer's incremental span flush.
        """
        with self._lock:
            return (list(self.spans[span_start:]),
                    list(self.events[event_start:]))

    def adopt(self, spans: "Sequence[SpanRecord]",
              events: "Sequence[EventRecord]") -> None:
        """Append already-rebased foreign records (cross-process stitch)."""
        with self._lock:
            self.spans.extend(spans)
            self.events.extend(events)

    def merge(self, other: "Tracer") -> None:
        """Adopt another tracer's finished records (per-worker join).

        The other tracer's timestamps are re-based onto this tracer's
        epoch so merged timelines line up.
        """
        shift_us = (other.epoch - self.epoch) * 1e6
        with self._lock:
            for span in other.spans:
                self.spans.append(SpanRecord(
                    name=span.name, ts_us=span.ts_us + shift_us,
                    dur_us=span.dur_us, tid=span.tid, depth=span.depth,
                    parent=span.parent, args=span.args, pid=span.pid,
                ))
            for event in other.events:
                self.events.append(EventRecord(
                    name=event.name, ts_us=event.ts_us + shift_us,
                    tid=event.tid, args=event.args, pid=event.pid,
                ))

    # -- export -----------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The ``trace_event`` object-format document for chrome://tracing.

        Records adopted from other processes keep their real pid, so a
        stitched campaign renders one track per worker; pids named in
        :attr:`process_labels` get ``process_name`` metadata events.
        """
        trace_events: List[Dict[str, object]] = []
        with self._lock:
            for span in self.spans:
                trace_events.append({
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.ts_us,
                    "dur": span.dur_us,
                    "pid": span.pid if span.pid is not None else self.pid,
                    "tid": span.tid,
                    "args": dict(span.args),
                })
            for event in self.events:
                trace_events.append({
                    "name": event.name,
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "ts": event.ts_us,
                    "pid": event.pid if event.pid is not None else self.pid,
                    "tid": event.tid,
                    "args": dict(event.args),
                })
            labels = dict(self.process_labels)
        trace_events.sort(key=lambda e: e["ts"])
        metadata = [
            {"name": "process_name", "cat": "__metadata", "ph": "M",
             "ts": 0, "pid": pid, "tid": 0, "args": {"name": label}}
            for pid, label in sorted(labels.items())
        ]
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs"},
        }

    def write_chrome_trace(self, path: Union[str, Path]) -> None:
        Path(str(path)).write_text(
            json.dumps(self.chrome_trace(), indent=1) + "\n", encoding="utf-8"
        )

    def write_jsonl(self, path: Union[str, Path]) -> None:
        """One JSON object per span/event, in timestamp order."""
        rows: List[Dict[str, object]] = []
        with self._lock:
            for span in self.spans:
                rows.append({
                    "type": "span", "name": span.name, "ts_us": span.ts_us,
                    "dur_us": span.dur_us, "tid": span.tid,
                    "depth": span.depth, "parent": span.parent,
                    "pid": span.pid if span.pid is not None else self.pid,
                    "args": dict(span.args),
                })
            for event in self.events:
                rows.append({
                    "type": "event", "name": event.name, "ts_us": event.ts_us,
                    "tid": event.tid,
                    "pid": event.pid if event.pid is not None else self.pid,
                    "args": dict(event.args),
                })
        rows.sort(key=lambda r: r["ts_us"])
        with open(str(path), "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")

    # -- analysis ---------------------------------------------------------

    def summarise(self) -> List[Dict[str, object]]:
        """Aggregate finished spans by name: count / total / mean / max.

        Rows are sorted by total time descending — the ``repro
        profile`` table.
        """
        agg: Dict[str, Dict[str, float]] = {}
        with self._lock:
            for span in self.spans:
                row = agg.setdefault(
                    span.name, {"count": 0, "total_us": 0.0, "max_us": 0.0}
                )
                row["count"] += 1
                row["total_us"] += span.dur_us
                row["max_us"] = max(row["max_us"], span.dur_us)
        out = [
            {
                "name": name,
                "count": int(row["count"]),
                "total_ms": row["total_us"] / 1e3,
                "mean_us": row["total_us"] / row["count"],
                "max_us": row["max_us"],
            }
            for name, row in agg.items()
        ]
        out.sort(key=lambda r: r["total_ms"], reverse=True)
        return out
