"""Observability: metrics, tracing and profiling for the simulation stack.

This package is the cross-cutting instrumentation layer: the engine,
the parallel partitioner, sweeps, the resilient runner, the bench
harness and the application case studies all emit through the
module-level helpers here.

**Off by default.**  Until :func:`enable` is called, :func:`span`
returns the shared no-op :data:`~repro.obs.tracer.NULL_SPAN` and the
metric helpers return immediately — one boolean check per call site,
so dormant instrumentation costs <2% of warm-sweep time (``repro
bench`` measures this in its ``obs`` section).

A simulation run's ``sim.*`` and ``store.{hits,misses,appends}``
series come from its report, folded in once per run
(:meth:`~repro.obs.metrics.MetricsRegistry.fold_run`).

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("simulate", kernel="spmv"):
        ...
    obs.tracer().write_chrome_trace("trace.json")   # chrome://tracing
    obs.metrics().write_json("metrics.json")
    obs.disable()

The CLI exposes the same switch as ``--trace FILE`` / ``--metrics
FILE`` on ``kernels``, ``corpus``, ``bench`` and ``faults``, plus a
dedicated ``repro profile`` subcommand.  See ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.journal import JournalReader, JournalWriter
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    expand_delta,
)
from repro.obs.stitch import stitch_chrome_trace, stitch_into_tracer
from repro.obs.telemetry import (
    STATUS_KIND,
    STATUS_SCHEMA,
    CampaignMonitor,
    MetricsFold,
    check_status,
)
from repro.obs.tracer import NULL_SPAN, EventRecord, Span, SpanRecord, Tracer

__all__ = [
    "CampaignMonitor",
    "Counter",
    "EventRecord",
    "Gauge",
    "Histogram",
    "JournalReader",
    "JournalWriter",
    "MetricsFold",
    "MetricsRegistry",
    "NULL_SPAN",
    "STATUS_KIND",
    "STATUS_SCHEMA",
    "Span",
    "SpanRecord",
    "Tracer",
    "check_status",
    "disable",
    "enable",
    "enabled",
    "event",
    "expand_delta",
    "inc",
    "metrics",
    "observe",
    "set_gauge",
    "span",
    "stitch_chrome_trace",
    "stitch_into_tracer",
    "tracer",
]

_ENABLED: bool = False
_TRACER: Optional[Tracer] = None
_METRICS: Optional[MetricsRegistry] = None


def enable(fresh: bool = True) -> Tracer:
    """Turn observability on; returns the active tracer.

    ``fresh=True`` (the default) starts a new tracer/registry so the
    artifacts cover exactly the work that follows; ``fresh=False``
    re-enables the existing ones to keep accumulating.
    """
    global _ENABLED, _TRACER, _METRICS
    if fresh or _TRACER is None:
        _TRACER = Tracer()
    if fresh or _METRICS is None:
        _METRICS = MetricsRegistry()
    _ENABLED = True
    return _TRACER


def disable() -> None:
    """Turn observability off (recorded data stays readable)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


def tracer() -> Tracer:
    """The active tracer (created on first use, even while disabled)."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER


def metrics() -> MetricsRegistry:
    """The active metrics registry (created on first use)."""
    global _METRICS
    if _METRICS is None:
        _METRICS = MetricsRegistry()
    return _METRICS


# -- hot-path helpers (the disabled branch is the one that matters) ------


def span(name: str, **attrs):
    """A tracing span, or the shared no-op when disabled."""
    if not _ENABLED:
        return NULL_SPAN
    return _TRACER.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """An instant marker event (retry, timeout, eviction, ...)."""
    if not _ENABLED:
        return
    _TRACER.instant(name, **attrs)


def inc(name: str, value: float = 1.0, **labels) -> None:
    """Increment a counter metric."""
    if not _ENABLED:
        return
    _METRICS.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge metric."""
    if not _ENABLED:
        return
    _METRICS.set(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation."""
    if not _ENABLED:
        return
    _METRICS.observe(name, value, **labels)
