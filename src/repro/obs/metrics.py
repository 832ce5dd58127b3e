"""Zero-dependency metrics: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is a named collection of instruments.  Each
instrument keys its values by a **label set** (a frozen tuple of
``(key, value)`` pairs), so one logical metric — say
``sim.cache.hits`` — carries independent series per kernel or per STC
without pre-declaring the fan-out.

Semantics are deliberately simple and merge-friendly:

- **Counter** — monotonically increasing float; ``merge`` adds.
- **Gauge** — last-written value; ``merge`` is last-write-wins (the
  incoming snapshot overwrites, which is what per-worker joins want
  for "current" readings like cache occupancy).
- **Histogram** — fixed bucket bounds, per-bucket counts plus running
  ``sum``/``count``/``min``/``max``; ``merge`` adds bucket-wise.

``snapshot()`` returns a plain-dict, JSON-ready view; ``reset()``
zeroes everything; :meth:`MetricsRegistry.merge` folds another
registry's snapshot in, which is how per-worker registries (threads in
the resilient runner, cores in ``simulate_parallel``, or entire
processes) combine at join time.  :meth:`MetricsRegistry.snapshot_delta`
is the streaming variant: just the series written since the last delta
(values stay cumulative), in a **compact wire form** — flat
``{"c"|"g"|"h": {series-key: value}}`` maps whose keys are
``name U+001F labels-json`` strings — because it runs once per finished
case on the telemetry hot path (``repro.obs.telemetry``) where the
verbose snapshot shape would cost more to serialise than it is worth.
Each series is resolved once per label set, on its first write, into
a record of its section, its encoded key and where its value lives, so
a delta does no label work.  :func:`expand_delta` converts the compact
form back to snapshot shape on the (cold) reader side.

On the wire, histogram ``bounds`` carry an explicit ``null`` terminator
marking the +Inf overflow bucket, so ``len(bounds) == len(counts)`` and
bucket counts always sum to ``count``; :meth:`MetricsRegistry.merge`
accepts snapshots with or without the marker.

All mutation goes through one registry lock.  The instruments are
value holders, not live handles: hot paths should keep calls coarse
(per batch / per case, never per element) — the engine's per-run
numbers come from :class:`~repro.sim.blockcache.CacheStats` deltas
precisely so the innermost loops stay untouched.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

#: Compact JSON encoder, built once: ``json.dumps`` with non-default
#: separators constructs a fresh encoder per call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode

#: A label set in canonical (sorted, hashable) form.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds — wide log spacing that covers
#: microsecond spans up to multi-second sweep cases.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0
)


def label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonicalise a label dict (values stringified, keys sorted)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelKey) -> Dict[str, str]:
    return {k: v for k, v in key}


def wire_key(name: str, key: LabelKey) -> str:
    """The compact-delta series key: name + U+001F + labels JSON.

    The separator cannot appear in a metric name and the labels ride as
    canonical JSON (sorted, compact), so the key is unambiguous and
    cheap to split.  A label-less series is just the bare name.
    """
    if not key:
        return name
    return name + "\x1f" + json.dumps(
        _labels_dict(key), sort_keys=True, separators=(",", ":"))


def parse_wire_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a :func:`wire_key` back into (name, labels dict)."""
    name, _, labels_json = key.partition("\x1f")
    return name, (json.loads(labels_json) if labels_json else {})


def expand_delta(delta: Dict[str, object]) -> Dict[str, object]:
    """Convert a compact :meth:`MetricsRegistry.snapshot_delta` to
    snapshot shape (the form :meth:`MetricsRegistry.merge` accepts).

    Histogram values arrive as ``[bounds, counts, sum, count, min,
    max]`` positional lists and leave as full entry dicts.
    """
    counters: Dict[str, List[dict]] = {}
    gauges: Dict[str, List[dict]] = {}
    histograms: Dict[str, List[dict]] = {}
    for section, out in (("c", counters), ("g", gauges)):
        for key, value in delta.get(section, {}).items():
            name, labels = parse_wire_key(key)
            out.setdefault(name, []).append(
                {"labels": labels, "value": value})
    for key, packed in delta.get("h", {}).items():
        name, labels = parse_wire_key(key)
        bounds, counts, total, count, lo, hi = packed
        histograms.setdefault(name, []).append({
            "labels": labels, "bounds": list(bounds),
            "counts": list(counts), "sum": total, "count": count,
            "min": lo, "max": hi,
        })
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


def _wire_bounds(bounds: Sequence[object]) -> Tuple[float, ...]:
    """Bucket bounds of a snapshot entry, +Inf marker stripped.

    Snapshots written before the marker existed carry the bare bounds;
    both forms must merge.
    """
    bounds = list(bounds)
    if bounds and bounds[-1] is None:
        bounds.pop()
    return tuple(float(b) for b in bounds)


@dataclass
class Counter:
    """A monotonically increasing value per label set."""

    name: str
    series: Dict[LabelKey, float] = field(default_factory=dict)

    def inc(self, value: float = 1.0, **labels) -> None:
        self.add(label_key(labels), value)

    def add(self, key: LabelKey, value: float) -> None:
        """:meth:`inc` for a canonical label key."""
        if value < 0:
            raise ConfigError(f"counter {self.name!r} cannot decrease")
        self.series[key] = self.series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self.series.get(label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self.series.values())


@dataclass
class Gauge:
    """A last-written value per label set."""

    name: str
    series: Dict[LabelKey, float] = field(default_factory=dict)

    def set(self, value: float, **labels) -> None:
        self.series[label_key(labels)] = float(value)

    def value(self, **labels) -> Optional[float]:
        return self.series.get(label_key(labels))


@dataclass
class HistogramSeries:
    """Bucket counts plus running stats for one label set."""

    bounds: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.counts:
            # One bucket per bound plus the +inf overflow bucket.
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.sum += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass
class Histogram:
    """Fixed-bucket distribution per label set."""

    name: str
    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    series: Dict[LabelKey, HistogramSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ConfigError(
                f"histogram {self.name!r} bounds must be strictly increasing"
            )
        self.bounds = bounds

    def observe(self, value: float, **labels) -> None:
        self.observe_key(label_key(labels), value)

    def observe_key(self, key: LabelKey, value: float) -> None:
        """:meth:`observe` for a canonical label key."""
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = HistogramSeries(bounds=self.bounds)
        series.observe(float(value))

    def get(self, **labels) -> Optional[HistogramSeries]:
        return self.series.get(label_key(labels))


#: Instrument kind -> its compact-delta section.
_SECTIONS = {"counter": "c", "gauge": "g", "histogram": "h"}


class _Series:
    """One written series, resolved once per label set.

    ``values`` is its instrument's series dict and ``key`` its label
    key in it; ``head`` is its encoded wire key plus ``:``.  ``order``
    sorts deltas by kind (so by section), name and labels.  A
    histogram's ``bounds`` are encoded on its first delta: a series'
    bucket bounds never change.
    """

    __slots__ = ("order", "section", "head", "values", "key", "bounds")

    def __init__(self, kind: str, name: str, key: LabelKey, values: dict) -> None:
        self.order = (kind, name, key)
        self.section = _SECTIONS[kind]
        self.head = _compact_json(wire_key(name, key)) + ":"
        self.values = values
        self.key = key
        self.bounds = None


_series_order = attrgetter("order")


class MetricsRegistry:
    """A named, lockable collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Every series written through the registry, by
        #: ("counter"|"gauge"|"histogram", name, label_key).
        self._series: Dict[Tuple[str, str, LabelKey], _Series] = {}
        #: Series written since the last ``snapshot_delta_json()``.
        self._dirty: set = set()

    # -- instrument access (get-or-create) -------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, tuple(bounds))
            return inst

    # -- convenience write paths -----------------------------------------

    def _touch(self, kind: str, name: str, key: LabelKey, values: dict) -> None:
        """Mark a series written; the caller holds the lock."""
        series = self._series.get((kind, name, key))
        if series is None:
            series = self._series[kind, name, key] = _Series(kind, name, key, values)
        self._dirty.add(series)

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            inst.add(key, value)
            self._touch("counter", name, key, inst.series)

    def set(self, name: str, value: float, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            inst.series[key] = float(value)
            self._touch("gauge", name, key, inst.series)

    def observe(self, name: str, value: float, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name)
            inst.observe_key(key, value)
            self._touch("histogram", name, key, inst.series)

    # -- snapshot / reset / merge ----------------------------------------

    @staticmethod
    def _histogram_entry(key: LabelKey,
                         series: HistogramSeries) -> Dict[str, object]:
        # The trailing null is the explicit +Inf bucket bound, so a
        # consumer zipping bounds with counts sees the overflow bucket
        # instead of silently dropping it.
        return {
            "labels": _labels_dict(key),
            "bounds": list(series.bounds) + [None],
            "counts": list(series.counts),
            "sum": series.sum,
            "count": series.count,
            "min": series.min if series.count else None,
            "max": series.max if series.count else None,
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every series (labels expanded to dicts)."""
        with self._lock:
            return {
                "counters": {
                    name: [
                        {"labels": _labels_dict(key), "value": value}
                        for key, value in sorted(inst.series.items())
                    ]
                    for name, inst in sorted(self._counters.items())
                },
                "gauges": {
                    name: [
                        {"labels": _labels_dict(key), "value": value}
                        for key, value in sorted(inst.series.items())
                    ]
                    for name, inst in sorted(self._gauges.items())
                },
                "histograms": {
                    name: [
                        self._histogram_entry(key, series)
                        for key, series in sorted(inst.series.items())
                    ]
                    for name, inst in sorted(self._histograms.items())
                },
            }

    def snapshot_delta(self) -> Dict[str, object]:
        """:meth:`snapshot_delta_json`, parsed (``{}`` when idle)."""
        text = self.snapshot_delta_json()
        return json.loads(text) if text else {}

    def snapshot_delta_json(self) -> str:
        """The series written since the previous delta, as compact JSON.

        Values are **cumulative** (the series' current value, not an
        increment), so a reader can reconstruct exact registry state by
        overwriting series as deltas arrive — the replay rule
        ``repro.obs.telemetry`` folds streamed worker metrics with.

        The shape is the flat wire form :func:`expand_delta` decodes:
        ``{"c": {wire_key: value}, "g": {...}, "h": {wire_key:
        [bounds, counts, sum, count, min, max]}}``, empty sections
        omitted (``""`` when idle).  This runs once per finished case
        in telemetry workers, so each dirty series arrives resolved
        (:class:`_Series`) and numbers are encoded by hand, exactly as
        ``json`` would (a ``repr`` for ints and finite floats).  Clears
        the dirty set.
        """
        with self._lock:
            if not self._dirty:
                return ""
            dirty = sorted(self._dirty, key=_series_order)
            self._dirty.clear()
            text = section = ""
            for series in dirty:
                value = series.values.get(series.key)
                if value is None:
                    continue
                if type(value) is HistogramSeries:
                    if series.bounds is None:
                        series.bounds = "[" + _compact_json(list(value.bounds) + [None])
                    value = series.bounds + "," + _compact_json(
                        [value.counts, value.sum, value.count,
                         value.min if value.count else None,
                         value.max if value.count else None])[1:]
                elif type(value) is int or (type(value) is float and value - value == 0.0):
                    value = repr(value)
                else:
                    value = _compact_json(value)
                if series.section != section:
                    text += f'{"}," if section else ""}"{series.section}":{{'
                    section = series.section
                else:
                    text += ","
                text += series.head + value
            return "{" + text + "}}" if text else ""

    def reset(self) -> None:
        """Drop every instrument and series."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._series.clear()
            self._dirty.clear()

    def merge(self, other: Union["MetricsRegistry", Dict[str, object]]) -> None:
        """Fold another registry (or its :meth:`snapshot`) into this one.

        Counters and histogram buckets add; gauges take the incoming
        value.  This is the join operation for per-worker registries.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, entries in snap.get("counters", {}).items():
            for entry in entries:
                self.inc(name, entry["value"], **entry["labels"])
        for name, entries in snap.get("gauges", {}).items():
            for entry in entries:
                self.set(name, entry["value"], **entry["labels"])
        for name, entries in snap.get("histograms", {}).items():
            hist = self.histogram(name)
            for entry in entries:
                key = label_key(entry["labels"])
                bounds = _wire_bounds(entry["bounds"])
                with self._lock:
                    series = hist.series.get(key)
                    if series is None:
                        series = hist.series[key] = HistogramSeries(
                            bounds=bounds
                        )
                    if bounds != series.bounds:
                        raise ConfigError(
                            f"histogram {name!r} bucket bounds disagree on merge"
                        )
                    series.counts = [
                        a + b for a, b in zip(series.counts, entry["counts"])
                    ]
                    series.sum += entry["sum"]
                    series.count += entry["count"]
                    if entry["count"]:
                        series.min = min(series.min, entry["min"])
                        series.max = max(series.max, entry["max"])
                    self._touch("histogram", name, key, hist.series)

    def write_json(self, path: Union[str, Path]) -> None:
        """Dump :meth:`snapshot` as indented JSON."""
        Path(str(path)).write_text(
            json.dumps(self.snapshot(), indent=2) + "\n", encoding="utf-8"
        )
