"""Zero-dependency metrics: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is a named collection of instruments, each
keying its values by a **label set** (a frozen tuple of ``(key,
value)`` pairs).  Counters add, gauges are last-write-wins and
histograms add bucket-wise, in :meth:`MetricsRegistry.merge` too.

The series a simulation run restates (:data:`FOLD_COUNTERS`,
:data:`FOLD_STORE`, :data:`FOLD_GAUGE`, :data:`FOLD_HISTOGRAM`) live in
the registry's :class:`ReportFold`: integer totals fed once per run by
:meth:`MetricsRegistry.fold_run` and rendered as those series by every
snapshot.

:meth:`MetricsRegistry.snapshot` is a JSON-ready view.
:meth:`MetricsRegistry.snapshot_delta` holds the instrument series
written since the last delta (values stay cumulative) in a compact
wire form — ``{"c"|"g"|"h": {series-key: value}}`` keyed by ``name
U+001F labels-json`` — that :func:`expand_delta` turns back into
snapshot shape.  A sharded worker's journal record carries
:meth:`MetricsRegistry.record_delta_json`: that delta plus the fold's.
On the wire, histogram ``bounds`` end with a ``null`` marking the +Inf
bucket, so ``len(bounds) == len(counts)``; ``merge`` accepts bounds
with or without it.

All mutation goes through one registry lock; keep calls coarse (per
batch or per case, never per element).
"""

from __future__ import annotations

import json
import operator
import struct
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
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


def wire_key(name: str, key: LabelKey) -> str:
    """The compact-delta series key: name + U+001F + labels JSON.

    The separator cannot appear in a metric name and the labels ride as
    canonical JSON (sorted, compact), so the key is unambiguous and
    cheap to split.  A label-less series is just the bare name.
    """
    return name + "\x1f" + _compact_json(dict(key)) if key else name


#: A compact-delta histogram value's positions.
_HISTOGRAM_FIELDS = ("bounds", "counts", "sum", "count", "min", "max")


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
    snap: Dict[str, Dict[str, List[dict]]] = {"counters": {}, "gauges": {}, "histograms": {}}
    for section, out in zip("cgh", snap.values()):
        for key, value in delta.get(section, {}).items():
            name, labels = parse_wire_key(key)
            fields = zip(_HISTOGRAM_FIELDS, value) if section == "h" else [("value", value)]
            out.setdefault(name, []).append({"labels": labels, **dict(fields)})
    return snap


def _wire_bounds(bounds: Sequence[object]) -> Tuple[float, ...]:
    """Bucket bounds of a snapshot entry, +Inf marker stripped.

    Snapshots written before the marker existed carry the bare bounds;
    both forms must merge.
    """
    return tuple(float(b) for b in bounds if b is not None)


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
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def absorb(self, counts: Sequence[int], total: float, count: int,
               lo: Optional[float], hi: Optional[float]) -> None:
        """Add another series' buckets and running stats (a merge)."""
        self.counts = [a + b for a, b in zip(self.counts, counts)]
        self.sum += total
        self.count += count
        if count:
            self.min = min(self.min, lo)
            self.max = max(self.max, hi)


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


#: The series the report fold renders: a run's totals, labelled by
#: kernel and STC; its store traffic and the memo's size, unlabelled;
#: its wall seconds, labelled.
FOLD_COUNTERS = ("sim.t1_tasks", "sim.cycles", "sim.cache.hits",
                 "sim.cache.misses", "sim.cache.evictions")
FOLD_STORE = ("store.hits", "store.misses", "store.appends")
FOLD_GAUGE, FOLD_HISTOGRAM = "sim.cache.entries", "sim.run_wall_s"
#: Row slots after the counters: the wall seconds' sum, min and max,
#: then a run count per bucket (+Inf last).
_SUM, _MIN, _MAX, _BUCKETS = 5, 6, 7, 8
_NBUCKETS = len(DEFAULT_BUCKETS) + 1
_INF = float("inf")
#: A row on the wire: its int64s and float64s, little-endian, as hex.
_ROW = struct.Struct(f"<5q3d{_NBUCKETS}q")
_pack_row = _ROW.pack


def _empty_row() -> list:
    return [0] * 5 + [0.0, _INF, -_INF] + [0] * _NBUCKETS


class ReportFold:
    """Totals of finished runs, the home of the series above: ``rows``
    per ``(kernel, stc)`` (:meth:`MetricsRegistry.fold_run` adds each
    run in place), ``store`` totals and the memo size per label set.
    Guarded by its registry's lock."""

    def __init__(self) -> None:
        self.rows: Dict[Tuple[str, str], list] = {}
        self.store = [0, 0, 0]
        self.entries: Dict[LabelKey, float] = {}
        self.dirty: set = set()   #: rows runs changed since the last delta
        self.wire: Dict[Tuple[str, str], str] = {}   #: each row's JSON key, then ``:"``
        #: The store totals and memo size the last delta carried.
        self.sent_store: Optional[list] = None
        self.sent_entries: Optional[float] = None

    def render(self, counters: dict, gauges: dict, histograms: dict) -> None:
        """Add the fold's series to per-name ``{label key: value}`` maps
        (an instrument series of the same name and labels adds in)."""
        for (kernel, stc), row in self.rows.items():
            key = (("kernel", kernel), ("stc", stc))
            for name, n in zip(FOLD_COUNTERS, row):
                series = counters.setdefault(name, {})
                series[key] = series.get(key, 0.0) + n
            runs = sum(row[_BUCKETS:])
            if runs:
                hist = HistogramSeries(DEFAULT_BUCKETS, row[_BUCKETS:], row[_SUM],
                                       runs, row[_MIN], row[_MAX])
                series = histograms.setdefault(FOLD_HISTOGRAM, {})
                if key in series:
                    have = series[key]
                    hist.absorb(have.counts, have.sum, have.count, have.min, have.max)
                series[key] = hist
        for name, n in zip(FOLD_STORE, self.store):
            if n:
                series = counters.setdefault(name, {})
                series[()] = series.get((), 0.0) + n
        for key, n in self.entries.items():
            gauges.setdefault(FOLD_GAUGE, {})[key] = float(n)

    def row(self, key: Tuple[str, str]) -> list:
        """The row of ``key``, a zero row (and its wire key) on first use."""
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = _empty_row()
            self.wire[key] = _compact_json("\x1f".join(key)) + ':"'
        return row


class MetricsRegistry:
    """A named, lockable collection of counters, gauges and histograms,
    plus the report fold."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._fold = ReportFold()
        #: (compact-delta section "c"|"g"|"h", name, label_key) of every
        #: series written since the last ``snapshot_delta()``.
        self._dirty: set = set()

    # -- instrument access (get-or-create) -------------------------------

    @staticmethod
    def _instrument(table: dict, kind: type, name: str, *args):
        """Get or create ``table[name]``; the caller holds the lock."""
        inst = table.get(name)
        if inst is None:
            inst = table[name] = kind(name, *args)
        return inst

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name in FOLD_COUNTERS + FOLD_STORE:   # a copy of what a snapshot shows
                return Counter(name, self._series()[0].get(name, {}))
            return self._instrument(self._counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._instrument(self._gauges, Gauge, name)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            return self._instrument(self._histograms, Histogram, name, tuple(bounds))

    # -- convenience write paths -----------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            self._instrument(self._counters, Counter, name).add(key, value)
            self._dirty.add(("c", name, key))

    def set(self, name: str, value: float, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            self._instrument(self._gauges, Gauge, name).series[key] = float(value)
            self._dirty.add(("g", name, key))

    def observe(self, name: str, value: float, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            self._instrument(self._histograms, Histogram, name).observe_key(key, value)
            self._dirty.add(("h", name, key))

    def fold_run(self, kernel: str, stc: str, counts: Sequence[int],
                 wall_s: float, entries: int) -> None:
        """Fold one finished simulation run into the report fold:
        ``counts`` in :data:`FOLD_COUNTERS` then :data:`FOLD_STORE`
        order, its wall seconds and the memo's size after it.  This
        runs once per engine run, so it works in place on literal row
        slots (a loop over them reads ~1% slower in a warm sweep)."""
        key = (kernel, stc)
        with self._lock:
            fold = self._fold
            row = fold.rows.get(key) or fold.row(key)
            row[0] += counts[0]
            row[1] += counts[1]
            row[2] += counts[2]
            row[3] += counts[3]
            row[4] += counts[4]
            row[5] += wall_s
            if wall_s < row[6]:
                row[6] = wall_s
            if wall_s > row[7]:
                row[7] = wall_s
            row[8 + bisect_left(DEFAULT_BUCKETS, wall_s)] += 1
            fold.dirty.add(key)
            if counts[5] or counts[6] or counts[7]:
                fold.store = [a + b for a, b in zip(fold.store, counts[5:])]
            fold.entries[()] = entries

    # -- snapshot / reset / merge ----------------------------------------

    @staticmethod
    def _histogram_entry(key: LabelKey,
                         series: HistogramSeries) -> Dict[str, object]:
        # The trailing null is the +Inf bucket's bound (module docs).
        return {
            "labels": dict(key),
            "bounds": list(series.bounds) + [None],
            "counts": list(series.counts),
            "sum": series.sum,
            "count": series.count,
            "min": series.min if series.count else None,
            "max": series.max if series.count else None,
        }

    def _series(self) -> Tuple[dict, dict, dict]:
        """Every series as per-name ``{label key: value}`` maps, the
        fold's added in; the caller holds the lock."""
        maps = tuple({name: dict(inst.series) for name, inst in table.items()}
                     for table in (self._counters, self._gauges, self._histograms))
        self._fold.render(*maps)
        return maps

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every series (labels expanded to dicts)."""
        with self._lock:
            counters, gauges, histograms = self._series()
            snap = {section: {name: [{"labels": dict(key), "value": value}
                                     for key, value in sorted(series.items())]
                              for name, series in sorted(maps.items())}
                    for section, maps in (("counters", counters), ("gauges", gauges))}
            snap["histograms"] = {
                name: [self._histogram_entry(key, s) for key, s in sorted(series.items())]
                for name, series in sorted(histograms.items())}
        return snap

    def _delta(self) -> Dict[str, Dict[str, object]]:
        """:meth:`snapshot_delta`, the lock held."""
        out: Dict[str, Dict[str, object]] = {}
        tables = {"c": self._counters, "g": self._gauges, "h": self._histograms}
        for section, name, key in sorted(self._dirty):
            value = tables[section][name].series[key]
            if section == "h":
                value = list(map(self._histogram_entry(key, value).get, _HISTOGRAM_FIELDS))
            out.setdefault(section, {})[wire_key(name, key)] = value
        self._dirty.clear()
        return out

    def snapshot_delta(self) -> Dict[str, object]:
        """The instrument series written since the previous delta, in
        the wire form :func:`expand_delta` decodes (``{}`` when idle).

        Values are **cumulative**, so a reader rebuilds the registry by
        overwriting series as deltas arrive (``repro.obs.telemetry``).
        Clears the dirty set.  The report fold's rows ride
        :meth:`record_delta_json`.
        """
        with self._lock:
            return self._delta()

    def record_delta_json(self) -> str:
        """A worker journal record's ``metrics``, as compact JSON
        (``""`` when nothing changed): ``"r"``, each report-fold row runs
        changed since the last delta as :data:`_ROW` hex by ``kernel
        U+001F stc``; ``"s"`` (the store totals) and ``"e"`` (the memo
        size) if either changed; then :meth:`snapshot_delta`'s sections.
        Values are cumulative.  This is the telemetry gate's price, one
        per finished case, so a plain case's one row joins no list, and
        the lock is taken without a ``with`` (in a loop like the gate's,
        ``with`` read 0.15 us more)."""
        lock = self._lock
        lock.acquire()
        try:
            fold = self._fold
            if not fold.dirty:
                return _compact_json(self._delta()) if self._dirty else ""
            rows, wire, dirty = fold.rows, fold.wire, fold.dirty
            if len(dirty) == 1:
                (key,) = dirty
                body = wire[key] + _pack_row(*rows[key]).hex()
            else:
                body = '",'.join([wire[key] + _pack_row(*rows[key]).hex() for key in dirty])
            dirty.clear()
            store, entries = fold.store, fold.entries[()]
            tail = ""
            if store != fold.sent_store or entries != fold.sent_entries:
                fold.sent_store, fold.sent_entries = store[:], entries
                tail = f',"s":{store!r},"e":{entries!r}'
            if self._dirty:
                tail += "," + _compact_json(self._delta())[1:-1]
        finally:
            lock.release()
        return f'{{"r":{{{body}"}}{tail}}}'

    def reset(self) -> None:
        """Drop every instrument, series and fold total."""
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms, self._dirty):
                table.clear()
            self._fold = ReportFold()

    def merge_fold(self, delta: Dict[str, object], shard: Optional[str] = None) -> None:
        """Add in a record delta's fold part (its ``"r"``, ``"s"`` and
        ``"e"``), as :meth:`record_delta_json` wrote it: rows add, min
        and max widen.  ``shard`` labels the memo size."""
        with self._lock:
            fold = self._fold
            for wire, packed in delta.get("r", {}).items():
                row = _ROW.unpack(bytes.fromhex(packed))
                mine = fold.row(tuple(wire.split("\x1f")))
                mine[:] = [*map(operator.add, mine[:_MIN], row[:_MIN]),
                           min(mine[_MIN], row[_MIN]), max(mine[_MAX], row[_MAX]),
                           *map(operator.add, mine[_BUCKETS:], row[_BUCKETS:])]
            fold.store = [a + b for a, b in zip(fold.store, delta.get("s", (0, 0, 0)))]
            if "e" in delta:
                fold.entries[(("shard", shard),) if shard else ()] = delta["e"]

    def merge(self, other: Union["MetricsRegistry", Dict[str, object]]) -> None:
        """Fold another registry (or its :meth:`snapshot`) into this one.

        Counters and histogram buckets add; gauges take the incoming
        value.  This is the join operation for per-worker registries.
        Series the report fold renders arrive as instrument series; a
        snapshot adds the fold's values to them (see
        :meth:`ReportFold.render`).  Rows travel by :meth:`merge_fold`.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for section, write in (("counters", self.inc), ("gauges", self.set),
                               ("histograms", self._merge_histogram)):
            for name, entries in snap.get(section, {}).items():
                for entry in entries:
                    if section == "histograms":
                        write(name, entry)
                    else:
                        write(name, entry["value"], **entry["labels"])

    def _merge_histogram(self, name: str, entry: Dict[str, object]) -> None:
        key = label_key(entry["labels"])
        bounds = _wire_bounds(entry["bounds"])
        with self._lock:
            hist = self._instrument(self._histograms, Histogram, name)
            series = hist.series.get(key)
            if series is None:
                series = hist.series[key] = HistogramSeries(bounds=bounds)
            if bounds != series.bounds:
                raise ConfigError(f"histogram {name!r} bucket bounds disagree on merge")
            series.absorb(entry["counts"], entry["sum"], entry["count"],
                          entry["min"], entry["max"])
            self._dirty.add(("h", name, key))

    def write_json(self, path: Union[str, Path]) -> None:
        """Dump :meth:`snapshot` as indented JSON."""
        Path(str(path)).write_text(
            json.dumps(self.snapshot(), indent=2) + "\n", encoding="utf-8"
        )
