"""Streaming campaign telemetry across the supervisor/worker boundary.

Workers append small JSON records to a per-shard
``<shard>.telemetry.jsonl`` file; the supervisor (and the ``repro
top`` viewer, which is just another reader) tails those files
incrementally to maintain a live :func:`CampaignMonitor.status` model
and to fold a crashed worker's metrics in without waiting for a clean
exit.

Wire format — one JSON object per line, three record kinds:

``beat``
    Liveness: wall time (``t_us``, integer microseconds since the
    epoch), done count, phase.  Emitted at startup and on
    the worker's heartbeat cadence.  Every record is a flushed append,
    so the file's mtime is the worker's last sign of life; the
    supervisor's watchdog reads nothing else.
``progress``
    A ``beat`` plus a metrics **delta**: the cumulative values of every
    registry series written since the previous progress record, in the
    compact wire form of
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot_delta_json`
    (decoded by :func:`~repro.obs.metrics.expand_delta`).
    Emitted per finished case, aligned with the shard journal — the
    resilient runner flushes the journal line *before* its progress
    callback fires, so the union of progress records at any SIGKILL
    covers exactly the journaled cases.
``spans``
    Finished tracer spans/events since the last flush, plus the worker
    tracer's wall-clock epoch for cross-process rebasing (see
    :mod:`repro.obs.stitch`).

Every record carries the shard id, the writer's pid and an ``inst``
incarnation token.  A respawned worker appends to the same file under
a fresh token; :class:`MetricsFold` replays each incarnation
independently — cumulative values *overwrite* within an incarnation,
final states *add* across incarnations — so a crash followed by a
journal-resume never double-counts a case's metrics.

Tailing follows the checkpoint-journal hardening contract
(:func:`repro.resilience.runner.read_raw_journal`): a partial trailing line
is held until its newline arrives, a malformed final line is held as a
torn write, and malformed *interior* data raises
:class:`~repro.errors.TelemetryError`.  Truncation or rotation
(the file shrank, or vanished and came back) restarts from offset
zero; a seen-set keyed on ``(inst, seq)`` deduplicates records that
were already delivered before the reset.
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.errors import TelemetryError
from repro.obs.metrics import MetricsRegistry, expand_delta, label_key
from repro.obs.tracer import Tracer

logger = logging.getLogger(__name__)

#: Telemetry record schema; bumped on incompatible layout changes.
#: Schema 2 stamps records with integer ``t_us`` (schema 1: float ``t``
#: seconds, whose ``repr`` costs about 3x an integer's on every record).
TELEMETRY_SCHEMA = 2

#: Campaign status document identity.
STATUS_KIND = "repro.exec.status"
STATUS_SCHEMA = 1

#: Worker phases that mean "this incarnation will write no more".
TERMINAL_PHASES = ("finished", "recycling", "terminated", "aborted")

#: Samples kept per shard for the cases/s estimate.
_RATE_WINDOW = 32

#: A shard slower than this fraction of the median rate is flagged.
_SLOW_FACTOR = 0.5


def telemetry_path(workdir: Union[str, Path], shard_id: str) -> Path:
    """Canonical telemetry file location for one shard."""
    return Path(str(workdir)) / f"{shard_id}.telemetry.jsonl"


# ---------------------------------------------------------------------------
# writer (worker side)
# ---------------------------------------------------------------------------


class TelemetryWriter:
    """Appends one shard's telemetry records (worker side).

    Thread-safe: the per-case ``case_done`` calls come from the
    runner's thread while ``beat`` rides the heartbeat thread.  Every
    write is one flushed line, so the supervisor's tailer never sees a
    torn interior record from a live writer.  I/O failures are logged
    and swallowed — telemetry must never take the shard down.
    """

    def __init__(
        self,
        path: Union[str, Path],
        shard_id: str,
        total: int,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._path = Path(str(path))
        self._shard = shard_id
        self._total = int(total)
        self._registry = registry
        self._tracer = tracer
        self._clock = clock
        self._pid = os.getpid()
        # Unique per process incarnation even if the OS recycles pids.
        self._inst = f"{self._pid}-{os.urandom(3).hex()}"
        ident = (f'"shard":{json.dumps(shard_id)},"pid":{self._pid},'
                 f'"inst":"{self._inst}","total":{self._total}')
        #: Each record kind's fixed head: every field before ``seq``.
        self._heads = {kind: f'{{"v":{TELEMETRY_SCHEMA},"kind":"{kind}",{ident},"seq":'
                       for kind in ("beat", "progress", "spans")}
        self._seq = 0
        self._done = 0
        self._lock = threading.Lock()
        self._handle = None
        self._span_idx = 0
        self._event_idx = 0

    # -- record assembly (caller holds the lock) -------------------------

    def _record(self, kind: str, phase: str, extra: str = "") -> None:
        """Append one record: the base fields, then ``extra`` (encoded
        ``,"field":value`` pairs), in one unbuffered ``write()``.

        Every base field is a writer-controlled scalar, so the line is
        assembled by hand from the kind's precomputed head: ``json.dumps``
        of a dict form costs more than the rest of a per-case emission
        combined.
        """
        seq = self._seq
        self._seq += 1
        phase_json = '"running"' if phase == "running" else json.dumps(phase)
        data = (f'{self._heads[kind]}{seq},"t_us":{int(self._clock() * 1e6)},'
                f'"phase":{phase_json},"done":{self._done}{extra}}}\n').encode()
        try:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self._path, "ab", buffering=0)
            while data:
                data = data[self._handle.write(data):]
        except OSError:
            logger.warning("could not append telemetry record to %s",
                           self._path, exc_info=True)

    def _progress_locked(self, phase: str) -> None:
        delta = "" if self._registry is None else self._registry.snapshot_delta_json()
        self._record("progress", phase, ',"metrics":' + delta if delta else "")

    def _flush_spans_locked(self, phase: str) -> None:
        if self._tracer is None:
            return
        spans, events = self._tracer.drain(self._span_idx, self._event_idx)
        if not spans and not events:
            return
        self._span_idx += len(spans)
        self._event_idx += len(events)
        spans = [
            {"name": s.name, "ts_us": s.ts_us, "dur_us": s.dur_us,
             "tid": s.tid, "depth": s.depth, "parent": s.parent,
             "args": dict(s.args)}
            for s in spans
        ]
        events = [
            {"name": e.name, "ts_us": e.ts_us, "tid": e.tid,
             "args": dict(e.args)}
            for e in events
        ]
        self._record("spans", phase,
                     f',"epoch_wall_s":{json.dumps(self._tracer.epoch_wall)},'
                     f'"spans":{json.dumps(spans)},"events":{json.dumps(events)}')

    # -- public emit points ----------------------------------------------

    def start(self, done: int = 0) -> None:
        """First record: the shard exists and is starting (or resuming)."""
        with self._lock:
            self._done = int(done)
            self._record("beat", "starting")

    def case_done(self, done: int) -> None:
        """Journal-aligned progress record with the metrics delta."""
        with self._lock:
            self._done = int(done)
            self._progress_locked("running")

    def beat(self) -> None:
        """Heartbeat-cadence liveness record plus a span flush."""
        with self._lock:
            self._record("beat", "running")
            self._flush_spans_locked("running")

    def finish(self, phase: str = "finished") -> None:
        """Terminal records: final span flush, then a final progress."""
        with self._lock:
            self._flush_spans_locked(phase)
            self._progress_locked(phase)
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


# ---------------------------------------------------------------------------
# tailer (supervisor / viewer side)
# ---------------------------------------------------------------------------


class TelemetryTailer:
    """Incremental reader of one shard's telemetry JSONL."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(str(path))
        self._offset = 0
        self._seen: set = set()
        self.rotations = 0   #: truncation/rotation resets observed

    def poll(self) -> List[dict]:
        """Records appended since the last poll (possibly empty).

        Raises :class:`TelemetryError` on interior corruption; a
        missing file, a partial trailing line and a malformed final
        line all just mean "nothing new yet".
        """
        try:
            with open(self._path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size < self._offset:
                    # Truncated or rotated: start over; the seen-set
                    # drops records delivered before the reset.
                    self.rotations += 1
                    self._offset = 0
                if size == self._offset:
                    return []
                handle.seek(self._offset)
                chunk = handle.read(size - self._offset)
        except FileNotFoundError:
            if self._offset:
                self.rotations += 1
                self._offset = 0
            return []

        end = chunk.rfind(b"\n")
        if end < 0:
            return []   # partial trailing line; wait for its newline
        complete, trailing = chunk[:end], chunk[end + 1:]
        lines = complete.split(b"\n")
        records: List[dict] = []
        consumed = 0
        for i, line in enumerate(lines):
            is_last = (i == len(lines) - 1) and not trailing
            if not line.strip():
                consumed += len(line) + 1
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "kind" not in record:
                    raise ValueError("not a telemetry record")
                key = (record["inst"], record["seq"])
            except (KeyError, ValueError, json.JSONDecodeError) as exc:
                if is_last:
                    # A torn final write that still got a newline: hold
                    # it un-consumed.  If later data lands behind it,
                    # it becomes interior garble and raises then —
                    # exactly read_raw_journal's positional contract.
                    break
                raise TelemetryError(
                    f"telemetry file {self._path} is corrupt at byte "
                    f"{self._offset + consumed}: {type(exc).__name__}: {exc}"
                ) from exc
            consumed += len(line) + 1
            if key in self._seen:
                continue
            self._seen.add(key)
            records.append(record)
        self._offset += consumed
        return records


# ---------------------------------------------------------------------------
# metrics fold (exactly-once across crash/respawn)
# ---------------------------------------------------------------------------


class MetricsFold:
    """Replays progress records into registry-mergeable snapshot state.

    Within one incarnation, streamed values are cumulative: a later
    record's series value *overwrites* an earlier one.  Across
    incarnations (a respawned worker), final states *add* — each
    incarnation only ever counted work it did itself, so the sum is
    exact regardless of where a SIGKILL landed.
    """

    def __init__(self) -> None:
        # inst -> {"counters": {name: {label_key: value}}, ...}
        self._insts: Dict[str, Dict[str, dict]] = {}
        self._order: List[str] = []

    def apply(self, record: dict) -> None:
        if record.get("kind") != "progress":
            return
        metrics = record.get("metrics")
        if not metrics:
            return
        if any(k in metrics for k in ("c", "g", "h")):
            # The writer streams the compact wire form; snapshot-shaped
            # deltas (tests, hand-written records) pass through as-is.
            metrics = expand_delta(metrics)
        inst = str(record.get("inst", ""))
        state = self._insts.get(inst)
        if state is None:
            state = self._insts[inst] = {
                "counters": {}, "gauges": {}, "histograms": {}}
            self._order.append(inst)
        for section in ("counters", "gauges"):
            for name, entries in metrics.get(section, {}).items():
                series = state[section].setdefault(name, {})
                for entry in entries:
                    series[label_key(entry["labels"])] = entry["value"]
        for name, entries in metrics.get("histograms", {}).items():
            series = state["histograms"].setdefault(name, {})
            for entry in entries:
                series[label_key(entry["labels"])] = entry

    @property
    def incarnations(self) -> int:
        return len(self._order)

    def counter_total(self, name: str) -> float:
        """Sum of a counter's final value across series and incarnations."""
        return sum(
            value
            for state in self._insts.values()
            for value in state["counters"].get(name, {}).values()
        )

    def snapshot(self, shard: Optional[str] = None) -> Dict[str, object]:
        """A snapshot-shaped dict ready for ``MetricsRegistry.merge``.

        ``shard`` tags every gauge series with a ``shard`` label so
        multi-worker fold-in stays order-independent (gauge merges are
        last-write-wins); counters and histograms add and need no tag.
        """
        counters: Dict[str, Dict[tuple, float]] = {}
        gauges: Dict[str, Dict[tuple, float]] = {}
        histograms: Dict[str, Dict[tuple, dict]] = {}
        for inst in self._order:
            state = self._insts[inst]
            for name, series in state["counters"].items():
                out = counters.setdefault(name, {})
                for key, value in series.items():
                    out[key] = out.get(key, 0.0) + value
            for name, series in state["gauges"].items():
                # Incarnation order: the respawn's reading supersedes.
                gauges.setdefault(name, {}).update(series)
            for name, series in state["histograms"].items():
                out = histograms.setdefault(name, {})
                for key, entry in series.items():
                    prior = out.get(key)
                    if prior is None:
                        out[key] = dict(entry)
                        continue
                    out[key] = {
                        "labels": entry["labels"],
                        "bounds": entry["bounds"],
                        "counts": [a + b for a, b in
                                   zip(prior["counts"], entry["counts"])],
                        "sum": prior["sum"] + entry["sum"],
                        "count": prior["count"] + entry["count"],
                        "min": _opt_min(prior["min"], entry["min"]),
                        "max": _opt_max(prior["max"], entry["max"]),
                    }

        def labels_of(key: tuple) -> Dict[str, str]:
            return {k: v for k, v in key}

        snap: Dict[str, object] = {
            "counters": {
                name: [{"labels": labels_of(key), "value": value}
                       for key, value in sorted(series.items())]
                for name, series in sorted(counters.items())
            },
            "gauges": {
                name: [{"labels": ({"shard": shard, **labels_of(key)}
                                   if shard else labels_of(key)),
                        "value": value}
                       for key, value in sorted(series.items())]
                for name, series in sorted(gauges.items())
            },
            "histograms": {
                name: [dict(entry) for _, entry in sorted(series.items())]
                for name, series in sorted(histograms.items())
            },
        }
        return snap


def _opt_min(a, b):
    return b if a is None else (a if b is None else min(a, b))


def _opt_max(a, b):
    return b if a is None else (a if b is None else max(a, b))


def fold_metrics(records: List[dict],
                 shard: Optional[str] = None) -> Dict[str, object]:
    """One-shot :class:`MetricsFold` over a record list."""
    fold = MetricsFold()
    for record in sorted(records, key=lambda r: r.get("seq", 0)):
        fold.apply(record)
    return fold.snapshot(shard=shard)


# ---------------------------------------------------------------------------
# live status model
# ---------------------------------------------------------------------------


@dataclass
class _ShardTail:
    """One shard's tailer plus everything replayed from it so far."""

    shard_id: str
    tailer: TelemetryTailer
    total: Optional[int] = None
    records: List[dict] = field(default_factory=list)
    fold: MetricsFold = field(default_factory=MetricsFold)
    insts: List[str] = field(default_factory=list)
    done: int = 0
    phase: str = "pending"
    pid: Optional[int] = None
    last_t: Optional[float] = None
    samples: Deque[Tuple[float, int]] = field(
        default_factory=lambda: deque(maxlen=_RATE_WINDOW))
    broken: bool = False   #: tailer hit interior corruption

    def apply(self, record: dict) -> None:
        self.records.append(record)
        self.fold.apply(record)
        inst = str(record.get("inst", ""))
        if inst and inst not in self.insts:
            self.insts.append(inst)
        kind = record.get("kind")
        if kind == "spans":
            return
        self.done = int(record.get("done", self.done))
        self.phase = str(record.get("phase", self.phase))
        self.pid = record.get("pid", self.pid)
        if record.get("total") is not None:
            self.total = int(record["total"])
        t_us = record.get("t_us")
        if isinstance(t_us, int):
            self.last_t = t_us / 1e6
            self.samples.append((self.last_t, self.done))

    def rate(self) -> float:
        """Cases per second over the sample window (0 when unknown)."""
        if len(self.samples) < 2:
            return 0.0
        (t0, d0), (t1, d1) = self.samples[0], self.samples[-1]
        if t1 <= t0 or d1 <= d0:
            return 0.0
        return (d1 - d0) / (t1 - t0)

    def cache_hit_rate(self) -> Optional[float]:
        hits = self.fold.counter_total("sim.cache.hits")
        misses = self.fold.counter_total("sim.cache.misses")
        if hits + misses <= 0:
            return None
        return hits / (hits + misses)


class CampaignMonitor:
    """Tails every shard's telemetry into one live campaign status.

    Used in-process by the supervisor (which registers shards as it
    dispatches them) and externally by ``repro top`` (which discovers
    telemetry files in a campaign workdir).  A shard whose stream goes
    interior-corrupt is marked broken and stops updating; it never
    takes the campaign down.
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._shards: Dict[str, _ShardTail] = {}
        #: Campaign-level case count when the caller knows it (the
        #: supervisor does; ``repro top`` reads the journal header).
        self.campaign_total: Optional[int] = None
        #: Cases already journaled before the shards started (resume).
        self.prior_done: int = 0

    # -- registration ----------------------------------------------------

    def add_shard(self, shard_id: str, path: Union[str, Path],
                  total: Optional[int] = None) -> None:
        """Register a shard's telemetry file (idempotent)."""
        if shard_id in self._shards:
            return
        self._shards[shard_id] = _ShardTail(
            shard_id=shard_id, tailer=TelemetryTailer(path), total=total)

    def discover(self, workdir: Union[str, Path]) -> int:
        """Register every ``*.telemetry.jsonl`` under a campaign workdir."""
        added = 0
        for path in sorted(Path(str(workdir)).glob("*.telemetry.jsonl")):
            shard_id = path.name[:-len(".telemetry.jsonl")]
            if shard_id not in self._shards:
                self.add_shard(shard_id, path)
                added += 1
        return added

    @property
    def shard_ids(self) -> List[str]:
        return sorted(self._shards)

    # -- ingest ----------------------------------------------------------

    def poll(self) -> int:
        """Tail every shard once; returns the record count ingested."""
        ingested = 0
        for tail in self._shards.values():
            if tail.broken:
                continue
            try:
                records = tail.tailer.poll()
            except TelemetryError:
                logger.warning("shard %s telemetry stream is corrupt; "
                               "freezing its status", tail.shard_id,
                               exc_info=True)
                tail.broken = True
                tail.phase = "corrupt"
                continue
            for record in records:
                tail.apply(record)
            ingested += len(records)
        return ingested

    def records(self, shard_id: str) -> List[dict]:
        """Every record replayed from one shard so far."""
        return list(self._shards[shard_id].records)

    def spans_by_shard(self) -> Dict[str, List[dict]]:
        """The ``spans`` records per shard (trace-stitch input)."""
        return {
            shard_id: [r for r in tail.records if r.get("kind") == "spans"]
            for shard_id, tail in self._shards.items()
        }

    # -- fold-out --------------------------------------------------------

    def fold_into(self, registry: MetricsRegistry) -> None:
        """Merge every shard's folded metrics into a registry.

        The stream is the only metrics channel from a worker and is
        crash-proof: it holds the last journal-aligned state of every
        incarnation, including SIGKILLed ones.  Gauges are tagged with
        the shard id so the merge is order-independent.
        """
        for shard_id in self.shard_ids:
            tail = self._shards[shard_id]
            registry.merge(tail.fold.snapshot(shard=shard_id))

    # -- status ----------------------------------------------------------

    def status(self, state: Optional[str] = None) -> Dict[str, object]:
        """The campaign status document (JSON-ready)."""
        now = self._clock()
        shards = []
        rates = {}
        for shard_id in self.shard_ids:
            tail = self._shards[shard_id]
            rates[shard_id] = tail.rate()
        active_rates = [
            r for shard_id, r in rates.items()
            if r > 0 and self._shards[shard_id].phase not in TERMINAL_PHASES
        ]
        median_rate = statistics.median(active_rates) if active_rates else 0.0
        for shard_id in self.shard_ids:
            tail = self._shards[shard_id]
            rate = rates[shard_id]
            total = tail.total if tail.total is not None else 0
            remaining = max(0, total - tail.done)
            eta = remaining / rate if rate > 0 and remaining else None
            slow = (len(active_rates) >= 2
                    and tail.phase not in TERMINAL_PHASES
                    and 0 < rate < _SLOW_FACTOR * median_rate)
            shards.append({
                "shard": shard_id,
                "phase": tail.phase,
                "done": tail.done,
                "total": total,
                "pid": tail.pid,
                "cases_per_s": round(rate, 3),
                "eta_s": round(eta, 1) if eta is not None else None,
                "cache_hit_rate": (round(tail.cache_hit_rate(), 4)
                                   if tail.cache_hit_rate() is not None
                                   else None),
                "retries": tail.fold.counter_total("runner.retries"),
                "failures": tail.fold.counter_total("runner.failures"),
                "crashes": max(0, len(tail.insts) - 1),
                "age_s": (round(now - tail.last_t, 1)
                          if tail.last_t is not None else None),
                "slow": slow,
            })
        done = self.prior_done + sum(s["done"] for s in shards)
        total = (self.campaign_total if self.campaign_total is not None
                 else self.prior_done + sum(s["total"] for s in shards))
        if state is None:
            finished = bool(shards) and all(
                s["phase"] in TERMINAL_PHASES for s in shards)
            state = "done" if finished and done >= total else "running"
        rate_sum = sum(
            s["cases_per_s"] for s in shards
            if s["phase"] not in TERMINAL_PHASES)
        remaining = max(0, total - done)
        return {
            "kind": STATUS_KIND,
            "schema": STATUS_SCHEMA,
            "t": now,
            "state": state,
            "done": done,
            "total": total,
            "prior_done": self.prior_done,
            "cases_per_s": round(rate_sum, 3),
            "eta_s": (round(remaining / rate_sum, 1)
                      if rate_sum > 0 and remaining else None),
            "shards": shards,
        }

    def write_status(self, path: Union[str, Path],
                     state: Optional[str] = None) -> None:
        """Atomically write :meth:`status` as JSON (tmp + rename)."""
        path = Path(str(path))
        doc = self.status(state=state)
        tmp = path.with_name(path.name + ".tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(doc, indent=2) + "\n",
                           encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            logger.warning("could not write campaign status %s", path,
                           exc_info=True)


def check_status(doc: object) -> Dict[str, object]:
    """Validate a status document; returns it typed, raises on mismatch.

    The contract tests and the CI ``telemetry-smoke`` job assert:
    identity, schema, and that per-shard done counts (plus the resumed
    prior) sum to the campaign's done count.
    """
    if not isinstance(doc, dict) or doc.get("kind") != STATUS_KIND:
        raise TelemetryError("not a repro.exec.status document")
    if doc.get("schema") != STATUS_SCHEMA:
        raise TelemetryError(
            f"status schema mismatch (got {doc.get('schema')!r}, "
            f"expected {STATUS_SCHEMA})")
    shards = doc.get("shards")
    if not isinstance(shards, list):
        raise TelemetryError("status document has no shard list")
    for entry in shards:
        missing = {"shard", "phase", "done", "total"} - set(entry)
        if missing:
            raise TelemetryError(
                f"shard status entry is missing {sorted(missing)}")
    summed = int(doc.get("prior_done", 0)) + sum(
        int(s["done"]) for s in shards)
    if summed != int(doc.get("done", -1)):
        raise TelemetryError(
            f"per-shard done counts sum to {summed}, status says "
            f"{doc.get('done')!r}")
    return doc
