"""Live campaign telemetry, read from the shard journals.

A sharded worker's journal (:mod:`repro.obs.journal`) is its one
channel to the supervisor.  Its case records carry each finished
case's metrics delta (the report-fold rows and instrument series it
changed) beside the case's outcome, its ``beat`` records
mark liveness and phase, and its ``spans`` records carry trace spans.
The supervisor, and the ``repro top`` viewer (just another reader),
tail those journals with :class:`~repro.obs.journal.JournalReader`
into a live :meth:`CampaignMonitor.status` model, and fold a crashed
worker's metrics in without waiting for a clean exit.

A respawned worker appends to the same journal under a fresh ``inst``
token.  :class:`MetricsFold` replays each incarnation independently:
cumulative values *overwrite* within an incarnation, and final states
*add* across incarnations.  A case's delta lands in the same append as
its outcome, so wherever a SIGKILL lands the fold covers exactly the
journaled cases, and a journal resume never double-counts one.
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.errors import CheckpointError, TelemetryError
from repro.obs.journal import JournalReader, entry_key
from repro.obs.metrics import MetricsRegistry, expand_delta

logger = logging.getLogger(__name__)

#: Campaign status document identity.
STATUS_KIND = "repro.exec.status"
STATUS_SCHEMA = 1

#: Worker phases that mean "this incarnation will write no more".
TERMINAL_PHASES = ("finished", "recycling", "terminated", "aborted")

#: Samples kept per shard for the cases/s estimate.
_RATE_WINDOW = 32

#: A shard slower than this fraction of the median rate is flagged.
_SLOW_FACTOR = 0.5


# ---------------------------------------------------------------------------
# metrics fold (exactly-once across crash/respawn)
# ---------------------------------------------------------------------------


class MetricsFold:
    """Replays streamed record deltas into registry-mergeable state.

    A record's ``metrics``
    (:meth:`~repro.obs.metrics.MetricsRegistry.record_delta_json`)
    holds cumulative values: the report-fold rows and instrument series
    changed since the incarnation's previous record.  Within one
    incarnation a later value *overwrites* an earlier one; across
    incarnations (a respawned worker) final states *add* — each
    incarnation only ever counted work it did itself, so the sum is
    exact regardless of where a SIGKILL landed.
    """

    def __init__(self) -> None:
        #: inst -> its latest {"c"|"g"|"h"|"r": {wire key: value}, "s", "e"}
        self._insts: Dict[str, Dict[str, object]] = {}

    def apply(self, record: dict) -> None:
        """Fold the delta a record carries, if any: a worker's case
        records and its terminal beat carry one."""
        metrics = record.get("metrics")
        if not metrics:
            return
        state = self._insts.setdefault(str(record.get("inst", "")), {})
        for section, value in metrics.items():
            if isinstance(value, dict):
                state.setdefault(section, {}).update(value)
            else:
                state[section] = value

    @property
    def incarnations(self) -> int:
        return len(self._insts)

    def counter_total(self, name: str) -> float:
        """Sum of a counter's final value across series and incarnations."""
        return self.counter_totals().get(name, 0.0)

    def counter_totals(self) -> Dict[str, float]:
        """:meth:`counter_total` of every counter."""
        return {name: sum(entry["value"] for entry in entries)
                for name, entries in self.snapshot()["counters"].items()}

    def merge_into(self, registry: MetricsRegistry,
                   shard: Optional[str] = None) -> None:
        """Add every incarnation's state into ``registry``.

        ``shard`` tags every gauge series with a ``shard`` label so
        multi-worker fold-in stays order-independent (gauge merges are
        last-write-wins); counters and histograms add and need no tag.
        """
        for state in self._insts.values():   # the respawn's gauges supersede
            delta = expand_delta(state)
            for entries in delta["gauges"].values() if shard else ():
                for entry in entries:
                    entry["labels"] = {"shard": shard, **entry["labels"]}
            registry.merge(delta)
            registry.merge_fold(state, shard)

    def snapshot(self, shard: Optional[str] = None) -> Dict[str, object]:
        """What :meth:`merge_into` adds to an empty registry, snapshotted."""
        registry = MetricsRegistry()
        self.merge_into(registry, shard)
        return registry.snapshot()


# ---------------------------------------------------------------------------
# live status model
# ---------------------------------------------------------------------------


@dataclass
class _ShardTail:
    """One shard's journal reader plus everything replayed from it."""

    shard_id: str
    reader: JournalReader
    total: Optional[int] = None
    spans: List[dict] = field(default_factory=list)
    fold: MetricsFold = field(default_factory=MetricsFold)
    insts: List[str] = field(default_factory=list)
    cases: Set[str] = field(default_factory=set)   #: journaled case keys
    phase: str = "pending"
    pid: Optional[int] = None
    last_t: Optional[float] = None
    samples: Deque[Tuple[float, int]] = field(
        default_factory=lambda: deque(maxlen=_RATE_WINDOW))
    broken: bool = False   #: the reader hit interior corruption

    @property
    def done(self) -> int:
        return len(self.cases)

    def apply(self, record: dict) -> None:
        self.fold.apply(record)
        inst = record.get("inst")
        if inst is not None and inst not in self.insts:
            self.insts.append(inst)
        kind = record.get("kind")
        if kind == "spans":
            self.spans.append(record)
            return
        if kind == "beat":
            self.phase = str(record.get("phase", self.phase))
            self.pid = record.get("pid", self.pid)
        elif "case" in record:
            self.cases.add(entry_key(record))
            if self.phase not in TERMINAL_PHASES:
                self.phase = "running"
        elif self.total is None:   # the header
            self.total = int(record.get("cases", 0))
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


class CampaignMonitor:
    """Tails every shard's journal into one live campaign status.

    Used in-process by the supervisor (which registers shards as it
    dispatches them) and externally by ``repro top`` (which discovers
    the shard journals in a campaign workdir).  A shard whose journal
    goes interior-corrupt is marked broken and stops updating; it
    never takes the campaign down.
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
        """Register a shard's journal (idempotent)."""
        if shard_id in self._shards:
            return
        self._shards[shard_id] = _ShardTail(
            shard_id=shard_id, reader=JournalReader(path), total=total)

    def discover(self, workdir: Union[str, Path]) -> int:
        """Register every shard journal (``*.journal``) in a workdir."""
        added = 0
        for path in sorted(Path(str(workdir)).glob("*.journal")):
            shard_id = path.stem
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
                records = tail.reader.poll()
            except CheckpointError:
                logger.warning("shard %s journal is corrupt; freezing its "
                               "status", tail.shard_id, exc_info=True)
                tail.broken = True
                tail.phase = "corrupt"
                continue
            for record in records:
                tail.apply(record)
            ingested += len(records)
        return ingested

    def last_write(self, shard_id: str) -> Optional[float]:
        """The wall time of the shard journal's last write, as of the
        last poll: the watchdog's liveness signal."""
        return self._shards[shard_id].reader.mtime

    def spans_by_shard(self) -> Dict[str, List[dict]]:
        """The ``spans`` records per shard (trace-stitch input)."""
        return {shard_id: list(tail.spans)
                for shard_id, tail in self._shards.items()}

    # -- fold-out --------------------------------------------------------

    def fold_into(self, registry: MetricsRegistry) -> None:
        """Merge every shard's folded metrics into a registry.

        The journal is the only metrics channel from a worker and is
        crash-exact: it holds the state as of every incarnation's last
        journaled case, SIGKILLed ones included.  Gauges are tagged with
        the shard id so the merge is order-independent.
        """
        for shard_id in self.shard_ids:
            self._shards[shard_id].fold.merge_into(registry, shard=shard_id)

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
            totals = tail.fold.counter_totals()
            hits = totals.get("sim.cache.hits", 0.0)
            lookups = hits + totals.get("sim.cache.misses", 0.0)
            shards.append({
                "shard": shard_id,
                "phase": tail.phase,
                "done": tail.done,
                "total": total,
                "pid": tail.pid,
                "cases_per_s": round(rate, 3),
                "eta_s": round(eta, 1) if eta is not None else None,
                "cache_hit_rate": round(hits / lookups, 4) if lookups > 0 else None,
                "retries": totals.get("runner.retries", 0),
                "failures": totals.get("runner.failures", 0),
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
