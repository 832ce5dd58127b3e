"""The checkpoint journal's one writer and one reader.

A journal is JSONL.  Line 1 is its header
(:func:`repro.resilience.runner.journal_header`); every later line is
one record.  A **case record** is one finished case's journal entry:
``case``, ``status``, ``attempts``, ``elapsed_s``, then ``report`` or
``error``.  An in-process ``--checkpoint`` journal holds nothing else.

A sharded worker's journal is also its one channel to the supervisor:

- every record the worker appends is stamped with ``inst`` (the worker
  incarnation's token), ``seq`` (its record number) and ``t_us``
  (integer microseconds since the epoch);
- a case record also carries ``metrics``, the registry's compact delta
  since the previous case
  (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot_delta_json`).
  A case's outcome and its metrics land in one append, or neither does;
- ``beat`` records (``kind``, the stamp, ``pid``, ``phase``) mark
  liveness at startup and on the heartbeat cadence.  The terminal beat
  also carries any delta since the last case;
- ``spans`` records carry finished tracer spans and events plus the
  worker tracer's wall-clock epoch (see :mod:`repro.obs.stitch`).

:class:`JournalWriter` appends each record with one unbuffered
``write()`` under one lock.  Before its first append it cuts a torn
tail, the partial last line a crash mid-write leaves, as
:class:`~repro.store.ResultStore` does at open.  :class:`JournalReader`
reads incrementally.  It holds a partial or malformed last line until
more data arrives, raises :class:`~repro.errors.CheckpointError` on a
malformed line inside the file, and restarts when the file shrinks,
dropping records it already delivered by their ``(inst, seq)``.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import CheckpointError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

logger = logging.getLogger(__name__)

#: What a worker's stamp adds to a case record's journal entry.
STAMP_FIELDS = ("inst", "seq", "t_us", "metrics")


def format_case_key(matrix: str, kernel: str, stc: str) -> str:
    """The journal identity of one (matrix, kernel, STC) case."""
    return f"{matrix}\x1f{kernel}\x1f{stc}"


def entry_key(entry: dict) -> str:
    """The case key of a case record."""
    case = entry["case"]
    return format_case_key(case["matrix"], case["kernel"], case["stc"])


def journal_fields(record: dict) -> dict:
    """A case record's journal entry: the record without a worker's stamp."""
    return {k: v for k, v in record.items() if k not in STAMP_FIELDS}


def _check(record: object) -> None:
    """Raise unless ``record`` is a well-formed journal record."""
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    if "case" in record:
        entry_key(record)
        if not isinstance(record.get("status"), str):
            raise ValueError("case record has no status")


def _torn_tail(fd: int, size: int) -> int:
    """Where a file's torn tail starts: just past its last newline."""
    end = size
    while end > 0:
        start = max(0, end - (1 << 16))
        cut = os.pread(fd, end - start, start).rfind(b"\n")
        if cut >= 0:
            return start + cut + 1
        end = start
    return 0


class JournalWriter:
    """Appends one journal's records, each in one unbuffered ``write()``.

    Thread-safe: a worker's heartbeat thread appends beats while its
    runner appends case records.  A writer given a ``registry`` or a
    ``tracer`` is a worker's, and stamps its records as the module
    docstring says.  Without them it appends bare journal entries, the
    bytes ``json.dumps`` makes of them.
    """

    def __init__(
        self,
        path: Union[str, Path],
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.path = Path(str(path))
        self._registry = registry
        self._tracer = tracer
        self._stamped = registry is not None or tracer is not None
        self._pid = os.getpid()
        #: The incarnation token, unique even if the OS recycles pids.
        self.inst = f"{self._pid}-{os.urandom(3).hex()}"
        self._seq = 0
        self._span_idx = self._event_idx = 0
        self._lock = threading.Lock()
        self._fd: Optional[int] = None

    def open(self, header: dict, fresh: bool = False) -> None:
        """Open the file for appending; a no-op once open.

        ``fresh`` empties the file.  Otherwise its torn tail is cut.
        A file left empty either way starts with ``header``.
        """
        with self._lock:
            if self._fd is not None:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = fd = os.open(self.path,
                                    os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            size = os.fstat(fd).st_size
            end = 0 if fresh else _torn_tail(fd, size)
            if end < size:
                if not fresh:
                    logger.warning("journal %s: truncating %d torn byte(s)",
                                   self.path, size - end)
                os.ftruncate(fd, end)
            if end == 0:
                self._write(json.dumps(header) + "\n")

    def append(self, entry: dict) -> None:
        """Append one case record: ``entry``, plus a worker's envelope."""
        text = json.dumps(entry)
        with self._lock:
            if self._stamped:
                text = text[:-1] + self.envelope() + "}"
            self._write(text + "\n")

    def envelope(self) -> str:
        """What a worker adds to a case record: its stamp, then the
        metrics delta since the previous case (the telemetry gate's
        price).  :meth:`append` calls it under the lock."""
        return self._stamp() + self._delta()

    def beat(self, phase: str = "running") -> None:
        """A liveness record, then the spans finished since the last."""
        with self._lock:
            self._record("beat", f',"phase":{json.dumps(phase)}')
            self._flush_spans()

    def sync(self) -> None:
        """Make every record appended so far durable."""
        with self._lock:
            os.fsync(self._fd)

    def close(self, phase: Optional[str] = None) -> None:
        """Close the file; a no-op if it is not open.

        A worker passes its terminal ``phase``: its spans are flushed,
        then a terminal beat carries any delta since its last case.
        """
        with self._lock:
            if self._fd is None:
                return
            if phase is not None:
                self._flush_spans()
                self._record("beat",
                             f',"phase":{json.dumps(phase)}{self._delta()}')
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- record assembly (the caller holds the lock) ----------------------

    def _write(self, text: str) -> None:
        data = text.encode()
        while data:
            data = data[os.write(self._fd, data):]

    def _stamp(self) -> str:
        seq = self._seq
        self._seq += 1
        return (f',"inst":"{self.inst}","seq":{seq},'
                f'"t_us":{int(time.time() * 1e6)}')

    def _delta(self) -> str:
        delta = "" if self._registry is None else self._registry.snapshot_delta_json()
        return ',"metrics":' + delta if delta else ""

    def _record(self, kind: str, body: str) -> None:
        """Append a telemetry record (a worker's writer only).  I/O
        failures are logged, never raised: liveness and spans must not
        take the shard down."""
        if self._fd is None or not self._stamped:
            return
        try:
            self._write(f'{{"kind":"{kind}"{self._stamp()},'
                        f'"pid":{self._pid}{body}}}\n')
        except OSError:
            logger.warning("could not append a %s record to %s", kind,
                           self.path, exc_info=True)

    def _flush_spans(self) -> None:
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
        self._record("spans",
                     f',"epoch_wall_s":{json.dumps(self._tracer.epoch_wall)},'
                     f'"spans":{json.dumps(spans)},"events":{json.dumps(events)}')


class JournalReader:
    """Incremental reader of one journal: the one torn-tail contract."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(str(path))
        #: The file's mtime at the last poll: the watchdog's liveness signal.
        self.mtime: Optional[float] = None
        self._offset = 0
        self._line = 0
        self._seen: set = set()

    def poll(self) -> List[dict]:
        """Records appended since the last poll (possibly none).

        A missing file, a partial last line and a malformed last line
        all mean "nothing new yet".  A malformed line with data behind
        it raises :class:`CheckpointError` naming its line.
        """
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                self.mtime = stat.st_mtime
                if stat.st_size < self._offset:
                    # The file shrank: start over.  The seen-set drops
                    # the records delivered before.
                    self._offset = self._line = 0
                handle.seek(self._offset)
                chunk = handle.read(stat.st_size - self._offset)
        except FileNotFoundError:
            self._offset = self._line = 0
            return []
        lines = chunk.split(b"\n")
        partial = lines.pop()
        records: List[dict] = []
        consumed = 0
        for i, line in enumerate(lines):
            if line.strip():
                try:
                    record = json.loads(line)
                    _check(record)
                except (KeyError, TypeError, ValueError) as exc:
                    if i == len(lines) - 1 and not partial:
                        break   # a malformed last line, held like a torn one
                    raise CheckpointError(
                        f"checkpoint journal {self.path} is corrupt at line "
                        f"{self._line + i + 1}: {type(exc).__name__}: {exc}"
                    ) from exc
                key = (record.get("inst"), record.get("seq"))
                if key not in self._seen:
                    records.append(record)
                    if key[0] is not None:
                        self._seen.add(key)
            consumed += len(line) + 1
        self._offset += consumed
        self._line += chunk.count(b"\n", 0, consumed)
        return records
