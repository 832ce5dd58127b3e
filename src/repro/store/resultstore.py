"""Persistent content-addressed store for per-block simulation results.

The process-local :class:`~repro.sim.blockcache.BlockCache` memoises
block-result rows for one process lifetime; every new campaign, DSE
strategy and worker fleet re-pays the same cold simulation work.  The
:class:`ResultStore` makes those results durable and shareable: a
directory of append-only **segment** files plus an in-memory index,
addressed by each record's own key bytes: the length-prefixed
``(STC namespace, A pattern, B pattern)`` triple that opens its payload.
:meth:`~ResultStore.lookup` and :meth:`~ResultStore.insert` take the
block cache's int memo key and render that address from the pattern
table's pre-rendered fields (:meth:`repro.formats.bbc.PatternTable.address`).

Design points, in the order they matter:

**Content addressing.**  The key covers the model's canonical
configuration fingerprint (:meth:`~repro.arch.base.STCModel.cache_key`)
and the exact operand patterns (BBC's packed level-2 tile bitmaps).  Block results are pure functions of
that triple — the kernel only shapes *which* blocks a sweep visits,
never what an individual block costs — so any two processes that agree
on the key bytes may share the record.  ``tests/test_store.py`` pins
those bytes across processes and config knobs.

**Multi-writer safety without file locks.**  Each writing process
appends to its *own* segment file (named after its pid plus a random
suffix), so concurrent workers never interleave writes.  Readers scan
every segment and deduplicate by key; racing writers that simulate
the same block simply produce duplicate records with identical
payloads, which :meth:`gc` later compacts away.  *Within* a process a
single handle may also be shared by several threads (the ``repro
serve`` front-end does): an internal re-entrant lock serialises every
index mutation, the append handle's end offset and the per-segment
reader table, so one handle is thread-safe too.

**Crash semantics.**  A lookup is one ``os.pread``; an insert is one
unbuffered ``write()`` of the framed record, so a record ``insert``
reported survives its process being killed (:meth:`flush`/:meth:`close`
fsync it to disk).  The rest mirrors the journal-hardening contract of
:mod:`repro.resilience.runner`: a *torn final record* (short read at
end of file — the classic power-cut artefact of an append-only log) is
tolerated and, on a ``repair=True`` open, truncated away; a
complete record that fails its magic or CRC check is *interior
corruption* and quarantines the whole segment (renamed to
``*.quarantined``, records dropped from the index, structured warning
+ ``store.segments_quarantined`` metric).  :meth:`verify` re-reads
everything and raises :class:`~repro.errors.DataCorruptionError` in
strict mode.

**GC/compaction.**  :meth:`gc` rewrites the live records (newest
first, deduplicated) into one compact segment under a byte budget and
deletes the old segments.  It is an offline operation for the store
owner — run it between campaigns, not while workers are appending.

On-disk layout::

    <root>/STORE.json          # {"kind", "schema", "actions": [...]}
    <root>/segments/*.seg      # append-only record logs, one per writer
    <root>/segments/*.seg.quarantined   # corrupt segments, kept for autopsy

Record framing (little-endian)::

    magic  payload_len  crc32(payload)  payload
    4B     u32          u32             payload_len bytes

and the payload is the record's key bytes — the namespace/pattern key,
each field u16 length-prefixed, at most 64 operand bytes — followed by
the block's int64 result row in the
:data:`~repro.arch.base.VECTOR_WIDTH` layout, little-endian: cycles,
products, the four utilisation bins and one count per
:data:`~repro.arch.counters.ACTIONS` entry, in vocabulary order.  That
tail is the row's one memoised form (:data:`~repro.arch.base.ROW_BYTES`
bytes, as the block cache holds it): an insert appends it after the
key bytes and a lookup hands it back unchanged.  The vocabulary is
recorded in ``STORE.json`` so a vocabulary change is a loud
:class:`~repro.errors.FormatError`, never a silent misinterpretation.
Schema 3 framed a 32-byte digest of the key, schema 2 keyed records on
bool grids and schema 1 also stored float64 counts; opening any of them
fails and the store must be rebuilt (it is a cache of deterministic
results: delete the directory).
"""

from __future__ import annotations

import io
import json
import logging
import os
import struct
import threading
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.arch.base import ROW_BYTES
from repro.arch.counters import ACTIONS
from repro.errors import DataCorruptionError, FormatError
from repro.formats.bbc import PATTERNS

logger = logging.getLogger(__name__)

#: On-disk schema version; bumped on any incompatible format change.
#: Schema 4 addresses records by their key bytes; schema 3 framed a
#: 32-byte digest of the key, schema 2 keyed records on bool grids, and
#: schema 1 stored the action counts as float64.
STORE_SCHEMA = 4

#: Manifest file name inside the store root.
MANIFEST_NAME = "STORE.json"

#: Record framing magic ("Repro Block Record, format 2": no digest).
_MAGIC = b"RBR2"

#: magic + payload length + payload CRC32.
_PREFIX = struct.Struct("<4sII")

#: The length prefix of one key field.
_U16 = struct.Struct("<H").pack

#: Sanity bound on payload size — far above any real record (a record
#: is ~300 bytes); a "length" beyond this is corruption, not a payload.
_MAX_PAYLOAD = 1 << 20

#: A record's key as bytes: ``(namespace, A key, B key)``, what an int
#: memo key (:data:`repro.sim.blockcache.CacheKey`) names.
StoreKey = Tuple[str, bytes, bytes]


def _render(key: StoreKey, headers: Dict[str, bytes]) -> bytes:
    """A key's record bytes: its index address and its payload's prefix.

    ``namespace | a_bits | b_bits``, each field u16 length-prefixed, where
    the namespace is the model's canonical config fingerprint
    (:meth:`~repro.arch.base.STCModel.cache_key`).  Stable across
    processes and platforms by construction.  ``headers`` caches each
    namespace's prefixed UTF-8 field.  An int memo key renders the same
    bytes through :meth:`repro.formats.bbc.PatternTable.address`.
    """
    namespace, a_bits, b_bits = key
    header = headers.get(namespace)
    if header is None:
        ns = namespace.encode("utf-8")
        header = headers[namespace] = _U16(len(ns)) + ns
    return b"".join((header, _U16(len(a_bits)), a_bits,
                     _U16(len(b_bits)), b_bits))


def _payload_key(payload: bytes) -> StoreKey:
    """The cache key a payload was written for; checks the row's size."""
    offset = 0
    fields = []
    for _ in range(3):
        if offset + 2 > len(payload):
            raise DataCorruptionError("store payload truncated inside key")
        (length,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        if offset + length > len(payload):
            raise DataCorruptionError("store payload key overruns record")
        fields.append(payload[offset:offset + length])
        offset += length
    if len(payload) - offset != ROW_BYTES:
        raise DataCorruptionError(
            f"store payload row is {len(payload) - offset} bytes, "
            f"expected {ROW_BYTES} (ACTIONS vocabulary mismatch?)")
    return fields[0].decode("utf-8"), fields[1], fields[2]


def _frame(payload: bytes, crc: int) -> bytes:
    """Prefix ``payload`` with its magic, length and CRC32."""
    return _PREFIX.pack(_MAGIC, len(payload), crc) + payload


def _checked_row(row: bytes) -> bytes:
    """``row`` if it is one row's byte form, else raise ``ValueError``."""
    if type(row) is not bytes or len(row) != ROW_BYTES:
        got = (f"{len(row)} bytes" if isinstance(row, bytes)
               else f"a {type(row).__name__}")
        raise ValueError(f"a store row is {ROW_BYTES} little-endian int64 "
                         f"bytes, got {got}")
    return row


def encode_record(key: StoreKey, row: bytes) -> bytes:
    """One framed record: prefix + CRC-checked payload (key bytes, row)."""
    payload = _render(key, {}) + _checked_row(row)
    return _frame(payload, zlib.crc32(payload))


@dataclass
class StoreStats:
    """Observable counters of one :class:`ResultStore` handle.

    ``hits``/``misses``/``appends``/``served_bytes`` count this
    handle's traffic; ``quarantined`` counts segments this handle has
    quarantined (across opens and :meth:`ResultStore.refresh` calls).
    """

    hits: int = 0
    misses: int = 0
    appends: int = 0
    duplicates: int = 0
    served_bytes: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "StoreStats":
        return StoreStats(hits=self.hits, misses=self.misses,
                          appends=self.appends, duplicates=self.duplicates,
                          served_bytes=self.served_bytes,
                          quarantined=self.quarantined)

    def delta(self, since: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            appends=self.appends - since.appends,
            duplicates=self.duplicates - since.duplicates,
            served_bytes=self.served_bytes - since.served_bytes,
            quarantined=self.quarantined - since.quarantined,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "appends": self.appends,
            "duplicates": self.duplicates,
            "served_bytes": self.served_bytes,
            "quarantined": self.quarantined,
            "hit_rate": self.hit_rate,
        }


@dataclass
class GCReport:
    """Outcome of one :meth:`ResultStore.gc` compaction."""

    kept: int
    dropped: int
    bytes_before: int
    bytes_after: int
    segments_removed: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "kept": self.kept,
            "dropped": self.dropped,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "segments_removed": self.segments_removed,
        }


class ResultStore:
    """A persistent, multi-process-safe block-result store.

    Parameters
    ----------
    root:
        Store directory.  Created (with its manifest) when missing or
        empty and ``create=True``; a non-empty directory without a
        manifest is refused.  Otherwise the manifest is validated
        against this build's schema and ACTIONS vocabulary.
    create:
        Whether a missing store may be initialised.  ``repro store``
        inspection commands pass ``False`` so a typo'd path is a loud
        error instead of a fresh empty store.
    repair:
        The opener asserts no other process is writing the store, so a
        torn final record on *any* segment is truncated away at scan
        time instead of merely tolerated.  Maintenance entry points
        (``repro store verify|gc``) open with ``repair=True``; live
        campaign readers must not, because a foreign writer's torn
        tail may simply be an append in progress.
    """

    def __init__(self, root: Union[str, Path], create: bool = True,
                 repair: bool = False):
        self.root = Path(root)
        self.repair = repair
        self.stats = StoreStats()
        # One handle may serve several threads (ThreadingHTTPServer in
        # repro serve): the lock serialises index mutation, the append
        # handle's end offset and the reader table.  Re-entrant because
        # gc() nests flush() and close().
        self._lock = threading.RLock()
        # key bytes -> (segment, payload offset, payload length, crc32)
        self._index: Dict[bytes, Tuple[Path, int, int, int]] = {}
        self._headers: Dict[str, bytes] = {}     # namespace -> key header
        self._scanned: Dict[Path, int] = {}      # segment -> clean end offset
        self._writer: Optional[io.FileIO] = None  # opened on first insert
        self._writer_path: Optional[Path] = None
        self._writer_end = 0      # the writer's end; _scanned's at close
        self._readers: Dict[Path, io.FileIO] = {}
        self._load_manifest(create)
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        self.refresh()

    # -- lifecycle --------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def segment_dir(self) -> Path:
        return self.root / "segments"

    def _load_manifest(self, create: bool) -> None:
        path = self.manifest_path
        if not path.exists():
            if not create:
                raise FormatError(f"no result store at {self.root} "
                                  f"({MANIFEST_NAME} missing)")
            self._refuse_foreign_root()
            self.root.mkdir(parents=True, exist_ok=True)
            manifest = {"kind": "repro.store", "schema": STORE_SCHEMA,
                        "actions": list(ACTIONS)}
            # A per-process temp name: concurrent creators each replace
            # the manifest atomically with identical content.
            tmp = self.root / (f"{MANIFEST_NAME}.{os.getpid():d}-"
                               f"{uuid.uuid4().hex[:8]}.tmp")
            tmp.write_text(json.dumps(manifest, indent=2) + "\n",
                           encoding="utf-8")
            os.replace(tmp, path)
            return
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"unreadable store manifest {path}: {exc}") \
                from exc
        if manifest.get("kind") != "repro.store":
            raise FormatError(f"{path} is not a repro.store manifest")
        if manifest.get("schema") != STORE_SCHEMA:
            raise FormatError(
                f"store schema {manifest.get('schema')!r} unsupported "
                f"(this build reads schema {STORE_SCHEMA}); the store only "
                f"caches deterministic results, so rebuild it: delete "
                f"{self.root} and rerun")
        if list(manifest.get("actions", [])) != list(ACTIONS):
            raise FormatError(
                "store ACTIONS vocabulary differs from this build; refusing "
                "to reinterpret counters positionally")

    def _refuse_foreign_root(self) -> None:
        """Refuse to initialise a store inside a directory holding other files.

        A non-empty directory without a manifest is a mistyped path (an
        output directory, the working directory): silently initialising
        a fresh store there would bury the mistake.  A concurrent
        creator's temp manifest does not count as content.
        """
        if not self.root.exists():
            return
        if not self.root.is_dir():
            raise FormatError(f"result store path {self.root} is not a "
                              "directory")
        names = {entry.name for entry in self.root.iterdir()}
        if MANIFEST_NAME in names:
            return  # a concurrent creator finished first
        if any(not name.startswith(MANIFEST_NAME + ".") for name in names):
            raise FormatError(
                f"{self.root} is a non-empty directory without "
                f"{MANIFEST_NAME}; refusing to initialise a result store "
                "there (point the store at a new or empty directory)")

    def close(self) -> None:
        """Fsync and release every file handle (safe to call twice)."""
        with self._lock:
            if self._writer is not None:
                try:
                    os.fsync(self._writer.fileno())
                except OSError:  # pragma: no cover - best-effort flush
                    pass
                self._writer.close()
                self._writer = None
                self._scanned[self._writer_path] = self._writer_end
            for handle in self._readers.values():
                handle.close()
            self._readers.clear()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return (f"ResultStore(root={str(self.root)!r}, "
                f"records={len(self._index)}, "
                f"segments={len(self._scanned)})")

    # -- scanning ---------------------------------------------------------

    def refresh(self) -> int:
        """Scan for records appended by other writers; returns new count.

        Known segments resume from their last clean offset, newly
        discovered segments are scanned from the start.  Quarantine and
        torn-tail handling run exactly as at open time.
        """
        with self._lock:
            new = 0
            for seg in sorted(self.segment_dir.glob("*.seg")):
                if seg == self._writer_path:
                    continue  # our own appends are indexed as they happen
                new += self._scan_segment(seg, self._scanned.get(seg, 0))
            self._publish_gauges()
            return new

    def _scan_segment(self, seg: Path, start: int) -> int:
        """Index records in ``seg`` from ``start``; returns records added."""
        try:
            data = seg.read_bytes()
        except FileNotFoundError:
            return 0  # raced with gc/quarantine in another process
        # A known segment may have *shrunk* since the last scan (a
        # foreign gc/quarantine recreated it); resuming past EOF would
        # make the torn-tail arithmetic negative and a repair-mode
        # truncate would zero-extend the file.  Clamp and resume at
        # the (new) end; stale index entries fail their short-read
        # check in _read_payload and degrade to misses.
        offset, added = min(start, len(data)), 0
        view = memoryview(data)
        while True:
            if offset + _PREFIX.size > len(data):
                break  # torn or absent prefix at EOF -> tail
            magic, length, crc = _PREFIX.unpack_from(data, offset)
            # A payload too short to hold a row is framing garbage too.
            if magic != _MAGIC or not ROW_BYTES < length <= _MAX_PAYLOAD:
                self._quarantine(seg, offset, "bad record framing")
                return added
            payload_at = offset + _PREFIX.size
            end = payload_at + length
            if end > len(data):
                break  # torn payload at EOF -> tail
            if zlib.crc32(view[payload_at:end]) != crc:
                self._quarantine(seg, offset, "payload CRC mismatch")
                return added
            address = data[payload_at:end - ROW_BYTES]
            if address not in self._index:
                self._index[address] = (seg, payload_at, length, crc)
                added += 1
            offset = end
        self._scanned[seg] = offset
        torn = len(data) - offset
        if torn > 0 and self.repair:
            # A repair-mode open, where the caller asserts sole
            # ownership: drop the torn tail so the segment ends clean.
            logger.warning("store: truncating %d torn byte(s) from %s",
                           torn, seg.name)
            with open(seg, "r+b") as fh:
                fh.truncate(offset)
        elif torn > 0:
            # A foreign writer may simply be mid-append; tolerate.
            logger.debug("store: %s has %d trailing byte(s), "
                         "possibly an in-progress append", seg.name, torn)
        return added

    def _quarantine(self, seg: Path, offset: int, reason: str) -> None:
        """Interior corruption: sideline the segment, drop its records."""
        dropped = [a for a, entry in self._index.items() if entry[0] == seg]
        for address in dropped:
            del self._index[address]
        self._scanned.pop(seg, None)
        handle = self._readers.pop(seg, None)
        if handle is not None:
            handle.close()
        target = seg.with_name(seg.name + ".quarantined")
        n = 0
        while target.exists():
            n += 1
            target = seg.with_name(f"{seg.name}.quarantined.{n}")
        try:
            os.replace(seg, target)
        except OSError:  # pragma: no cover - raced with another scanner
            target = seg
        self.stats.quarantined += 1
        obs.inc("store.segments_quarantined")
        logger.error(
            "store: quarantined segment %s at offset %d (%s); "
            "%d record(s) dropped from the index, file kept as %s",
            seg.name, offset, reason, len(dropped), target.name)

    # -- lookups and appends ----------------------------------------------

    def lookup(self, key: int) -> Optional[bytes]:
        """Fetch a stored result row by int memo key; ``None`` on miss.

        The row is the payload's :data:`~repro.arch.base.ROW_BYTES` tail,
        a copy that does not pin the rest of the payload.  A key whose
        pattern-table epoch is gone has no address and misses.
        """
        address = PATTERNS.address(key)
        with self._lock:
            entry = self._index.get(address)
            payload = None if entry is None else self._read_payload(entry)
            if payload is None:
                self.stats.misses += 1
                obs.inc("store.misses")
                return None
            self.stats.hits += 1
            self.stats.served_bytes += len(payload)
            obs.inc("store.hits")
        return payload[-ROW_BYTES:]

    def _read_payload(self, entry: Tuple[Path, int, int, int]) -> Optional[bytes]:
        """One CRC-checked ``pread`` of an indexed payload; the caller
        holds the lock.  ``None`` if the segment is gone or shrank."""
        segment, offset, length, crc = entry
        reader = self._readers.get(segment)
        if reader is None:
            try:
                reader = open(segment, "rb", buffering=0)
            except FileNotFoundError:
                return None  # segment gc'd/quarantined under us
            self._readers[segment] = reader
        payload = os.pread(reader.fileno(), length, offset)
        if len(payload) != length:
            return None
        if zlib.crc32(payload) != crc:
            raise DataCorruptionError(
                f"store record in {segment.name} failed its CRC on "
                "re-read (disk-level corruption after indexing)")
        return payload

    def insert(self, key: int, row: bytes) -> bool:
        """Append a record of ``row`` unless its key is already indexed.

        ``key`` is an int memo key.  ``row`` is the row's byte form,
        exactly :data:`~repro.arch.base.ROW_BYTES` bytes; anything else
        raises :class:`ValueError` before a byte is written or indexed.
        Returns True when a record was written.  The key bytes are
        rendered once from the pattern table, and a duplicate (or a key
        whose table epoch is gone, which has no bytes to write) is
        dropped before anything is framed.  The record goes out in one
        ``write()`` on this handle's unbuffered append-only segment, so
        once this returns True the record is in the OS (:meth:`flush`
        fsyncs it to disk), concurrent writers to *different* segments
        never interleave, and a crash leaves at worst one torn record at
        the tail.  A short write is
        truncated away and raises :class:`OSError`, indexing nothing.
        """
        _checked_row(row)
        address = PATTERNS.address(key)
        if address is None:
            return False
        with self._lock:
            if address in self._index:
                self.stats.duplicates += 1
                return False
            payload = address + row
            crc = zlib.crc32(payload)
            framed = _frame(payload, crc)
            if self._writer is None:
                self._open_writer()
            written = self._writer.write(framed)
            if written != len(framed):
                os.ftruncate(self._writer.fileno(), self._writer_end)
                raise OSError(f"short write to {self._writer_path.name}: "
                              f"{written} of {len(framed)} bytes")
            self._index[address] = (self._writer_path,
                                    self._writer_end + _PREFIX.size,
                                    len(payload), crc)
            self._writer_end += len(framed)
            self.stats.appends += 1
        obs.inc("store.appends")
        return True

    def _open_writer(self) -> None:
        name = f"w{os.getpid():d}-{uuid.uuid4().hex[:8]}.seg"
        self._writer_path = self.segment_dir / name
        # Unbuffered: each insert's one write() reaches the OS before it
        # returns, and the handle's end offset is tracked, never asked.
        self._writer = open(self._writer_path, "ab", buffering=0)
        self._writer_end = 0
        self._scanned[self._writer_path] = 0

    def flush(self) -> None:
        """Fsync this handle's appends (each is in the OS already)."""
        with self._lock:
            if self._writer is not None:
                os.fsync(self._writer.fileno())

    # -- maintenance ------------------------------------------------------

    @property
    def bytes(self) -> int:
        """Total on-disk size of live (non-quarantined) segments."""
        total = 0
        for seg in self.segment_dir.glob("*.seg"):
            try:
                total += seg.stat().st_size
            except FileNotFoundError:  # pragma: no cover
                continue
        return total

    @property
    def segments(self) -> int:
        """Number of live segment files."""
        return sum(1 for _ in self.segment_dir.glob("*.seg"))

    def _publish_gauges(self) -> None:
        if obs.enabled():
            obs.set_gauge("store.records", float(len(self._index)))
            obs.set_gauge("store.bytes", float(self.bytes))

    def describe(self) -> Dict[str, object]:
        """A JSON-ready description (``repro store stat``)."""
        return {
            "kind": "repro.store",
            "schema": STORE_SCHEMA,
            "root": str(self.root),
            "records": len(self._index),
            "segments": self.segments,
            "bytes": self.bytes,
            "quarantined_segments": sum(
                1 for _ in self.segment_dir.glob("*.quarantined*")),
            "stats": self.stats.as_dict(),
        }

    def verify(self, strict: bool = False) -> Dict[str, object]:
        """Re-read every indexed record, checking CRCs and that each
        payload decodes to its index key.

        Returns ``{"records", "bytes", "errors": [...]}``.  With
        ``strict=True`` the first failure raises
        :class:`~repro.errors.DataCorruptionError` instead.
        """
        errors: List[str] = []
        checked = checked_bytes = 0
        with self._lock:
            entries = sorted(self._index.items())
        for address, entry in entries:
            try:
                with self._lock:
                    payload = self._read_payload(entry)
                if payload is None:
                    raise DataCorruptionError(
                        f"record in {entry[0].name} vanished")
                if _render(_payload_key(payload), self._headers) != address:
                    raise DataCorruptionError(
                        f"record in {entry[0].name} decodes to a different "
                        "key than its address")
            except DataCorruptionError as exc:
                if strict:
                    raise
                errors.append(str(exc))
                continue
            checked += 1
            checked_bytes += len(payload)
        return {"records": checked, "bytes": checked_bytes, "errors": errors}

    def gc(self, max_bytes: Optional[int] = None) -> GCReport:
        """Compact live records into one segment under a byte budget.

        Records are kept newest-append-first (an LRU-flavoured policy:
        segment scan order is append order, so the records most likely
        to be re-requested — the latest corpus's — survive).  With
        ``max_bytes=None`` everything is kept and gc is pure
        deduplication/compaction.  Offline only: run it when no other
        process is writing the store.
        """
        with self._lock:
            return self._gc_locked(max_bytes)

    def _gc_locked(self, max_bytes: Optional[int]) -> GCReport:
        self.flush()
        bytes_before = self.bytes
        old_segments = sorted(self.segment_dir.glob("*.seg"))
        # Newest entries last in scan order; walk reversed so the most
        # recently appended survive the budget.
        records: List[bytes] = []
        kept = dropped = budget_used = 0
        for entry in reversed(list(self._index.values())):
            payload = self._read_payload(entry)
            if payload is None:
                dropped += 1
                continue
            framed = _frame(payload, entry[3])
            if max_bytes is not None and budget_used + len(framed) > max_bytes:
                dropped += 1
                continue
            records.append(framed)
            budget_used += len(framed)
            kept += 1
        self.close()
        compact = self.segment_dir / f"c{os.getpid():d}-{uuid.uuid4().hex[:8]}.seg"
        with open(compact, "wb") as fh:
            for framed in reversed(records):  # restore append order
                fh.write(framed)
            fh.flush()
            os.fsync(fh.fileno())
        for seg in old_segments:
            if seg != compact:
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._index.clear()
        self._scanned.clear()
        self._writer_path = None
        self._scan_segment(compact, 0)
        self._publish_gauges()
        report = GCReport(kept=kept, dropped=dropped,
                          bytes_before=bytes_before, bytes_after=self.bytes,
                          segments_removed=len(old_segments))
        logger.info("store gc: kept %d, dropped %d, %d -> %d bytes",
                    report.kept, report.dropped,
                    report.bytes_before, report.bytes_after)
        return report
