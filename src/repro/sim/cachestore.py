"""Disk persistence for the block-result memoisation cache.

Corpus sweeps spend most of their time in the STC models; since a
model is a pure function of the task's bitmap pair, its result rows
are safe to persist across processes.  ``save_cache``/``load_cache``
serialise the engine's cache to a compressed ``.npz`` so a repeated
sweep (or a resumed one) starts warm.  The archive splits each int64
row into its ``scalars`` (cycles, products), ``bins`` and ``counters``
column slices, the counters stored as float64 as they always were;
loading checks they are integral and rebuilds the rows.

Cache files are integrity-checked: the archive embeds a CRC32 over its
payload arrays, and any malformed archive (truncated download, partial
write, flipped bits, wrong file entirely) raises :class:`FormatError`
on load rather than a raw ``zipfile``/``numpy`` traceback.  Long-
running sweeps that merely want a warm start should instead call
:func:`load_cache_or_cold`, which logs a warning and rebuilds cold.

**Deprecation shim.**  The whole-file ``.npz`` snapshot is superseded
by the persistent content-addressed :class:`repro.store.ResultStore`
(safe under concurrent writers, incrementally appended, GC'd).  To
keep one persistence story, both entry points here are store-aware: a
``path`` that is a store directory routes to the store —
:func:`load_cache_or_cold` binds it as the engine cache's second tier
instead of bulk-loading, and :func:`save_cache` flushes it (the store
is write-through, so there is nothing else to save).  Old ``.npz``
files keep loading, and :func:`migrate_cache` imports one into a
store.  New code should use ``repro.store`` directly.
"""

from __future__ import annotations

import logging
import pickle
import zipfile
import zlib
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.arch.base import VECTOR_WIDTH
from repro.arch.counters import ACTIONS
from repro.errors import FormatError
from repro.sim import engine
from repro.sim.blockcache import CacheKey
from repro.store import MANIFEST_NAME, ResultStore

#: Serialisation format version; mismatches are rejected on load.
#: v2 added the embedded payload checksum.
CACHE_VERSION = 2

logger = logging.getLogger(__name__)


def _payload_checksum(namespaces, a_bits, b_bits, scalars, bins, counters) -> int:
    """CRC32 over every payload array, keys included."""
    crc = 0
    for ns, ab, bb in zip(namespaces, a_bits, b_bits):
        crc = zlib.crc32(str(ns).encode("utf-8"), crc)
        crc = zlib.crc32(bytes(ab), crc)
        crc = zlib.crc32(bytes(bb), crc)
    crc = zlib.crc32(np.ascontiguousarray(scalars).tobytes(), crc)
    crc = zlib.crc32(np.ascontiguousarray(bins).tobytes(), crc)
    crc = zlib.crc32(np.ascontiguousarray(counters).tobytes(), crc)
    return crc & 0xFFFFFFFF


def is_store_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` designates a :class:`repro.store.ResultStore`.

    True only for a path whose ``STORE.json`` manifest exists, or an
    *empty* existing directory (one a store may be initialised in).  A
    non-empty directory without a manifest — a typo'd ``--cache`` path,
    an output directory — is *not* routed to the store: silently
    initialising a fresh store there would bury the mistake.  Plain
    files (and paths yet to be created) are treated as legacy ``.npz``
    snapshots.
    """
    path = Path(str(path))
    if (path / MANIFEST_NAME).exists():
        return True
    if not path.is_dir():
        return False
    return next(iter(path.iterdir()), None) is None


def save_cache(path: Union[str, Path]) -> int:
    """Persist the engine's current block cache; returns entries written.

    When ``path`` is a result-store directory this flushes the bound
    store (appends are write-through, so they are already on disk) and
    additionally imports any engine-cache entries the store doesn't
    hold yet — e.g. results loaded from a legacy snapshot earlier in
    the process; the return value counts only those newly appended
    records, mirroring the ``.npz`` branch's entries-written contract.
    """
    if is_store_path(path):
        return _save_to_store(Path(str(path)))
    entries = list(engine.get_cache().items())
    keys = [key for key, _ in entries]
    rows = np.array([row for _, row in entries], dtype=np.int64)
    rows = rows.reshape(len(entries), VECTOR_WIDTH)
    scalars = rows[:, 0:2]
    bins = rows[:, 2:6]
    counter_matrix = rows[:, 6:].astype(np.float64)
    namespaces = np.asarray([k[0] for k in keys], dtype=object)
    a_arr = np.asarray([k[1] for k in keys], dtype=object)
    b_arr = np.asarray([k[2] for k in keys], dtype=object)
    checksum = _payload_checksum(namespaces, a_arr, b_arr, scalars, bins, counter_matrix)
    np.savez_compressed(
        str(path),
        version=np.asarray([CACHE_VERSION]),
        checksum=np.asarray([checksum], dtype=np.int64),
        namespaces=namespaces,
        a_bits=a_arr,
        b_bits=b_arr,
        scalars=scalars,
        bins=bins,
        counters=counter_matrix,
        actions=np.asarray(ACTIONS, dtype=object),
    )
    return len(entries)


def _read_entries(path: Path) -> List[Tuple[CacheKey, np.ndarray]]:
    """Parse and integrity-check one legacy ``.npz`` snapshot."""
    try:
        with np.load(path, allow_pickle=True) as data:
            if int(data["version"][0]) != CACHE_VERSION:
                raise FormatError("cache file version mismatch")
            actions = tuple(data["actions"])
            if actions != ACTIONS:
                raise FormatError("cache action vocabulary differs from this build")
            namespaces = data["namespaces"]
            a_bits = data["a_bits"]
            b_bits = data["b_bits"]
            scalars = data["scalars"]
            bins = data["bins"]
            counter_matrix = data["counters"]
            stored = int(data["checksum"][0])
            actual = _payload_checksum(
                namespaces, a_bits, b_bits, scalars, bins, counter_matrix
            )
            if stored != actual:
                raise FormatError(
                    f"cache payload checksum mismatch "
                    f"(stored {stored:#010x}, computed {actual:#010x})"
                )
            n = len(namespaces)
            if any(arr.shape[0] != n for arr in (a_bits, b_bits, scalars, bins,
                                                 counter_matrix)):
                raise FormatError("cache payload arrays disagree on entry count")
            if not np.array_equal(counter_matrix, np.rint(counter_matrix)):
                raise FormatError("cache payload holds non-integer counter values")
            rows = np.hstack([scalars, bins, counter_matrix.astype(np.int64)])
            if rows.shape != (n, VECTOR_WIDTH) or rows.dtype != np.int64:
                raise FormatError("cache payload rows have the wrong width")
    except FormatError:
        raise
    except (zipfile.BadZipFile, zlib.error, pickle.UnpicklingError, KeyError,
            ValueError, IndexError, EOFError, OSError) as exc:
        raise FormatError(f"corrupt or unreadable cache file {path}: {exc}") from exc
    keys = [(str(ns), bytes(ab), bytes(bb))
            for ns, ab, bb in zip(namespaces, a_bits, b_bits)]
    return list(zip(keys, rows))


def load_cache(path: Union[str, Path], merge: bool = True) -> int:
    """Load a persisted cache into the engine; returns entries loaded.

    ``merge=False`` clears the in-memory cache first.  Entries whose
    action vocabulary no longer matches the running build are rejected
    (the energy table would silently misprice them otherwise).  Any
    malformed archive — truncated, bit-flipped, not a zip, missing
    fields — raises :class:`FormatError`; the in-memory cache is left
    untouched in that case.
    """
    entries = _read_entries(Path(str(path)))
    if not merge:
        engine.clear_cache()
    cache = engine.get_cache()
    for key, row in entries:
        # Stats-neutral mapping insert: loading a warm cache is not a
        # simulation hit, and the LRU bound still applies.
        cache[key] = row
    return len(entries)


def migrate_cache(path: Union[str, Path],
                  store_root: Union[str, Path]) -> int:
    """Import a legacy ``.npz`` snapshot into a result store.

    Returns the number of records actually appended (entries whose
    digest the store already holds are skipped).  The snapshot is
    validated exactly as :func:`load_cache` would; the engine's
    in-memory cache is untouched.
    """
    entries = _read_entries(Path(str(path)))
    bound = engine.bound_store()
    root = Path(str(store_root))
    if bound is not None and Path(bound.root) == root:
        store, owned = bound, False
    else:
        store, owned = ResultStore(root), True
    try:
        appended = sum(1 for key, row in entries if store.insert(key, row))
        store.flush()
    finally:
        if owned:
            store.close()
    logger.info("migrated %d of %d entr(ies) from %s into store %s",
                appended, len(entries), path, store_root)
    return appended


def _save_to_store(root: Path) -> int:
    """Store-directory branch of :func:`save_cache`."""
    bound = engine.bound_store()
    if bound is not None and Path(bound.root) == root:
        store, owned = bound, False
    else:
        store, owned = ResultStore(root), True
    try:
        written = sum(1 for key, row in engine.get_cache().items()
                      if store.insert(key, row))
        store.flush()
        return written
    finally:
        if owned:
            store.close()


def _bind_store(root: Path) -> int:
    """Store-directory branch of :func:`load_cache_or_cold`."""
    bound = engine.bound_store()
    if bound is not None and Path(bound.root) == root:
        bound.refresh()
        return len(bound)
    store = ResultStore(root)
    engine.bind_store(store)
    logger.info("bound result store %s (%d record(s)) as the block-cache "
                "second tier", root, len(store))
    return len(store)


def load_cache_or_cold(path: Union[str, Path], merge: bool = True) -> int:
    """Warm-start helper: load a cache if possible, else start cold.

    A missing file returns 0 silently (first run); a corrupt or
    incompatible file logs a warning and returns 0 — the sweep then
    rebuilds the cache from scratch instead of dying on startup.

    A ``path`` that is a result-store directory is not bulk-loaded:
    the store is opened and bound as the engine cache's second tier
    (results stream in on demand), and the count of stored records is
    returned.  The binding persists for the process; callers that need
    scoped binding should use :func:`repro.sim.engine.store_tier`.
    """
    path = Path(str(path))
    if is_store_path(path):
        return _bind_store(path)
    if not path.exists():
        return 0
    try:
        return load_cache(path, merge=merge)
    except FormatError as exc:
        logger.warning("ignoring unusable block cache %s (%s); rebuilding cold",
                       path, exc)
        return 0
