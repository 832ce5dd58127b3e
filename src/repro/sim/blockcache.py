"""Bounded LRU memoisation for per-block simulation results.

The engine memoises block results on ``(model namespace, A key,
B key)``, the operands' packed patterns, as one int
(:data:`CacheKey`).  A value is the block's result row in its one
memoised form: the :data:`~repro.arch.base.VECTOR_WIDTH` int64 values
as :data:`~repro.arch.base.ROW_BYTES` little-endian bytes, which is
also the result store's record tail.  Bytes are immutable and own their
storage, so a cached row never aliases a model's output.  The original
implementation was an unbounded process-wide dict — fine for one
matrix, a slow leak for a corpus-scale sweep service.
:class:`BlockCache` keeps the same mapping semantics behind a bounded
LRU with observable hit/miss/eviction counters:

- the **engine** goes through :meth:`lookup` / :meth:`insert`, which
  update both the recency order and the statistics;
- the **fault-injection campaign** (:mod:`repro.resilience.faults`)
  uses the plain mapping protocol (``items()``, ``[]``, ``update``
  ...), which is statistics-neutral so bookkeeping traffic never skews
  the measured hit rate.

One instance is shared by every core of ``simulate_parallel``; its
second tier (below) persists it between sweep cases and across
processes.

A :class:`BlockCache` may also be backed by a **second tier**: any
object with ``lookup(key) -> Optional[bytes]`` and
``insert(key, row)`` on the same int keys (duck-typed so this module
needn't import it; in practice a :class:`repro.store.ResultStore`,
which renders each key's record address from the pattern table).
Misses consult the tier and promote its hits into the LRU; inserts
write through.  Tier
hits count as ``hits`` (the caller was served without simulating) and
additionally as ``store_hits``, so the split is observable without
changing the meaning of ``hit_rate``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.errors import ConfigError

#: Cache key: one int naming (model namespace, A pattern bytes, B
#: pattern bytes), ``prefix << PAIR_BITS | a_id << ID_BITS | b_id`` over
#: :data:`repro.formats.bbc.PATTERNS` ids; the prefix stands for the
#: namespace and the table's epoch and is never reused, so a key never
#: names another triple.  ``PATTERNS.key_bytes(key)`` maps it back.
CacheKey = int

#: Default entry bound.  tracemalloc measures an entry (int key plus its
#: 184-byte row) at ~335 bytes on uni-stc over the n=128/256 corpus
#: (34,914 entries; ~367 with the earlier key tuple), so the default caps
#: resident cache memory near 88 MB while holding far more distinct block
#: patterns than any corpus sweep in the benchmark suite produces.  The
#: patterns the keys name live in :data:`repro.formats.bbc.PATTERNS`
#: (~150 bytes each, ``DEFAULT_PATTERN_BOUND`` = 2^17 of them at most).
DEFAULT_CAPACITY = 1 << 18


@dataclass
class CacheStats:
    """Observable counters of one :class:`BlockCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    #: Lookups served by the persistent second tier (a subset of
    #: ``hits``) and lookups that missed both tiers while a tier was
    #: bound (a subset of ``misses``).
    store_hits: int = 0
    store_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """hits / lookups (0.0 before any lookup)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        """store_hits / store lookups — how warm the second tier is."""
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = self.evictions = self.inserts = 0
        self.store_hits = self.store_misses = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters.

        Take one before a run and diff it afterwards with :meth:`delta`
        to attribute hits/misses to that run alone — the process-wide
        cache's counters otherwise accumulate across every run since
        startup.
        """
        return CacheStats(
            hits=self.hits, misses=self.misses,
            evictions=self.evictions, inserts=self.inserts,
            store_hits=self.store_hits, store_misses=self.store_misses,
        )

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated since the ``since`` snapshot."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            evictions=self.evictions - since.evictions,
            inserts=self.inserts - since.inserts,
            store_hits=self.store_hits - since.store_hits,
            store_misses=self.store_misses - since.store_misses,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (for JSON reports).

        The ``store_*`` keys appear only once a second tier has
        actually been consulted — reports from tier-less runs keep
        their historical shape.
        """
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate,
        }
        if self.store_hits or self.store_misses:
            out["store_hits"] = self.store_hits
            out["store_misses"] = self.store_misses
            out["store_hit_rate"] = self.store_hit_rate
        return out


@dataclass
class BlockCache:
    """A bounded LRU mapping from cache keys to byte result rows.

    ``capacity=None`` disables the bound (the legacy unbounded
    behaviour, still useful for short-lived unit tests).
    """

    capacity: Optional[int] = DEFAULT_CAPACITY
    stats: CacheStats = field(default_factory=CacheStats)
    #: Optional persistent second tier (duck-typed ``lookup``/``insert``,
    #: e.g. :class:`repro.store.ResultStore`).  Bind/unbind through
    #: :func:`repro.sim.engine.store_tier` in application code.
    store: Optional[object] = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ConfigError("cache capacity must be positive (or None)")
        self._data: "OrderedDict[CacheKey, bytes]" = OrderedDict()

    # -- engine API (stats-aware) ----------------------------------------

    def lookup(self, key: CacheKey) -> Optional[bytes]:
        """Fetch a memoised row, refreshing its recency; None on miss.

        On an LRU miss with a second tier bound, the tier is consulted
        and its hit promoted into the LRU (stats-neutrally, so the
        promotion isn't double-counted as an insert).
        """
        row = self._data.get(key)
        if row is not None:
            self._data.move_to_end(key)
            self.stats.hits += 1
            return row
        if self.store is not None:
            stored = self.store.lookup(key)
            if stored is not None:
                self._data[key] = stored
                self._evict()
                self.stats.store_hits += 1
                self.stats.hits += 1
                return stored
            self.stats.store_misses += 1
        self.stats.misses += 1
        return None

    def insert(self, key: CacheKey, row: bytes) -> None:
        """Store a row as most-recent, evicting LRU entries if full.

        Writes through to the second tier when one is bound (the tier
        deduplicates internally, so re-inserts after eviction are
        cheap no-ops on disk).
        """
        self._data[key] = row
        self._data.move_to_end(key)
        self.stats.inserts += 1
        if self.store is not None:
            self.store.insert(key, row)
        self._evict()

    def _evict(self) -> None:
        if self.capacity is None:
            return
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def rebound(self, capacity: Optional[int]) -> None:
        """Change the entry bound (None = unbounded), evicting to fit now.

        Evictions performed here count in the statistics like any
        capacity-driven eviction.
        """
        if capacity is not None and capacity <= 0:
            raise ConfigError("cache capacity must be positive (or None)")
        self.capacity = capacity
        self._evict()

    # -- mapping protocol (stats-neutral) --------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[CacheKey]:
        return iter(self._data)

    def __getitem__(self, key: CacheKey) -> bytes:
        return self._data[key]

    def __setitem__(self, key: CacheKey, row: bytes) -> None:
        self._data[key] = row
        self._evict()

    def get(self, key: CacheKey, default=None):
        """Stats-neutral fetch (no recency update)."""
        return self._data.get(key, default)

    def keys(self):
        return self._data.keys()

    def values(self):
        return self._data.values()

    def items(self):
        return self._data.items()

    def update(self, other) -> None:
        """Bulk, stats-neutral merge (eviction bound still enforced)."""
        self._data.update(other)
        self._evict()

    def clear(self, reset_stats: bool = True) -> None:
        """Drop every entry; by default also zero the counters."""
        self._data.clear()
        if reset_stats:
            self.stats.reset()

    def __repr__(self) -> str:
        cap = "unbounded" if self.capacity is None else str(self.capacity)
        return (f"BlockCache(entries={len(self._data)}, capacity={cap}, "
                f"hit_rate={self.stats.hit_rate:.3f})")
