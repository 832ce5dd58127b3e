"""The kernel-level simulation engine.

``simulate_kernel`` enumerates a kernel's T1 task stream over BBC
operands as array batches (:mod:`repro.kernels.batched`) and hands them
to ``simulate_batches``, the one engine entry.  A call runs in three
steps:

- **probe**: each batch is coalesced so a distinct pattern pair is
  looked up exactly once with its combined weight, its memo keys are
  built as one int array, and each unique pair costs one memo
  ``lookup``;
- **resolve**: the misses reach
  :meth:`~repro.arch.base.STCModel.simulate_blocks` as one unit-weight
  :class:`~repro.kernels.batched.TaskBatch`, and each returned row is
  ``insert``-ed into the memo;
- **fold**: the run's cycles / utilisation / counters / energy are
  aggregated into a :class:`~repro.sim.results.SimReport`.

Resolve belongs to a *miss pool*.  Outside one, a call is a pool of one
and resolves before it returns.  Inside :func:`miss_pool` (the graph
runner opens one per inference request) a call only probes: it returns
its report unfinished, and the pool resolves every call's misses when
it closes, with one ``simulate_blocks`` call per (memo, model
namespace, B width, pattern-table epoch), each distinct pair once, then
folds each call's report from its own rows.  Patterns have one form
from the BBC encoder to the models, packed level-2 tile bitmaps that
each matrix interns once (:data:`~repro.formats.bbc.PATTERNS`).

A block result is one int64 row in the
:data:`~repro.arch.base.VECTOR_WIDTH` layout from the model to the
report.  Models return ``[N, VECTOR_WIDTH]`` arrays, which the engine
renders to bytes once per call and slices into one immutable
:data:`~repro.arch.base.ROW_BYTES` row per miss: the form both memo
tiers hold, so no cached row aliases a model's output.  A run's rows
are joined into one matrix (:func:`~repro.arch.base.row_matrix`) and
folded against its coalesced int64 weights in one reduction
(:func:`_aggregate`), whose result is the report's int64 totals vector
as it stands, priced once.

Because STC models are pure functions of a task's pattern pair, rows
are memoised keyed by ``(model.cache_key(), A key, B key)``, as one
int: the two patterns' interned ids under a prefix for the namespace
and the pattern table's epoch
(:meth:`~repro.kernels.batched.TaskBatch.cache_keys`).  The same tile
patterns repeat heavily across a matrix and across a corpus, which is
what makes corpus-scale sweeps tractable in Python.  The memo lives in
a bounded LRU
(:class:`~repro.sim.blockcache.BlockCache`) with observable
hit/miss/eviction statistics; one process-wide instance is shared by
every core of ``simulate_parallel``, and a bound
:class:`~repro.store.ResultStore` (:func:`bind_store`) persists it
between sweep cases and across processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.arch.base import ROW_BYTES, ROW_DTYPE, VECTOR_WIDTH, STCModel, row_matrix
from repro.energy.model import DEFAULT_MODEL, EnergyModel
from repro.errors import SimulationError
from repro.formats.bbc import BBCMatrix
from repro.kernels.batched import TaskBatch, coalesce_raw, kernel_task_batches
from repro.sim.blockcache import BlockCache, CacheStats
from repro.sim.results import SimReport

#: The process-wide memo.  Kept under its historic name because the
#: fault-injection campaign addresses it via the mapping protocol; the
#: engine itself uses the stats-aware ``lookup``/``insert`` API.
_BLOCK_CACHE = BlockCache()


def get_cache() -> BlockCache:
    """The process-wide block-result cache instance."""
    return _BLOCK_CACHE


def set_cache_capacity(capacity: Optional[int]) -> None:
    """Re-bound the process-wide cache (None = unbounded); evicts now."""
    _BLOCK_CACHE.rebound(capacity)


def clear_cache() -> None:
    """Drop all memoised per-block results and reset the statistics."""
    _BLOCK_CACHE.clear()


def bind_store(store) -> None:
    """Attach a persistent second tier to the process-wide cache.

    ``store`` is duck-typed (``lookup``/``insert``), in practice a
    :class:`repro.store.ResultStore`.  LRU misses then consult the
    store and inserts write through; see
    :class:`~repro.sim.blockcache.BlockCache`.
    """
    _BLOCK_CACHE.store = store


def bound_store():
    """The currently bound second tier, or ``None``."""
    return _BLOCK_CACHE.store


def unbind_store():
    """Detach and return the second tier (``None`` if none was bound)."""
    store = _BLOCK_CACHE.store
    _BLOCK_CACHE.store = None
    return store


@contextmanager
def store_tier(store):
    """Temporarily bind ``store`` as the process cache's second tier.

    Restores whatever was bound before on exit, so nested scopes (a
    Session-wide store around a service request's store) compose.  The
    caller keeps ownership of the store handle — this never closes it.
    """
    previous = _BLOCK_CACHE.store
    _BLOCK_CACHE.store = store
    try:
        yield store
    finally:
        _BLOCK_CACHE.store = previous


def cache_size() -> int:
    """Number of memoised (model, block-pair) entries."""
    return len(_BLOCK_CACHE)


def cache_stats() -> CacheStats:
    """Hit/miss/eviction counters of the process-wide cache.

    These are **lifetime** totals — they accumulate across every run
    since process start (or the last ``clear_cache()``/``reset()``).
    For per-run attribution use ``SimReport.cache``, which the engine
    fills with a :meth:`CacheStats.snapshot`/:meth:`CacheStats.delta`
    pair around each simulation.
    """
    return _BLOCK_CACHE.stats


def simulate_batches(
    stc: STCModel,
    batches: Iterable[TaskBatch],
    kernel: str = "custom",
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    matrix: Optional[str] = None,
    cache: Optional[BlockCache] = None,
) -> SimReport:
    """Run batched (array-of-pattern-pairs) task streams on one model.

    Each batch is coalesced so a distinct pattern pair hits the model
    (or the memo) exactly once with its aggregate weight.  The call's
    misses go to :meth:`~repro.arch.base.STCModel.simulate_blocks` as
    one unit-weight :class:`TaskBatch` (memoised rows must not depend
    on the stream weight); the returned matrix is rendered to bytes
    once and each row's slice is inserted into the memo.  ``cache``
    overrides the process-wide memo (used by tests that need isolated
    caches and by ablations that compare cache policies).

    Inside :func:`miss_pool` the call only probes: the returned report
    is complete only once the pool closes.
    """
    pool = _POOL.get()
    if pool is not None:
        return pool.probe(stc, batches, kernel, energy_model, matrix, cache)
    pool = _MissPool()
    report = pool.probe(stc, batches, kernel, energy_model, matrix, cache)
    pool.resolve()
    return report


_POOL: ContextVar[Optional["_MissPool"]] = ContextVar("miss_pool", default=None)
#: What a pool without parts has pending.
_NOTHING_PENDING: frozenset = frozenset()
#: A probed row slot that a pending pair's row fills at resolve.
_SERVED = object()


@contextmanager
def miss_pool():
    """Pool the memo misses of every ``simulate_batches`` call inside.

    The calls only probe the memo and return unfinished reports.  When
    the block exits normally, one ``simulate_blocks`` call per (memo,
    model namespace, B width, pattern-table epoch) simulates each
    distinct missed pair once, the rows are inserted in pooled order
    (call by call, each call's misses in probe order), and each report
    is folded from its own rows, byte-identical to a standalone call's.
    A pair an earlier call of the pool missed counts as a hit, as it
    would after that call's insert.  If the block raises, the pool
    resolves nothing and no row of it reaches the memo or a bound
    store.  Pools live in a context variable, so threads never share
    one, and nest as independent scopes.  ``docs/graph.md`` gives the
    per-report ``cache`` and ``wall_s`` rules and what pooled insertion
    order changes past the LRU's capacity.
    """
    pool = _MissPool()
    token = _POOL.set(pool)
    try:
        yield
    finally:
        _POOL.reset(token)
    pool.resolve()


class _Run:
    """One ``simulate_batches`` call in a pool, from probe to fold."""

    __slots__ = ("report", "stc", "memo", "energy_model", "rows", "weights",
                 "parts", "holes", "misses", "probed", "own_s")

    def __init__(self, report, stc, memo, energy_model) -> None:
        self.report, self.stc, self.memo = report, stc, memo
        self.energy_model = energy_model
        self.rows: List[Optional[bytes]] = []
        self.weights: List[np.ndarray] = []
        #: The misses this run saw first in its pool, one part per batch:
        #: it inserts them.
        self.parts: List[_Part] = []
        #: ``(batch offset in rows, slots, batch keys)`` of the pairs
        #: an earlier part of the pool missed first.
        self.holes: List[Tuple[int, List[int], List[int]]] = []
        self.misses = 0
        self.probed: Optional[CacheStats] = None
        #: Seconds spent on this run alone: probe, inserts and fold.
        self.own_s = 0.0


class _Part:
    """One batch's first misses: where they sit in the run and in the model's result."""

    __slots__ = ("pairs", "slots", "keys", "offset", "data", "start")

    def __init__(self, pairs: TaskBatch, slots: List[int], keys: List[int],
                 offset: int) -> None:
        self.pairs, self.slots, self.keys, self.offset = pairs, slots, keys, offset
        #: The pooled call's rows as bytes, and this part's first byte.
        self.data, self.start = b"", 0


class _MissPool:
    """The pending misses of some ``simulate_batches`` calls (see :func:`miss_pool`)."""

    def __init__(self) -> None:
        self.runs: List[_Run] = []
        self.misses = 0
        #: (id(memo), namespace, n, epoch) -> [stc, parts]: one
        #: ``simulate_blocks`` call each.
        self.groups: Dict[tuple, list] = {}
        #: ``id(memo)`` -> the keys the parts so far missed.  Built when
        #: a batch probes after a part exists, so a lone batch (every
        #: call outside a pool) keeps no per-miss set.
        self.pending: Optional[Dict[int, Set[int]]] = None

    def _pending(self, memo: BlockCache):
        """The keys an earlier part of this pool missed in ``memo``."""
        if self.pending is None:
            if not self.groups:
                return _NOTHING_PENDING
            self.pending = {}
            for (memo_id, *_), (_, parts) in self.groups.items():
                keys = self.pending.setdefault(memo_id, set())
                for part in parts:
                    keys.update(map(part.keys.__getitem__, part.slots))
        return self.pending.setdefault(id(memo), set())

    def probe(self, stc: STCModel, batches: Iterable[TaskBatch], kernel: str,
              energy_model: Optional[EnergyModel], matrix: Optional[str],
              cache: Optional[BlockCache]) -> SimReport:
        """Look a call's unique pairs up and queue its misses; its report is unfinished."""
        t0 = perf_counter()
        memo = _BLOCK_CACHE if cache is None else cache
        run = _Run(SimReport(stc.name, kernel, matrix=matrix), stc, memo, energy_model)
        self.runs.append(run)
        namespace = stc.cache_key()
        stats = memo.stats
        stats_before = stats.snapshot()
        lookup = memo.lookup
        for index, batch in enumerate(batches):
            with obs.span("batch", index=index, tasks=len(batch)):
                pairs = coalesce_raw(batch)
                keys = pairs.cache_keys(namespace)
                offset = len(run.rows)
                pending = self._pending(memo)
                misses = stats.misses
                # Only a batch with something pending checks its keys: the
                # check made a warm uni-stc pass over the n=128/256/512
                # corpus 5% slower and cold calls of every STC 1-2% slower
                # (one process, interleaved, 2-core host).
                if pending:
                    # A pair an earlier part missed is served from that
                    # part's row without a lookup, and counts as a hit.
                    found = [_SERVED if key in pending else lookup(key) for key in keys]
                    served = [slot for slot, row in enumerate(found) if row is _SERVED]
                    if served:
                        stats.hits += len(served)
                        run.holes.append((offset, served, keys))
                else:
                    found = [lookup(key) for key in keys]
                # A lookup returns None exactly when it counts a miss, so a
                # batch whose lookups counted none has no slot to list.
                missed = (stats.misses != misses
                          and [slot for slot, row in enumerate(found) if row is None])
                if missed:
                    part = _Part(pairs, missed, keys, offset)
                    run.parts.append(part)
                    run.misses += len(missed)
                    self.misses += len(missed)
                    self.groups.setdefault((id(memo), namespace, pairs.n, pairs.epoch),
                                           [stc, []])[1].append(part)
                    if self.pending is not None:
                        pending.update(map(keys.__getitem__, missed))
                run.rows.extend(found)
                run.weights.append(pairs.weights)
        run.probed = stats.delta(stats_before)
        run.own_s = perf_counter() - t0
        return run.report

    def resolve(self) -> None:
        """Simulate every pending miss, insert the rows and fold each run.

        Every group is simulated before any insert, so a model that
        raises leaves the memo as the probes left it.  A run's
        ``wall_s`` is its own probe, inserts and fold plus the pool's
        model time split over the runs by the misses each owns; its
        ``cache`` dict is its own lookups plus the inserts and
        evictions of its own misses.
        """
        model_s = 0.0
        if self.groups:
            t0 = perf_counter()
            with obs.span("resolve", runs=len(self.runs)):
                for (_, _, n, epoch), (stc, parts) in self.groups.items():
                    misses = _pooled_batch(parts, n, epoch)
                    data = _checked_rows(stc, stc.simulate_blocks(misses), len(misses)
                                         ).astype(ROW_DTYPE, copy=False).tobytes()
                    start = 0
                    for part in parts:
                        part.data, part.start = data, start
                        start += len(part.slots) * ROW_BYTES
            model_s = (perf_counter() - t0) / self.misses
        resolved = None
        for run in self.runs:
            t0 = perf_counter()
            memo, delta, rows = run.memo, run.probed, run.rows
            if run.parts:
                # An insert moves only these three counters, so adding their
                # change to the probe's delta covers the run's lookups and
                # its own inserts, evictions and store appends, not other
                # runs'.
                stats = memo.stats
                inserts, evictions, appends = stats.inserts, stats.evictions, stats.store_appends
                insert = memo.insert
                for part in run.parts:
                    keys, offset, data = part.keys, part.offset, part.data
                    for at, slot in zip(range(part.start, len(data), ROW_BYTES), part.slots):
                        row = data[at:at + ROW_BYTES]
                        insert(keys[slot], row)
                        rows[offset + slot] = row
                delta.inserts += stats.inserts - inserts
                delta.evictions += stats.evictions - evictions
                delta.store_appends += stats.store_appends - appends
            if run.holes and resolved is None:
                resolved = {part.keys[slot]: part.data[at:at + ROW_BYTES]
                            for _, parts in self.groups.values() for part in parts
                            for at, slot in zip(range(part.start, len(part.data), ROW_BYTES),
                                                part.slots)}
            for offset, slots, keys in run.holes:
                for slot in slots:
                    rows[offset + slot] = resolved[keys[slot]]
            weights = run.weights
            _aggregate(run.report, row_matrix(rows),
                       weights[0] if len(weights) == 1 else np.concatenate(weights or [[]]),
                       run.energy_model)
            _finalise_run(run.report, memo, delta,
                          run.own_s + model_s * run.misses + perf_counter() - t0)


def _pooled_batch(parts, n: int, epoch: int) -> TaskBatch:
    """One unit-weight batch of the parts' missed pairs, in pooled order.

    A lone part keeps its own (distinct) pattern tables.  Several parts'
    tables are joined and deduplicated by interned id (all of one
    epoch, so equal ids are equal patterns); nothing is re-interned.
    """
    if len(parts) == 1:
        pairs, slots = parts[0].pairs, np.array(parts[0].slots)
        return TaskBatch(pairs.a_patterns, pairs.b_patterns, pairs.a_index[slots],
                         pairs.b_index[slots], np.ones(slots.size, dtype=np.int64), n,
                         pairs.a_ids, pairs.b_ids, epoch)
    picks = [(part.pairs, np.array(part.slots)) for part in parts]
    a_patterns, a_ids, a_index = _distinct(
        [(pairs.a_patterns, pairs.a_ids, pairs.a_index[slots]) for pairs, slots in picks])
    b_patterns, b_ids, b_index = _distinct(
        [(pairs.b_patterns, pairs.b_ids, pairs.b_index[slots]) for pairs, slots in picks])
    return TaskBatch(
        a_patterns=a_patterns, b_patterns=b_patterns, a_index=a_index, b_index=b_index,
        weights=np.ones(a_index.size, dtype=np.int64), n=n,
        a_ids=a_ids, b_ids=b_ids, epoch=epoch,
    )


def _distinct(operands):
    """The rows ``(table, ids, index)`` operands pick, as ``(patterns, ids, index)``.

    Equal ids are equal patterns, so each distinct id keeps its first row.
    """
    offsets = np.cumsum([0] + [len(table) for table, _, _ in operands[:-1]])
    index = np.concatenate([picked + offset for (_, _, picked), offset in zip(operands, offsets)])
    ids, first, index_of = np.unique(np.concatenate([ids for _, ids, _ in operands])[index],
                                     return_index=True, return_inverse=True)
    return np.concatenate([table for table, _, _ in operands])[index[first]], ids, index_of


def _checked_rows(stc: STCModel, rows, count: int) -> np.ndarray:
    """``rows`` if it is ``simulate_blocks``' int64 ``[count, VECTOR_WIDTH]`` array."""
    if (not isinstance(rows, np.ndarray) or rows.dtype != np.int64
            or rows.shape != (count, VECTOR_WIDTH)):
        got = (f"a {rows.dtype} array of shape {rows.shape}"
               if isinstance(rows, np.ndarray) else f"a {type(rows).__name__}")
        raise SimulationError(
            f"model {stc.name!r} simulate_blocks returned {got}; expected an "
            f"int64 array of shape ({count}, {VECTOR_WIDTH})")
    return rows


def _aggregate(report: SimReport, rows: np.ndarray, weights,
               energy_model: Optional[EnergyModel]) -> None:
    """Fold a run's weighted result rows into ``report`` and price its energy.

    One int64 ``einsum`` over the ``[N, VECTOR_WIDTH]`` row matrix and
    its weights (an array or any sequence) is the report's totals
    vector, so corpus-scale totals stay exact past 2^53 where float64
    accumulation would round (an int64 matmul has no BLAS path and is
    several times slower).
    """
    if len(rows):
        w = np.asarray(weights, dtype=np.int64)
        report.totals = np.einsum("i,ij->j", w, rows)
        report.t1_tasks = int(w.sum())
    if energy_model is not None:
        report.price(energy_model)


def _finalise_run(
    report: SimReport,
    memo: BlockCache,
    delta: CacheStats,
    wall_s: float,
) -> None:
    """Attach a run's wall time and cache-counter delta to its report,
    and fold the finished run into the metrics while observability is on."""
    report.wall_s = wall_s
    report.cache = delta.as_dict()
    if obs.enabled():
        obs.metrics().fold_run(
            report.kernel, report.stc,
            (report.t1_tasks, report.cycles, delta.hits, delta.misses, delta.evictions,
             delta.store_hits, delta.store_misses, delta.store_appends),
            wall_s, len(memo))


def simulate_kernel(
    kernel: str,
    a: BBCMatrix,
    stc: STCModel,
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    matrix: Optional[str] = None,
    cache: Optional[BlockCache] = None,
    **operands,
) -> SimReport:
    """Simulate one of the four sparse kernels on BBC operand(s).

    ``operands`` forward to the kernel's task enumeration: ``x`` (a
    :class:`~repro.kernels.vector.SparseVector`) for SpMSpV, ``b_cols``
    for SpMM (default 64, the paper's setting), ``b`` (a second
    :class:`BBCMatrix`) for SpGEMM (default A, i.e. C = A^2).  Inside
    :func:`miss_pool` the report is complete only once the pool closes.
    """
    with obs.span("kernel", kernel=kernel.lower(), stc=stc.name,
                  matrix=matrix):
        batches = kernel_task_batches(kernel, a, **operands)
        return simulate_batches(
            stc, batches, kernel=kernel.lower(), energy_model=energy_model,
            matrix=matrix, cache=cache,
        )
