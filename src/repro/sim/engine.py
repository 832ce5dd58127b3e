"""The kernel-level simulation engine.

``simulate_kernel`` enumerates a kernel's T1 task stream over BBC
operands as array batches (:mod:`repro.kernels.batched`) and hands them
to ``simulate_batches``, the one engine entry: each batch is coalesced
so a distinct pattern pair is looked up (and, on a miss, simulated)
exactly once with its combined weight, and the run's cycles /
utilisation / counters / energy are aggregated into a
:class:`~repro.sim.results.SimReport`.  Patterns have one form from
the BBC encoder to the models, packed level-2 tile bitmaps that each
matrix interns once (:data:`~repro.formats.bbc.PATTERNS`): a warm batch
builds its memo keys as one int array and costs one memo lookup per
unique pair, and its misses reach ``simulate_blocks`` as one
unit-weight :class:`~repro.kernels.batched.TaskBatch`.

A block result is one int64 row in the
:data:`~repro.arch.base.VECTOR_WIDTH` layout from the model to the
report.  Models return ``[N, VECTOR_WIDTH]`` arrays, which the engine
renders to bytes once per call and slices into one immutable
:data:`~repro.arch.base.ROW_BYTES` row per miss: the form both memo
tiers hold, so no cached row aliases a model's output.  A run's rows
are joined into one matrix (:func:`~repro.arch.base.row_matrix`) and
folded against its coalesced int64 weights in one reduction
(:func:`_aggregate`), building the report's
``Counters``/``UtilHistogram`` once.

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
from dataclasses import replace
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.arch.base import (ACTION_COL, ROW_BYTES, ROW_DTYPE, VECTOR_WIDTH,
                             STCModel, row_matrix)
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
    (or the memo) exactly once with its aggregate weight.  All memo
    misses of a batch go to :meth:`~repro.arch.base.STCModel.simulate_blocks`
    as one unit-weight :class:`TaskBatch` (memoised rows must not depend
    on the stream weight); the returned matrix is rendered to bytes once
    and each row's slice is inserted into the shared cache.  ``cache``
    overrides the process-wide memo (used by tests that need isolated
    caches and by ablations that compare cache policies).
    """
    memo = _BLOCK_CACHE if cache is None else cache
    report = SimReport(stc=stc.name, kernel=kernel, matrix=matrix)
    namespace = stc.cache_key()
    stats_before = memo.stats.snapshot()
    t0 = perf_counter()
    lookup = memo.lookup
    rows = []
    weights = []
    for index, batch in enumerate(batches):
        with obs.span("batch", index=index, tasks=len(batch)):
            pairs = coalesce_raw(batch)
            keys = pairs.cache_keys(namespace)
            found = [lookup(key) for key in keys]
            missed = [slot for slot, row in enumerate(found) if row is None]
            if missed:
                misses = replace(pairs.take(missed),
                                 weights=np.ones(len(missed), dtype=np.int64))
                simulated = _checked_rows(stc, stc.simulate_blocks(misses), len(missed))
                data = simulated.astype(ROW_DTYPE, copy=False).tobytes()
                for start, slot in zip(range(0, len(data), ROW_BYTES), missed):
                    row = data[start:start + ROW_BYTES]
                    memo.insert(keys[slot], row)
                    found[slot] = row
            rows.extend(found)
            weights.append(pairs.weights)
    _aggregate(report, row_matrix(rows),
               np.concatenate(weights) if weights else [], stc, energy_model)
    _finalise_run(report, memo, stats_before, perf_counter() - t0)
    return report


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


def _aggregate(report: SimReport, rows: np.ndarray, weights, stc: STCModel,
               energy_model: Optional[EnergyModel]) -> None:
    """Fold a run's weighted result rows into ``report`` and price its energy.

    One int64 ``einsum`` over the ``[N, VECTOR_WIDTH]`` row matrix and
    its weights (an array or any sequence), so corpus-scale totals stay
    exact past 2^53 where float64 accumulation would round (an int64
    matmul has no BLAS path and is several times slower).
    """
    if len(rows):
        w = np.asarray(weights, dtype=np.int64)
        acc = np.einsum("i,ij->j", w, rows)
        report.cycles = int(acc[0])
        report.products = int(acc[1])
        report.t1_tasks = int(w.sum())
        report.util_hist.bins += acc[2:6]
        for action, col in ACTION_COL.items():
            if acc[col]:
                report.counters.add(action, int(acc[col]))
    if energy_model is not None:
        report.energy_breakdown = energy_model.breakdown(report.counters, stc.name)
        report.energy_pj = sum(report.energy_breakdown.values())


def _finalise_run(
    report: SimReport,
    memo: BlockCache,
    stats_before: CacheStats,
    wall_s: float,
) -> None:
    """Attach per-run wall time and cache-counter deltas to a report.

    Always on (two clock reads and four subtractions); the metric
    emission below is gated on the observability switch.
    """
    report.wall_s = wall_s
    delta = memo.stats.delta(stats_before)
    report.cache = delta.as_dict()
    if obs.enabled():
        labels = {"kernel": report.kernel, "stc": report.stc}
        obs.inc("sim.t1_tasks", report.t1_tasks, **labels)
        obs.inc("sim.cycles", report.cycles, **labels)
        obs.inc("sim.cache.hits", delta.hits, **labels)
        obs.inc("sim.cache.misses", delta.misses, **labels)
        obs.inc("sim.cache.evictions", delta.evictions, **labels)
        obs.set_gauge("sim.cache.entries", len(memo))
        obs.observe("sim.run_wall_s", wall_s, **labels)


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
    :class:`BBCMatrix`) for SpGEMM (default A, i.e. C = A^2).
    """
    with obs.span("kernel", kernel=kernel.lower(), stc=stc.name,
                  matrix=matrix):
        batches = kernel_task_batches(kernel, a, **operands)
        return simulate_batches(
            stc, batches, kernel=kernel.lower(), energy_model=energy_model,
            matrix=matrix, cache=cache,
        )
