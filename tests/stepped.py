"""The stepped oracle: per-object T1 task streams and the per-task engine.

Production enumerates every kernel as arrays
(:mod:`repro.kernels.batched`) and folds coalesced rows through
:func:`repro.sim.engine.simulate_batches`.  This module keeps the
readable reference those paths are checked against:

- four generators implementing the kernel dataflows of §V-A one
  :class:`~repro.arch.tasks.T1Task` at a time, in per-object order,
  each block's grid decoded by the scalar
  :meth:`~repro.formats.bbc.BBCMatrix.block_bitmap` (so the oracle
  shares no code with the packed ``block_patterns`` path):

  - SpMV / SpMSpV (Algorithm 1): one task per nonzero A block whose
    x-segment is live; B operand is a 16x1 mask.
  - SpMM (Algorithm 2, dense B): each nonzero A block meets every
    16-wide column panel of B; identical panels are collapsed into one
    weighted task.
  - SpGEMM (Algorithm 2): row-by-row outer product — each A block
    (I, K) meets every stored B block in block row K.

  Every generator takes an optional contiguous ``rows`` range, the
  hook the multi-core partitioner restricts enumeration with;
- :func:`simulate_tasks`, which steps the model's oracle
  (:func:`tests.stepped_models.stepped_block`) on every memo miss,
  memoises its row in the engine's byte form under the engine's int key
  (``T1Task.cache_key()`` mapped through the pattern table, so stepped
  and vectorised runs share memo entries) and folds the rows through
  the engine's own aggregation;
- :func:`simulate_stepped`, the two chained: a kernel simulated the
  per-object way, whose report must equal ``simulate_kernel``'s.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.arch.base import ROW_DTYPE, STCModel, row_matrix
from repro.arch.tasks import T1Task
from repro.energy.model import DEFAULT_MODEL, EnergyModel
from repro.errors import ShapeError
from repro.formats.bbc import BLOCK, PATTERNS, BBCMatrix
from repro.kernels.vector import SparseVector, dense_segment_mask
from repro.sim.blockcache import BlockCache
from repro.sim.engine import _BLOCK_CACHE, _aggregate, _finalise_run
from repro.sim.results import SimReport

from tests.stepped_models import stepped_block


def _row_span(a: BBCMatrix, rows: Optional[range]) -> range:
    if rows is None:
        return range(a.block_rows)
    if rows.step != 1:
        raise ShapeError("block-row ranges must be contiguous (step 1)")
    if len(rows) and (rows.start < 0 or rows.stop > a.block_rows):
        raise ShapeError(f"block-row range {rows} outside 0..{a.block_rows}")
    return rows


def spmv_tasks(a: BBCMatrix, rows: Optional[range] = None) -> Iterator[T1Task]:
    """Task stream of y = A @ x with dense x.

    The 16x1 x-segment mask is computed once per *block column* and
    reused by every block in that column (it only depends on where the
    padded tail of x falls, not on the block).
    """
    n = a.shape[1]
    masks: dict = {}
    for brow in _row_span(a, rows):
        cols, idxs = a.block_row(brow)
        for bcol, idx in zip(cols, idxs):
            bcol = int(bcol)
            mask = masks.get(bcol)
            if mask is None:
                mask = dense_segment_mask(n, bcol, BLOCK)
                masks[bcol] = mask
            if not mask.any():
                continue
            yield T1Task.from_bitmaps(a.block_bitmap(idx), mask[:, None])


def spmspv_tasks(a: BBCMatrix, x: SparseVector,
                 rows: Optional[range] = None) -> Iterator[T1Task]:
    """Task stream of y = A @ x with sparse x; dead segments are skipped."""
    if x.n != a.shape[1]:
        raise ShapeError(f"x has length {x.n}, expected {a.shape[1]}")
    masks = {int(s): x.segment_mask(int(s), BLOCK) for s in x.nonempty_segments(BLOCK)}
    for brow in _row_span(a, rows):
        cols, idxs = a.block_row(brow)
        for bcol, idx in zip(cols, idxs):
            mask = masks.get(int(bcol))
            if mask is None:
                continue
            yield T1Task.from_bitmaps(a.block_bitmap(idx), mask[:, None])


def spmm_tasks(a: BBCMatrix, b_cols: int = 64,
               rows: Optional[range] = None) -> Iterator[T1Task]:
    """Task stream of C = A @ B with dense B of ``b_cols`` columns.

    Every column panel of B is dense and identical in structure, so one
    weighted task per A block stands for all ``ceil(b_cols/16)`` panels
    (the trailing partial panel, if any, gets its own task).
    """
    if b_cols <= 0:
        raise ShapeError("B must have at least one column")
    full_panels, tail = divmod(b_cols, BLOCK)
    full_mask = np.ones((BLOCK, BLOCK), dtype=bool)
    tail_mask = np.zeros((BLOCK, BLOCK), dtype=bool)
    tail_mask[:, :tail] = True
    for brow in _row_span(a, rows):
        _, idxs = a.block_row(brow)
        for idx in idxs:
            grid = a.block_bitmap(idx)
            if full_panels:
                yield T1Task.from_bitmaps(grid, full_mask, weight=full_panels)
            if tail:
                yield T1Task.from_bitmaps(grid, tail_mask)


def spgemm_tasks(a: BBCMatrix, b: BBCMatrix,
                 rows: Optional[range] = None) -> Iterator[T1Task]:
    """Task stream of C = A @ B with both operands sparse."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    b_grids = {}
    for brow in _row_span(a, rows):
        a_cols, a_idx = a.block_row(brow)
        for bcol_a, idx_a in zip(a_cols, a_idx):
            if bcol_a >= b.block_rows:
                continue
            a_grid = a.block_bitmap(idx_a)
            _, b_idx = b.block_row(int(bcol_a))
            for idx_b in b_idx:
                if idx_b not in b_grids:
                    b_grids[idx_b] = b.block_bitmap(idx_b)
                yield T1Task.from_bitmaps(a_grid, b_grids[idx_b])


def kernel_tasks(kernel: str, a: BBCMatrix, rows: Optional[range] = None,
                 **operands) -> Iterator[T1Task]:
    """Dispatch to the task generator for ``kernel`` by name.

    ``kernel`` is one of ``spmv``, ``spmspv`` (needs ``x``), ``spmm``
    (optional ``b_cols``, default 64) or ``spgemm`` (optional ``b``,
    default A itself, i.e. the paper's C = A^2 setting).  ``rows``
    restricts enumeration to a contiguous block-row range — the hook
    the static multi-core partitioner uses.
    """
    name = kernel.lower()
    if name == "spmv":
        return spmv_tasks(a, rows=rows)
    if name == "spmspv":
        x = operands.get("x")
        if x is None:
            raise ShapeError("spmspv requires a sparse vector operand 'x'")
        return spmspv_tasks(a, x, rows=rows)
    if name == "spmm":
        return spmm_tasks(a, operands.get("b_cols", 64), rows=rows)
    if name == "spgemm":
        b = operands.get("b")
        return spgemm_tasks(a, b if b is not None else a, rows=rows)
    raise ShapeError(f"unknown kernel {kernel!r}")


def simulate_tasks(
    stc: STCModel,
    tasks: Iterable[T1Task],
    kernel: str = "custom",
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    matrix: Optional[str] = None,
    cache: Optional[BlockCache] = None,
) -> SimReport:
    """Run an explicit T1 task stream on one STC model.

    The per-object reference path: every memo miss steps the model's
    stepped oracle (:func:`~tests.stepped_models.stepped_block`).  ``cache``
    overrides the process-wide memo (used by tests that need isolated
    caches and by ablations that compare cache policies).
    """
    memo = _BLOCK_CACHE if cache is None else cache
    report = SimReport(stc=stc.name, kernel=kernel, matrix=matrix)
    namespace = stc.cache_key()
    stats_before = memo.stats.snapshot()
    t0 = perf_counter()
    rows = []
    weights = []
    for task in tasks:
        key = PATTERNS.memo_key(namespace, *task.cache_key())
        row = memo.lookup(key)
        if row is None:
            row = stepped_block(stc, task).row().astype(ROW_DTYPE).tobytes()
            memo.insert(key, row)
        rows.append(row)
        weights.append(task.weight)
    _aggregate(report, row_matrix(rows), weights, stc, energy_model)
    _finalise_run(report, memo, stats_before, perf_counter() - t0)
    return report


def simulate_stepped(
    kernel: str,
    a: BBCMatrix,
    stc: STCModel,
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    matrix: Optional[str] = None,
    cache: Optional[BlockCache] = None,
    **operands,
) -> SimReport:
    """``simulate_kernel``'s stepped twin: generator stream, per-task engine."""
    return simulate_tasks(
        stc, kernel_tasks(kernel, a, **operands), kernel=kernel.lower(),
        energy_model=energy_model, matrix=matrix, cache=cache,
    )
