"""T1 task enumeration for the four sparse kernels, as arrays.

Every simulator consumes the *same* stream of T1 tasks (16x16x16 block
multiplies described by packed operand patterns), built here with
array ops over the BBC structure — the one enumeration path of the
package:

- a :class:`TaskBatch` holds distinct packed patterns once
  (``a_patterns`` / ``b_patterns``, BBC's level-2 tile layout) with
  their interned ids (:data:`~repro.formats.bbc.PATTERNS`), plus
  integer index/weight arrays describing every task as an (A pattern,
  B pattern) pair, in the kernel's dataflow order (§V-A: Algorithm 1
  for SpMV/SpMSpV, Algorithm 2 for SpMM/SpGEMM).  A patterns come from
  the matrix's cached :meth:`~repro.formats.bbc.BBCMatrix.block_patterns`
  and the constant B patterns of SpMV and SpMM from module tables, each
  with its ids cached per table epoch, and SpMSpV's x segments come
  from the vector's cached :meth:`~repro.kernels.vector.SparseVector.segment_patterns`,
  so a warm case interns no pattern and :meth:`TaskBatch.cache_keys`
  is one int per pair from one numpy expression;
- :func:`coalesce_raw` collapses identical pairs into weighted unique
  pairs in pair-id order, so the engine
  simulates each distinct pair once regardless of how many thousand
  blocks share it.  A coalesced batch is a :class:`TaskBatch` too, and
  its misses reach the models as one.

Every builder takes an optional contiguous ``rows`` block-row range —
the hook the multi-core partitioner (:mod:`repro.sim.parallel`) uses,
so the serial and per-core streams cannot drift.  The test suite's
per-object task generators (``tests/stepped.py``) describe the same
weighted pattern-pair multiset, asserted task-for-task.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.errors import ShapeError
from repro.formats.bbc import BLOCK, ID_BITS, PATTERNS, BBCMatrix, pack_patterns, pattern_keys
from repro.kernels.vector import SparseVector


@dataclass(frozen=True)
class TaskBatch:
    """An array-of-pattern-pairs segment of a T1 task stream.

    Task ``i`` multiplies A pattern ``a_patterns[a_index[i]]`` (``[16]``
    uint16 tile bitmaps) by B pattern ``b_patterns[b_index[i]]``
    (``[n]`` uint16: tile bitmaps for n = 16, one row bitmap for n = 1)
    and stands for ``weights[i]`` identical T1 tasks.  Each pattern
    array holds distinct rows; ``a_ids`` / ``b_ids`` are their
    :data:`~repro.formats.bbc.PATTERNS` ids, all of table epoch
    ``epoch``, interned here only when the builder passes none.
    """

    a_patterns: np.ndarray
    b_patterns: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray
    weights: np.ndarray
    n: int
    a_ids: Optional[np.ndarray] = None
    b_ids: Optional[np.ndarray] = None
    epoch: int = -1

    def __post_init__(self) -> None:
        if not (self.a_index.size == self.b_index.size == self.weights.size):
            raise ShapeError("task index and weight arrays must be equal-length")
        if self.a_ids is None or self.b_ids is None:
            epoch, (a_ids, b_ids) = PATTERNS.intern(
                pattern_keys(self.a_patterns), pattern_keys(self.b_patterns))
            object.__setattr__(self, "a_ids", a_ids)
            object.__setattr__(self, "b_ids", b_ids)
            object.__setattr__(self, "epoch", epoch)

    def __len__(self) -> int:
        """Number of (possibly weighted) task entries."""
        return int(self.a_index.size)

    @property
    def total_tasks(self) -> int:
        """Total T1 tasks represented (weights included)."""
        return int(self.weights.sum()) if self.weights.size else 0

    def take(self, rows: np.ndarray) -> "TaskBatch":
        """The task entries at ``rows``, in that order (repeats allowed)."""
        return replace(self, a_index=self.a_index[rows],
                       b_index=self.b_index[rows], weights=self.weights[rows])

    def cache_keys(self, namespace: str) -> List[int]:
        """Each entry's memo key, in order: one int naming ``(namespace,
        A key, B key)`` (:class:`~repro.formats.bbc.PatternTable`)."""
        base = PATTERNS.key_base(namespace, self.epoch)
        pairs = self.a_ids[self.a_index] << ID_BITS | self.b_ids[self.b_index]
        return (pairs + base).tolist()


_LIVE = np.arange(BLOCK + 1)[:, None, None]
#: SpMV's B operands: row ``k`` is the x segment whose first ``k`` of
#: 16 rows are live (16: every interior segment; less: the padded tail).
_SEGMENTS = pack_patterns(np.arange(BLOCK)[:, None] < _LIVE)
#: SpMM's B operands: row ``k`` is a dense panel of ``k`` live columns
#: (16: a full panel; less: the tail panel of ``b_cols % 16`` columns).
_PANELS = pack_patterns(np.broadcast_to(np.arange(BLOCK) < _LIVE, (BLOCK + 1, BLOCK, BLOCK)))
_SEGMENT_KEYS, _PANEL_KEYS = pattern_keys(_SEGMENTS), pattern_keys(_PANELS)


def _empty_batch(n: int) -> TaskBatch:
    zero = np.empty(0, dtype=np.int64)
    return TaskBatch(
        a_patterns=np.empty((0, BLOCK), dtype="<u2"),
        b_patterns=np.empty((0, n), dtype="<u2"),
        a_index=zero, b_index=zero, weights=zero, n=n,
    )


def _block_span(a: BBCMatrix, rows: Optional[range]) -> np.ndarray:
    """Stored-block indices of a contiguous block-row range (or all)."""
    if rows is None:
        return np.arange(a.nblocks, dtype=np.int64)
    if rows.step != 1:
        raise ShapeError("block-row ranges must be contiguous (step 1)")
    if len(rows) == 0:
        return np.empty(0, dtype=np.int64)
    if rows.start < 0 or rows.stop > a.block_rows:
        raise ShapeError(
            f"block-row range {rows} outside 0..{a.block_rows}"
        )
    return np.arange(int(a.row_ptr[rows.start]), int(a.row_ptr[rows.stop]),
                     dtype=np.int64)


def spmv_batch(a: BBCMatrix, rows: Optional[range] = None) -> TaskBatch:
    """Batched stream of y = A @ x with dense x.

    The B operand of every task is one of at most two 16x1 segments:
    the all-live one, and the padded tail of the last block column
    (rows of the module table, not computed per matrix or block).
    """
    blocks = _block_span(a, rows)
    patterns, ids, keys = a.block_patterns()
    epoch, (a_ids, segment_ids) = PATTERNS.ids(keys, _SEGMENT_KEYS)
    tail_len = a.shape[1] - (a.block_cols - 1) * BLOCK
    live = [BLOCK] if tail_len == BLOCK else [BLOCK, tail_len]
    b_index = np.zeros(blocks.size, dtype=np.int64)
    if tail_len < BLOCK and blocks.size:
        b_index[a.col_idx[blocks] == a.block_cols - 1] = 1
    return TaskBatch(
        a_patterns=patterns, b_patterns=_SEGMENTS[live],
        a_index=ids[blocks], b_index=b_index,
        weights=np.ones(blocks.size, dtype=np.int64), n=1,
        a_ids=a_ids, b_ids=segment_ids[live], epoch=epoch,
    )


def spmspv_batch(a: BBCMatrix, x: SparseVector,
                 rows: Optional[range] = None) -> TaskBatch:
    """Batched stream of y = A @ x with sparse x; dead segments skipped."""
    if x.n != a.shape[1]:
        raise ShapeError(f"x has length {x.n}, expected {a.shape[1]}")
    blocks = _block_span(a, rows)
    if blocks.size == 0 or x.indices.size == 0:
        return _empty_batch(1)
    of_segment, b_patterns, b_keys = x.segment_patterns()
    b_index = of_segment[a.col_idx[blocks]]
    live = b_index >= 0
    blocks, b_index = blocks[live], b_index[live]
    patterns, ids, keys = a.block_patterns()
    epoch, (a_ids, b_ids) = PATTERNS.ids(keys, b_keys)
    return TaskBatch(
        a_patterns=patterns, b_patterns=b_patterns,
        a_index=ids[blocks], b_index=b_index,
        weights=np.ones(blocks.size, dtype=np.int64), n=1,
        a_ids=a_ids, b_ids=b_ids, epoch=epoch,
    )


def spmm_batch(a: BBCMatrix, b_cols: int = 64,
               rows: Optional[range] = None) -> TaskBatch:
    """Batched stream of C = A @ B with dense B of ``b_cols`` columns.

    Each A block meets one weighted full panel (all ``b_cols // 16`` of
    them) and, if ``b_cols % 16``, the tail panel, block by block.
    """
    if b_cols <= 0:
        raise ShapeError("B must have at least one column")
    blocks = _block_span(a, rows)
    full_panels, tail = divmod(b_cols, BLOCK)
    live = ([BLOCK] if full_panels else []) + ([tail] if tail else [])
    panel_weights = ([full_panels] if full_panels else []) + ([1] if tail else [])
    b_index = np.arange(blocks.size * len(live), dtype=np.int64) % len(live)
    patterns, ids, keys = a.block_patterns()
    epoch, (a_ids, panel_ids) = PATTERNS.ids(keys, _PANEL_KEYS)
    return TaskBatch(
        a_patterns=patterns, b_patterns=_PANELS[live],
        a_index=np.repeat(ids[blocks], len(live)), b_index=b_index,
        weights=np.array(panel_weights, dtype=np.int64)[b_index],
        n=BLOCK, a_ids=a_ids, b_ids=panel_ids[live], epoch=epoch,
    )


def spgemm_batch(a: BBCMatrix, b: Optional[BBCMatrix] = None,
                 rows: Optional[range] = None) -> TaskBatch:
    """Batched stream of C = A @ B, both sparse (row-by-row pairing).

    The (A block, B block) pairing — each stored A block at block
    column K against every stored block of B's block row K — is built
    with repeat/cumsum array ops instead of the triple Python loop.
    """
    other = b if b is not None else a
    if a.shape[1] != other.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {other.shape}")
    blocks = _block_span(a, rows)
    cols = a.col_idx[blocks]
    valid = cols < other.block_rows
    blocks, cols = blocks[valid], cols[valid]
    counts = other.row_ptr[cols + 1] - other.row_ptr[cols]
    a_patterns, a_of, a_keys = a.block_patterns()
    b_patterns, b_of, b_keys = other.block_patterns()
    epoch, (a_ids, b_ids) = PATTERNS.ids(a_keys, b_keys)
    a_index = np.repeat(a_of[blocks], counts)
    if counts.size:
        ends = np.cumsum(counts)
        offsets = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(
            ends - counts, counts
        )
        b_index = b_of[np.repeat(other.row_ptr[cols], counts) + offsets]
    else:
        b_index = np.empty(0, dtype=np.int64)
    return TaskBatch(
        a_patterns=a_patterns, b_patterns=b_patterns,
        a_index=a_index, b_index=b_index,
        weights=np.ones(a_index.size, dtype=np.int64), n=BLOCK,
        a_ids=a_ids, b_ids=b_ids, epoch=epoch,
    )


def kernel_task_batches(kernel: str, a: BBCMatrix,
                        rows: Optional[range] = None,
                        **operands) -> List[TaskBatch]:
    """The task batches of ``kernel`` by name.

    ``kernel`` is one of ``spmv``, ``spmspv`` (needs ``x``), ``spmm``
    (optional ``b_cols``, default 64) or ``spgemm`` (optional ``b``,
    default A itself, i.e. the paper's C = A^2 setting).  ``rows``
    restricts enumeration to a contiguous block-row range.
    """
    name = kernel.lower()
    if name == "spmv":
        return [spmv_batch(a, rows=rows)]
    if name == "spmspv":
        x = operands.get("x")
        if x is None:
            raise ShapeError("spmspv requires a sparse vector operand 'x'")
        return [spmspv_batch(a, x, rows=rows)]
    if name == "spmm":
        return [spmm_batch(a, operands.get("b_cols", 64), rows=rows)]
    if name == "spgemm":
        return [spgemm_batch(a, operands.get("b"), rows=rows)]
    raise ShapeError(f"unknown kernel {kernel!r}")


#: Pair ids per batch entry up to which :func:`coalesce_raw` totals
#: weights in a dense id-indexed array instead of sorting.  On the
#: warm-lru corpus's batches (9-19,247 entries), the dense form took a
#: median 0.72x the sort's time at or below this ratio and 1.5x above.
_DENSE_SPAN = 8


def coalesce_raw(batch: TaskBatch) -> TaskBatch:
    """Collapse identical pattern pairs into weighted unique pairs.

    Pairs are named by ``a_index * len(b_patterns) + b_index`` (patterns
    are distinct, so equal ids are equal content) and each unique pair
    gets one int64 weight sum, so totals are exactly those of the
    un-coalesced stream, past 2^53 too.  Pairs come out in id order,
    whichever form runs: a dense count over the id range when it spans
    at most :data:`_DENSE_SPAN` ids per entry, one sort otherwise.
    """
    if len(batch) == 0:
        return batch
    n_b = len(batch.b_patterns)
    combined = batch.a_index * n_b + batch.b_index
    weights = np.asarray(batch.weights, dtype=np.int64)
    if len(batch.a_patterns) * n_b <= _DENSE_SPAN * len(batch):
        unique = np.flatnonzero(np.bincount(combined))
        totals = np.zeros(unique[-1] + 1, dtype=np.int64)
        np.add.at(totals, combined, weights)
        weights = totals[unique]
    else:
        order = np.argsort(combined)
        combined = combined[order]
        starts = np.flatnonzero(np.concatenate(([True], combined[1:] != combined[:-1])))
        weights = np.add.reduceat(weights[order], starts)
        unique = combined[starts]
    a_index, b_index = np.divmod(unique, n_b) if n_b > 1 else (unique, np.zeros_like(unique))
    return TaskBatch(batch.a_patterns, batch.b_patterns, a_index, b_index, weights,
                     batch.n, batch.a_ids, batch.b_ids, batch.epoch)
