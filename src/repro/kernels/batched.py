"""T1 task enumeration for the four sparse kernels, as arrays.

Every simulator consumes the *same* stream of T1 tasks (16x16x16 block
multiplies described by occupancy bitmaps), built here with array ops
over the BBC structure — the one enumeration path of the package:

- a :class:`TaskBatch` holds the operand bitmaps once (``a_patterns``
  / ``b_patterns``) plus integer index/weight arrays describing every
  task as an (A pattern, B pattern) pair, in the kernel's dataflow
  order (§V-A: Algorithm 1 for SpMV/SpMSpV, Algorithm 2 for
  SpMM/SpGEMM);
- :func:`coalesce_raw` collapses content-identical pairs into weighted
  unique pairs with pure array ops, so the engine simulates each
  distinct bitmap pair once regardless of how many thousand blocks
  share it.

Every builder takes an optional contiguous ``rows`` block-row range —
the hook the multi-core partitioner (:mod:`repro.sim.parallel`) uses,
so the serial and per-core streams cannot drift.  The per-object
generators the test suite keeps as the stepped oracle describe the
same weighted bitmap-pair multiset, asserted task-for-task.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.arch.tasks import T1Task
from repro.errors import ShapeError
from repro.formats.bbc import BLOCK, BBCMatrix
from repro.kernels.vector import SparseVector


@dataclass(frozen=True)
class TaskBatch:
    """An array-of-bitmap-pairs segment of a T1 task stream.

    Task ``i`` multiplies A pattern ``a_patterns[a_index[i]]`` (16x16
    bool) by B pattern ``b_patterns[b_index[i]]`` (16x``n`` bool) and
    stands for ``weights[i]`` identical T1 tasks.  Patterns are shared:
    ``a_patterns`` is typically the matrix's full
    :meth:`~repro.formats.bbc.BBCMatrix.block_bitmaps_all` array.
    """

    a_patterns: np.ndarray
    b_patterns: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray
    weights: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if not (self.a_index.size == self.b_index.size == self.weights.size):
            raise ShapeError("task index and weight arrays must be equal-length")

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

    def iter_tasks(self) -> Iterator[T1Task]:
        """Materialise the batch as individual weighted tasks, in order."""
        for ai, bi, w in zip(self.a_index, self.b_index, self.weights):
            yield T1Task.from_bitmaps(
                self.a_patterns[int(ai)], self.b_patterns[int(bi)], weight=int(w)
            )


def _empty_batch(n: int) -> TaskBatch:
    zero = np.empty(0, dtype=np.int64)
    return TaskBatch(
        a_patterns=np.empty((0, BLOCK, BLOCK), dtype=bool),
        b_patterns=np.empty((0, BLOCK, n), dtype=bool),
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

    The B operand of every task is one of at most two 16x1 masks: the
    all-live segment, and the padded tail segment of the last block
    column (computed once per *matrix*, not once per block).
    """
    blocks = _block_span(a, rows)
    n = a.shape[1]
    tail_len = n - (a.block_cols - 1) * BLOCK
    patterns = [np.ones((BLOCK, 1), dtype=bool)]
    if tail_len < BLOCK:
        tail = np.zeros((BLOCK, 1), dtype=bool)
        tail[:tail_len, 0] = True
        patterns.append(tail)
    b_index = np.zeros(blocks.size, dtype=np.int64)
    if tail_len < BLOCK and blocks.size:
        b_index[a.col_idx[blocks] == a.block_cols - 1] = 1
    return TaskBatch(
        a_patterns=a.block_bitmaps_all(),
        b_patterns=np.stack(patterns),
        a_index=blocks,
        b_index=b_index,
        weights=np.ones(blocks.size, dtype=np.int64),
        n=1,
    )


def spmspv_batch(a: BBCMatrix, x: SparseVector,
                 rows: Optional[range] = None) -> TaskBatch:
    """Batched stream of y = A @ x with sparse x; dead segments skipped."""
    if x.n != a.shape[1]:
        raise ShapeError(f"x has length {x.n}, expected {a.shape[1]}")
    blocks = _block_span(a, rows)
    segments = x.nonempty_segments(BLOCK)
    if blocks.size == 0 or segments.size == 0:
        return _empty_batch(1)
    b_patterns = np.zeros((segments.size, BLOCK, 1), dtype=bool)
    seg_pos = np.searchsorted(segments, x.indices // BLOCK)
    b_patterns[seg_pos, x.indices % BLOCK, 0] = True
    cols = a.col_idx[blocks]
    pos = np.searchsorted(segments, cols)
    live = (pos < segments.size) & (segments[np.minimum(pos, segments.size - 1)] == cols)
    blocks, pos = blocks[live], pos[live]
    return TaskBatch(
        a_patterns=a.block_bitmaps_all(),
        b_patterns=b_patterns,
        a_index=blocks,
        b_index=pos,
        weights=np.ones(blocks.size, dtype=np.int64),
        n=1,
    )


def spmm_batch(a: BBCMatrix, b_cols: int = 64,
               rows: Optional[range] = None) -> TaskBatch:
    """Batched stream of C = A @ B with dense B of ``b_cols`` columns."""
    if b_cols <= 0:
        raise ShapeError("B must have at least one column")
    blocks = _block_span(a, rows)
    full_panels, tail = divmod(b_cols, BLOCK)
    patterns: List[np.ndarray] = []
    a_parts: List[np.ndarray] = []
    b_parts: List[np.ndarray] = []
    w_parts: List[np.ndarray] = []
    if full_panels:
        patterns.append(np.ones((BLOCK, BLOCK), dtype=bool))
        a_parts.append(blocks)
        b_parts.append(np.zeros(blocks.size, dtype=np.int64))
        w_parts.append(np.full(blocks.size, full_panels, dtype=np.int64))
    if tail:
        tail_mask = np.zeros((BLOCK, BLOCK), dtype=bool)
        tail_mask[:, :tail] = True
        pattern_id = len(patterns)
        patterns.append(tail_mask)
        a_parts.append(blocks)
        b_parts.append(np.full(blocks.size, pattern_id, dtype=np.int64))
        w_parts.append(np.ones(blocks.size, dtype=np.int64))
    return TaskBatch(
        a_patterns=a.block_bitmaps_all(),
        b_patterns=np.stack(patterns),
        a_index=np.concatenate(a_parts) if a_parts else np.empty(0, dtype=np.int64),
        b_index=np.concatenate(b_parts) if b_parts else np.empty(0, dtype=np.int64),
        weights=np.concatenate(w_parts) if w_parts else np.empty(0, dtype=np.int64),
        n=BLOCK,
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
    a_index = np.repeat(blocks, counts)
    if counts.size:
        ends = np.cumsum(counts)
        offsets = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(
            ends - counts, counts
        )
        b_index = np.repeat(other.row_ptr[cols], counts) + offsets
    else:
        b_index = np.empty(0, dtype=np.int64)
    return TaskBatch(
        a_patterns=a.block_bitmaps_all(),
        b_patterns=other.block_bitmaps_all(),
        a_index=a_index,
        b_index=b_index,
        weights=np.ones(a_index.size, dtype=np.int64),
        n=BLOCK,
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


def _content_ids(patterns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Content-dedup pattern rows: (representative indices, id per row)."""
    flat = np.ascontiguousarray(
        patterns.reshape(patterns.shape[0], -1).astype(np.uint8, copy=False)
    )
    if flat.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    as_void = flat.view(np.dtype((np.void, flat.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(as_void, return_index=True, return_inverse=True)
    return first.astype(np.int64), inverse.astype(np.int64).reshape(-1)


@dataclass(frozen=True)
class CoalescedBatch:
    """A batch collapsed to weighted unique bitmap pairs, as raw bytes.

    ``a_bytes``/``b_bytes`` hold one ``bool``-layout byte string per
    distinct pattern (exactly what :meth:`T1Task.cache_key` exposes),
    ``pairs`` the ``(a_bytes index, b_bytes index, weight)`` triples.
    The engine consumes this directly — memo keys need only the byte
    strings, so :class:`T1Task` objects are built lazily for cache
    misses alone.
    """

    a_bytes: List[bytes]
    b_bytes: List[bytes]
    pairs: List[Tuple[int, int, int]]
    n: int


def coalesce_raw(batch: TaskBatch) -> CoalescedBatch:
    """Collapse content-identical bitmap pairs with pure array ops.

    Pattern bytes are rendered once per *distinct pattern*; the pair
    list only indexes them.  Weight totals are exactly those of the
    un-coalesced stream; ordering follows the sorted unique keys,
    which no aggregate depends on.
    """
    if len(batch) == 0:
        return CoalescedBatch([], [], [], batch.n)
    a_first, a_cid = _content_ids(batch.a_patterns)
    b_first, b_cid = _content_ids(batch.b_patterns)
    n_b = int(b_first.size)
    combined = a_cid[batch.a_index] * n_b + b_cid[batch.b_index]
    unique_keys, inverse = np.unique(combined, return_inverse=True)
    # Aggregate weights in the integer domain: bincount's float64
    # accumulator would round totals past 2^53 (and astype truncates).
    agg = np.zeros(unique_keys.size, dtype=np.int64)
    np.add.at(agg, inverse, np.asarray(batch.weights, dtype=np.int64))
    a_bool = np.ascontiguousarray(batch.a_patterns.astype(bool, copy=False))
    b_bool = np.ascontiguousarray(batch.b_patterns.astype(bool, copy=False))
    a_bytes = [a_bool[int(i)].tobytes() for i in a_first]
    b_bytes = [b_bool[int(i)].tobytes() for i in b_first]
    pair_a = (unique_keys // n_b).tolist()
    pair_b = (unique_keys % n_b).tolist()
    pairs = list(zip(pair_a, pair_b, agg.tolist()))
    return CoalescedBatch(a_bytes, b_bytes, pairs, batch.n)

