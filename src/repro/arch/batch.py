"""Shared plumbing of the batched block evaluators.

Every registered model evaluates a batch of T1 tasks the same way
around its own dataflow accounting:

1. :func:`evaluate_packed` decodes each distinct packed pattern of a
   :class:`~repro.kernels.batched.TaskBatch` once per call, with the
   model's A and B decoders (lookups over BBC's tile bitmaps, see
   :func:`~repro.formats.bbc.pattern_row_masks`), gathers the decoded
   arrays to the pairs of each chunk of at most :data:`CHUNK_BLOCKS`
   blocks, and writes each chunk's rows into one ``[N, VECTOR_WIDTH]``
   int64 array in task order;
2. the evaluator computes per-block cycles, products, utilisation
   histograms (binning per-cycle products with :func:`util_bins` /
   :func:`histogram_rows`) and action counts;
3. :func:`result_rows` lays those out as int64 rows in the
   :data:`~repro.arch.base.VECTOR_WIDTH` layout.

The tile decoders here are the one operand decoder of ``src/``:
Uni-STC, NV-DTC and ``repro trace`` read their A and B tiles through
:func:`decode_a_operands` / :func:`decode_b_operands`.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

import numpy as np

from repro.arch.base import ACTION_COL, VECTOR_WIDTH
from repro.errors import SimulationError
from repro.formats.bbc import TILE, tile_col_counts, tile_row_counts

#: Most blocks one array pass evaluates.  Every evaluator's
#: intermediates run to a few KiB per block, so a pass stays at a few
#: tens of MiB however large the batch (SpGEMM batches on n=512
#: matrices reach 32k blocks); most corpus batches are far smaller, so
#: this bounds memory rather than adding passes.
CHUNK_BLOCKS = 2048

#: ``decode(patterns)`` -> arrays with one leading entry per pattern.
Decoder = Callable[[np.ndarray], Tuple[np.ndarray, ...]]
#: ``evaluate(*a, *b)`` -> one int64 row per block of the chunk.
Evaluator = Callable[..., np.ndarray]


def evaluate_packed(batch, decode_a: Decoder, decode_b: Decoder,
                    evaluate: Evaluator) -> np.ndarray:
    """Run ``evaluate`` over the pattern pairs of ``batch``, chunk by chunk.

    ``decode_a`` / ``decode_b`` run once per call, on the batch's
    ``[U, 16]`` A and ``[U, n]`` B pattern tables; ``evaluate`` gets
    their arrays gathered to the chunk's pairs, A's first.  Row ``i``
    of the result is its row for entry ``i`` (weights unread).
    """
    a_tables, b_tables = decode_a(batch.a_patterns), decode_b(batch.b_patterns)
    rows = np.empty((len(batch), VECTOR_WIDTH), dtype=np.int64)
    for lo in range(0, len(batch), CHUNK_BLOCKS):
        part = slice(lo, lo + CHUNK_BLOCKS)
        a_index, b_index = batch.a_index[part], batch.b_index[part]
        rows[part] = evaluate(*(table[a_index] for table in a_tables),
                              *(table[b_index] for table in b_tables))
    return rows


_NIBBLES = TILE * np.arange(TILE, dtype=np.int64)


def decode_a_operands(a_patterns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A-block level-2 view of ``[N, 16]`` packed patterns.

    Returns ``(tile_bitmaps, col_counts)`` with leading batch axes:
    ``tile_bitmaps[p, i, k]`` is the 16-bit bitmap of tile (i, k) and
    ``col_counts[p, i, k, kk]`` the nonzero count of its column ``kk``.
    """
    tiles = a_patterns.astype(np.int64).reshape(-1, TILE, TILE)
    return tiles, tile_col_counts(tiles)


def decode_b_operands(b_patterns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """B-operand level-2 view of ``[N, n]`` packed patterns.

    Returns ``(tile_bitmaps, row_counts)``, ``[p, tk, tj]`` and ``[p,
    tk, tj, ei]`` (the nonzero count of row ``ei`` of tile (tk, tj)); a
    vector segment's nibble ``tk`` is the 4x1 tile ``(tk, 0)``, so
    ``tj`` runs over the operand's ``n // 4`` (16 wide) or one (a
    segment) tile columns.
    """
    if b_patterns.shape[1:] == (16,):
        tiles = b_patterns.astype(np.int64).reshape(-1, TILE, TILE)
        return tiles, tile_row_counts(tiles)
    if b_patterns.shape[1:] == (1,):
        tiles = (b_patterns.astype(np.int64) >> _NIBBLES) & 0xF     # [p, tk]
        return tiles[:, :, None], ((tiles[:, :, None, None] >> np.arange(TILE)) & 1)
    raise SimulationError(
        f"unsupported B operand shape {b_patterns.shape[1:]}"
    )


def util_bins(eff: np.ndarray, macs: int) -> np.ndarray:
    """Fig. 5 utilisation bin of integer per-cycle product counts.

    :meth:`~repro.arch.tasks.UtilHistogram.record` of ``eff / macs`` in
    integer arithmetic: ``clip(ceil(4 * eff / macs) - 1, 0, 3)``, which
    is ``min(max(4 * eff - 1, 0) // macs, 3)`` for ``eff >= 0``.  The
    two agree because the MAC budgets (64/128/256) are powers of two, so
    the float quotient ``eff / macs`` is exact too.
    """
    return np.minimum(np.maximum(4 * eff - 1, 0) // macs, 3)


def histogram_rows(bins: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``[N, 4]`` histograms of ``[N, ...]`` per-cycle bins.

    ``weight`` (same shape as ``bins``) counts how many cycles each
    entry stands for; entries with weight 0 are not cycles at all.
    """
    count = bins.shape[0]
    index = (np.arange(count)[:, None] * 4 + bins.reshape(count, -1)).ravel()
    hist = np.bincount(index, weights=weight.reshape(-1), minlength=4 * count)
    return hist.astype(np.int64).reshape(count, 4)


def result_rows(
    cycles: np.ndarray,
    products: np.ndarray,
    hist: np.ndarray,
    counters: Dict[str, Union[np.ndarray, int]],
) -> np.ndarray:
    """``[N, VECTOR_WIDTH]`` int64 rows of a batch's per-block arrays.

    ``hist`` is ``[N, 4]``; ``counters`` maps action names to per-block
    counts (or one count for every block).  Actions left out are zero.
    """
    rows = np.zeros((len(cycles), VECTOR_WIDTH), dtype=np.int64)
    rows[:, 0] = cycles
    rows[:, 1] = products
    rows[:, 2:6] = hist
    for name, count in counters.items():
        rows[:, ACTION_COL[name]] = count
    return rows
