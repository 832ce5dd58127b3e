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
   :func:`histogram_rows`, or summing :func:`cycle_words`) and action
   counts;
3. :func:`result_rows` lays those out as int64 rows in the
   :data:`~repro.arch.base.VECTOR_WIDTH` layout.

Per-tile line counts have one form, the packed count words of
:func:`count_tables` (:func:`b_count_words` for a B operand): byte 3 of
an A word times a B word is a tile pair's products.  Uni-STC, NV-DTC,
DS-STC, GAMMA and ``repro trace`` read them.
"""

from __future__ import annotations

from functools import lru_cache
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


_NIBBLES = TILE * np.arange(TILE, dtype=np.uint16)
#: Bit offsets of the four byte lanes of a packed count word.
_BYTES = 8 * np.arange(TILE, dtype=np.int64)
_QUARTERS = np.array([0.25, 0.5, 0.75])


@lru_cache(maxsize=None)
def count_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Packed per-line counts of every 4x4 tile bitmap (512 KiB), built on first use.

    ``cols[t]`` (uint32) holds the nonzero count of column ``kk`` of
    tile ``t`` in byte ``kk``, ``rows[t]`` that of row ``kk`` in byte
    ``3 - kk``.  Byte 3 of ``cols[a] * rows[b]`` is then the product
    count ``sum_kk |A col kk| * |B row kk|`` of the T3 task multiplying
    A tile ``a`` by B tile ``b``: each byte of the product sums at most
    four terms of at most 16, so no byte carries into the next.
    """
    tiles = np.arange(1 << 16, dtype=np.int64)
    tables = ((tile_col_counts(tiles) << _BYTES).sum(axis=1).astype("<u4"),
              (tile_row_counts(tiles) << _BYTES[::-1]).sum(axis=1).astype("<u4"))
    for table in tables:
        table.setflags(write=False)
    return tables


#: Row-count word of a vector segment's nibble: row ``kk`` in byte ``3 - kk``.
_SEGMENT_WORDS = (((np.arange(16)[:, None] >> np.arange(TILE)) & 1)
                  << _BYTES[::-1]).sum(axis=1).astype("<u4")


def b_count_words(b_patterns: np.ndarray) -> np.ndarray:
    """``[U, k, j]`` uint32 row-count words (:func:`count_tables`) of B's
    tiles; a vector segment's nibble ``k`` is the 4x1 tile ``(k, 0)``."""
    if b_patterns.shape[1] == 1:
        return _SEGMENT_WORDS[(b_patterns >> _NIBBLES) & 0xF][:, :, None]
    if b_patterns.shape[1] != 16:
        raise SimulationError(f"unsupported B operand shape {b_patterns.shape[1:]}")
    return count_tables()[1][b_patterns].reshape(-1, TILE, TILE)


def util_bins(eff: np.ndarray, macs: int) -> np.ndarray:
    """Fig. 5 utilisation bin of integer per-cycle product counts.

    The :class:`~repro.arch.tasks.UtilHistogram` bin of ``eff / macs`` in
    integer arithmetic: ``clip(ceil(4 * eff / macs) - 1, 0, 3)``, the
    number of the quarter marks ``k * macs / 4`` (k = 1, 2, 3) that
    ``eff`` exceeds.  The two agree because the MAC budgets (64/128/256)
    are powers of two, so the float quotient ``eff / macs`` is exact too.
    """
    return np.searchsorted(_QUARTERS * macs, eff)


def histogram_rows(bins: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``[N, 4]`` histograms of ``[N, ...]`` per-cycle bins.

    ``weight`` (same shape as ``bins``) counts how many cycles each
    entry stands for; entries with weight 0 are not cycles at all.
    """
    count = bins.shape[0]
    index = (np.arange(count)[:, None] * 4 + bins.reshape(count, -1)).ravel()
    hist = np.bincount(index, weights=weight.reshape(-1), minlength=4 * count)
    return hist.astype(np.int64).reshape(count, 4)


#: Bit offsets of a cycle word's fields (:func:`cycle_words`): one count
#: in its utilisation bin's 12-bit field, its products from bit 48.
_BIN_FIELDS = np.arange(0, 48, 12, dtype=np.uint64)
_PRODUCTS = np.uint64(48)


@lru_cache(maxsize=None)
def cycle_words(macs: int, most: int) -> np.ndarray:
    """``[most + 2]`` uint64, read-only: one word per cycle code.

    Code 0 is no cycle; code ``1 + eff`` is one cycle of ``eff``
    products, counted in its :func:`util_bins` bin's field, with
    ``eff`` in the products field.  Summed over a block's cycles (at
    most 4095, with at most 65535 products) no field carries, so
    :func:`cycle_totals` reads the block's histogram and products off
    the sum.
    """
    eff = np.arange(most + 1)
    words = np.zeros(most + 2, dtype=np.uint64)
    words[1:] = ((np.uint64(1) << _BIN_FIELDS[util_bins(eff, macs)])
                 | eff.astype(np.uint64) << _PRODUCTS)
    words.setflags(write=False)
    return words


def cycle_totals(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(cycles, steps, products, hist)`` of blocks' summed :func:`cycle_words`.

    ``steps`` counts the cycles the words name; a block with none
    retires in one cycle of metadata processing, in bin 0.
    """
    hist = ((words[:, None] >> _BIN_FIELDS) & np.uint64(0xFFF)).view(np.int64)
    steps = hist.sum(axis=1)
    hist[:, 0] += steps == 0
    return np.maximum(steps, 1), steps, (words >> _PRODUCTS).view(np.int64), hist


def result_rows(
    cycles: np.ndarray,
    products: np.ndarray,
    hist: np.ndarray,
    counters: Dict[str, Union[np.ndarray, int]],
) -> np.ndarray:
    """``[N, VECTOR_WIDTH]`` int64 rows of a batch's per-block arrays.

    ``hist`` is ``[N, 4]``; ``counters`` maps action names to per-block
    counts (or one count for every block).  Actions left out are zero.
    The rows are a transposed view of one column-major buffer, so each
    field is one contiguous write.
    """
    fields = np.zeros((VECTOR_WIDTH, len(cycles)), dtype=np.int64)
    fields[0] = cycles
    fields[1] = products
    fields[2:6] = hist.T
    for name, count in counters.items():
        fields[ACTION_COL[name]] = count
    return fields.T
