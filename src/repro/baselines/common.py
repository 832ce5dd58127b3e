"""Shared helpers for the baseline STC dataflow models.

The array evaluators read per-pattern row masks (:func:`row_masks`)
or line counts (:func:`layer_cells`, :func:`row_counts`) and the bit
tables here, built once per process on first use.  A model whose row
is a sum over K layers (DS-STC, GAMMA) looks each layer up by its
``(|A col k|, |B row k|)`` cell (:func:`layer_table`, :func:`sum_layers`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.arch.base import ACTION_COL, VECTOR_WIDTH, STCModel
from repro.arch.batch import count_tables, result_rows
from repro.arch.config import FP64, Precision
from repro.errors import ConfigError
from repro.formats.bbc import pattern_row_masks
from repro.formats.bitarray import popcount16


class BaselineSTC(STCModel):
    """A baseline at one precision: its MAC budget, and its memo
    namespace ``key:precision``."""

    key = ""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"{self.key}:{self.precision.name}"


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division."""
    return -(-a // b)


def t3_shape(model: str, shapes: Dict[int, int], precision: Precision) -> int:
    """The Table VI T3 shape parameter ``model`` uses at ``precision``.

    ``shapes`` maps each MAC budget the model defines to the one T3
    extent that scales with it.

    Table VI defines the baselines' shapes for the FP64 (64-MAC) and
    FP32 (128-MAC) budgets only; any other budget raises
    :class:`ConfigError` at construction instead of silently running
    one of those shapes on a wider array.
    """
    if precision.macs not in shapes:
        raise ConfigError(
            f"{model} has no Table VI T3 shape for {precision.name} "
            f"({precision.macs} MACs); defined for "
            f"{sorted(shapes)} MACs"
        )
    return shapes[precision.macs]


def row_masks(patterns: np.ndarray) -> Tuple[np.ndarray]:
    """Decoder: each pattern's ``[16]`` uint16 row masks."""
    return (pattern_row_masks(patterns),)


#: A K layer's cell is ``17 |A col k| + |B row k|``, both counts 0..16.
CELLS = 17 * 17
_ROWS = np.arange(16, dtype=np.uint16)


def layer_cells(a_patterns: np.ndarray) -> Tuple[np.ndarray]:
    """Decoder: ``17 |A col k|`` of each A block's 16 columns, ``[U, 16]``:
    its tiles' column-count words (:func:`~repro.arch.batch.count_tables`)
    summed over tile rows, a byte per column (no byte carries)."""
    words = count_tables()[0][a_patterns].reshape(-1, 4, 4).sum(axis=1, dtype=np.uint32)
    return (np.multiply(words.view(np.uint8), 17, dtype=np.int64),)


def row_counts(b_patterns: np.ndarray) -> Tuple[np.ndarray]:
    """Decoder: ``|B row k|`` of each B pattern's 16 rows, ``[U, 16]``; a
    vector segment's row ``k`` is its bit ``k``."""
    if b_patterns.shape[1] == 1:
        return ((b_patterns >> _ROWS).astype(np.int64) & 1,)
    # Byte 3 - kk of a tile's row-count word counts its row kk.
    words = count_tables()[1][b_patterns].reshape(-1, 4, 4).sum(axis=2, dtype=np.uint32)
    return (words.byteswap().view(np.uint8).astype(np.int64),)


def layer_table(steps, products, hist, counters: Dict[str, np.ndarray], macs: int) -> np.ndarray:
    """``[CELLS + 1, VECTOR_WIDTH]`` int64, read-only: one K layer's row per cell.

    The arguments are :func:`~repro.arch.batch.result_rows`' for one
    single-layer block per cell, with the layer's ``steps`` as its
    cycles.  Row ``CELLS`` is what a block with no step at all adds:
    one cycle of metadata processing, in utilisation bin 0.
    """
    table = np.zeros((CELLS + 1, VECTOR_WIDTH), dtype=np.int64)
    table[:CELLS] = result_rows(steps, products, hist, {
        **counters, "lane_cycles": macs * steps, "sched_cycles": steps})
    table[CELLS, [0, 2, ACTION_COL["sched_cycles"], ACTION_COL["lane_cycles"]]] = 1, 1, 1, macs
    table.setflags(write=False)
    return table


def sum_layers(a_cells: np.ndarray, b_counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rows of blocks whose row is the sum of their 16 K layers' rows in
    ``table`` (:func:`layer_table`), plus its idle row if that is zero."""
    rows = np.einsum("nkw->nw", np.take(table, a_cells + b_counts, axis=0))
    rows += (rows[:, :1] == 0) * table[CELLS]
    return rows


@lru_cache(maxsize=None)
def select_table() -> np.ndarray:
    """``[65536, 16]`` uint8, read-only (1 MiB): entry ``[mask, r]`` is
    the column of the ``r``-th set bit of ``mask``, 16 past its last."""
    masks = np.arange(1 << 16)
    table = np.empty((1 << 16, 16), dtype=np.uint8)
    for rank in range(16):
        low = masks & -masks                # the rank-th bit, 0 past the last
        table[:, rank] = popcount16()[(low - 1) & 0xFFFF]   # bits below it
        masks ^= low
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def chunk_masks(width: int) -> np.ndarray:
    """``[65536, 16 // width]`` uint16, read-only: chunk ``c`` of a mask
    holds its set bits of rank ``width * c`` to ``width * (c + 1) - 1``."""
    table = np.zeros((1 << 16, 16 // width), dtype=np.uint16)
    for rank, column in enumerate(select_table().T):
        table[:, rank // width] |= ((1 << column.astype(np.int32)) & 0xFFFF).astype(np.uint16)
    table.setflags(write=False)
    return table


def scalar_pairs(a_rows: np.ndarray, b_rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two B rows each scalar pair of each A row merges, as bitmasks.

    The row-lane models (RM-STC, Trapezoid) walk each A row's nonzeros
    two at a time: pair ``p`` of row ``i`` holds the row's nonzeros of
    rank ``2p`` and ``2p + 1``, found in :func:`select_table`.  Given
    ``[N, 16]`` A and B row masks, returns ``(first, second)``, each
    ``[P, N, 16]`` uint16 (pair-major, so a sum over pairs adds whole
    slabs): the row mask of the B row the pair's scalar selects, 0
    where the pair has no such scalar.  ``P`` is the most pairs any row
    has (at most 8).  ``first | second`` is then a pair's live column
    set, ``first & second`` its columns with two products.
    """
    count = len(a_rows)
    pairs = (int(popcount16()[a_rows].max(initial=0)) + 1) // 2
    # Each scalar's column, 16 past the row's last; B row 16 is empty.
    columns = select_table()[a_rows, :2 * pairs].transpose(2, 0, 1)
    padded = np.zeros((count, 17), dtype=b_rows.dtype)
    padded[:, :16] = b_rows
    masks = padded.reshape(-1)[columns + (17 * np.arange(count))[:, None]]
    return masks[0::2], masks[1::2]
