"""Shared helpers for the baseline STC dataflow models.

The array evaluators read per-pattern row / column masks
(:func:`row_masks`, :func:`col_masks`) and the bit tables here, built
once per process on first use; only the stepped ``simulate_block``
oracles read bool grids (:func:`operand_arrays`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.arch.config import Precision
from repro.arch.tasks import T1Task
from repro.errors import ConfigError
from repro.formats.bbc import pattern_col_masks, pattern_row_masks
from repro.formats.bitarray import popcount16


def operand_arrays(task: T1Task) -> Tuple[np.ndarray, np.ndarray]:
    """The task's A (16x16) and B (16xN) occupancy arrays."""
    return task.a_bitmap(), task.b_bitmap()


def chunks(count: int, size: int) -> Iterator[int]:
    """Yield chunk sizes covering ``count`` items ``size`` at a time."""
    remaining = count
    while remaining > 0:
        yield min(size, remaining)
        remaining -= size


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


def col_masks(patterns: np.ndarray) -> Tuple[np.ndarray]:
    """Decoder: each pattern's ``[n]`` uint16 column masks."""
    return (pattern_col_masks(patterns),)


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
    ``[N, 16, P]`` uint16: the row mask of the B row the pair's scalar
    selects, 0 where the pair has no such scalar.  ``P`` is the most
    pairs any row has (at most 8).  ``first | second`` is then a
    pair's live column set, ``first & second`` its columns with two
    products.
    """
    count = len(a_rows)
    pairs = (int(popcount16()[a_rows].max(initial=0)) + 1) // 2
    # Each scalar's column, 16 past the row's last; B row 16 is empty.
    columns = select_table()[a_rows, :2 * pairs]
    padded = np.pad(b_rows, ((0, 0), (0, 1))).reshape(-1)
    masks = padded[(17 * np.arange(count))[:, None, None] + columns]
    return masks[..., 0::2], masks[..., 1::2]
