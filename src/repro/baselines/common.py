"""Shared helpers for the baseline STC dataflow models."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.arch.config import Precision
from repro.arch.tasks import T1Task
from repro.errors import ConfigError


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


#: popcount of every 16-bit value.
POP16 = np.unpackbits(
    np.arange(1 << 16, dtype="<u2").view(np.uint8).reshape(-1, 2), axis=1
).sum(axis=1, dtype=np.uint8)


def pair_row_masks(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two B rows each scalar pair of each A row merges, as bitmasks.

    The row-lane models (RM-STC, Trapezoid) walk each A row's nonzeros
    two at a time: pair ``p`` of row ``i`` holds the row's nonzeros of
    rank ``2p`` and ``2p + 1``.  Returns ``(first, second)``, each an
    ``[N, 16, 8]`` uint16 array holding the column bitmask (bit ``j``
    for column ``j``, ``n <= 16``) of the B row the pair's scalar
    selects, 0 where the pair has no such scalar.  Merged-row column
    counts are then bit operations: ``first | second`` is the live
    column set, ``first & second`` the columns with two products.
    """
    count, n = b.shape[0], b.shape[2]
    row_masks = b.astype(np.uint16) @ (np.uint16(1) << np.arange(n, dtype=np.uint16))
    blk, row, k = np.nonzero(a)
    rank = np.cumsum(a, axis=2)[blk, row, k] - 1
    masks = np.zeros((count, 16, 8, 2), dtype=np.uint16)
    masks[blk, row, rank >> 1, rank & 1] = row_masks[blk, k]
    return masks[..., 0], masks[..., 1]
