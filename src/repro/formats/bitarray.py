"""Packed bitmap utilities shared by the BBC format and the STC models.

Bitmaps in this package follow one convention everywhere: a ``w x h``
boolean grid is packed row-major with the bit for position ``(i, j)``
stored at bit index ``i * w + j`` (LSB = bit index 0).  The paper's
level-1 and level-2 bitmaps are both 16-bit values over a 4x4 grid,
so a ``uint16`` holds one bitmap exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

#: Number of 1-bits for every byte value.
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@lru_cache(maxsize=None)
def popcount16() -> np.ndarray:
    """Read-only uint8 popcount of every 16-bit value (64 KiB), built on first use."""
    table = (_BYTE_POPCOUNT[np.arange(1 << 16) & 0xFF]
             + _BYTE_POPCOUNT[np.arange(1 << 16) >> 8])
    table.setflags(write=False)
    return table


#: Hardware popcount (numpy 2.0 and later), or None.
_BITWISE_COUNT = getattr(np, "bitwise_count", None)


def popcount(values: np.ndarray) -> np.ndarray:
    """uint8 set-bit count of each value below 2^32.

    ``np.bitwise_count`` (numpy 2.0 and later) counts in hardware, about
    three times faster than a gather from :func:`popcount16`'s table on
    a 24,000-entry array; older numpy gathers each 16-bit half.
    """
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(values)
    if values.dtype.itemsize <= 2:
        return popcount16()[values]
    return popcount16()[values & 0xFFFF] + popcount16()[values >> 16 & 0xFFFF]


def bit_positions(bitmap: int) -> List[int]:
    """Return the sorted list of set-bit indices of ``bitmap``."""
    positions = []
    value = bitmap
    pos = 0
    while value:
        if value & 1:
            positions.append(pos)
        value >>= 1
        pos += 1
    return positions


def row_mask(bitmap: int, row: int, width: int = 4) -> int:
    """Extract row ``row`` of a ``width``-wide bitmap as a ``width``-bit value."""
    return (bitmap >> (row * width)) & ((1 << width) - 1)


def col_mask(bitmap: int, col: int, width: int = 4, height: int = 4) -> int:
    """Extract column ``col`` of a bitmap as a ``height``-bit value."""
    out = 0
    for i in range(height):
        if bitmap & (1 << (i * width + col)):
            out |= 1 << i
    return out


def transpose_bitmap(bitmap: int, rows: int = 4, cols: int = 4) -> int:
    """Transpose a packed ``rows x cols`` bitmap into a ``cols x rows`` one."""
    out = 0
    for i in range(rows):
        for j in range(cols):
            if bitmap & (1 << (i * cols + j)):
                out |= 1 << (j * rows + i)
    return out


def dot_pattern(row_bits: int, col_bits: int) -> int:
    """Index-matching mask for a sparse dot product (A-row AND B-column)."""
    return row_bits & col_bits
