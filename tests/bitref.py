"""Scalar bitmap helpers that only the tests use, as oracles and fixtures.

They follow :mod:`repro.formats.bitarray`'s convention: a ``w x h``
boolean grid packs row-major, bit ``i * w + j`` for position ``(i, j)``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.formats.bitarray import _BYTE_POPCOUNT, col_mask, row_mask


def popcount(value: int) -> int:
    """Return the number of set bits in a non-negative Python integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return bin(value).count("1")


def pack_bits(grid: np.ndarray) -> int:
    """Pack a 2-D boolean grid into an integer bitmap (row-major, LSB first)."""
    flat = np.asarray(grid, dtype=bool).ravel()
    out = 0
    for pos in np.flatnonzero(flat):
        out |= 1 << int(pos)
    return out


def unpack_bits(bitmap: int, rows: int, cols: int) -> np.ndarray:
    """Unpack an integer bitmap into a ``rows x cols`` boolean grid."""
    if bitmap >> (rows * cols):
        raise ValueError("bitmap has more bits than the grid can hold")
    grid = np.zeros(rows * cols, dtype=bool)
    value = bitmap
    pos = 0
    while value:
        if value & 1:
            grid[pos] = True
        value >>= 1
        pos += 1
    return grid.reshape(rows, cols)


def bitmap_from_rows(rows: Sequence[int], width: int = 4) -> int:
    """Assemble a bitmap from per-row masks (row 0 in the low bits)."""
    out = 0
    for i, mask in enumerate(rows):
        if mask >> width:
            raise ValueError(f"row mask {mask:#x} wider than {width} bits")
        out |= mask << (i * width)
    return out


def outer_product_bitmap(col_bits: int, row_bits: int, height: int = 4, width: int = 4) -> int:
    """Bitmap of the outer product of a column mask with a row mask.

    Bit ``(i, j)`` of the result is set iff bit ``i`` of ``col_bits`` and
    bit ``j`` of ``row_bits`` are both set.  This is the TMS/DPG primitive:
    one layer of intermediate-product positions for ``A[:, k] x B[k, :]``.
    """
    out = 0
    for i in range(height):
        if col_bits & (1 << i):
            out |= row_bits << (i * width)
    return out


def nnz_rows(bitmap: int, rows: int = 4, cols: int = 4) -> int:
    """Count rows of the bitmap containing at least one set bit."""
    count = 0
    for i in range(rows):
        if row_mask(bitmap, i, cols):
            count += 1
    return count


def nnz_cols(bitmap: int, rows: int = 4, cols: int = 4) -> int:
    """Count columns of the bitmap containing at least one set bit."""
    count = 0
    for j in range(cols):
        if col_mask(bitmap, j, cols, rows):
            count += 1
    return count


def grid_to_tiles(grid: np.ndarray, tile: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split a 2-D boolean grid into ``tile x tile`` tiles.

    Returns ``(tile_occupancy, tiles)`` where ``tile_occupancy`` is a
    boolean array of shape ``(R/tile, C/tile)`` marking tiles holding at
    least one set bit, and ``tiles`` is the reshaped view of shape
    ``(R/tile, C/tile, tile, tile)``.
    """
    grid = np.asarray(grid, dtype=bool)
    rows, cols = grid.shape
    if rows % tile or cols % tile:
        raise ValueError(f"grid shape {grid.shape} not divisible by tile {tile}")
    tiles = grid.reshape(rows // tile, tile, cols // tile, tile).swapaxes(1, 2)
    occupancy = tiles.any(axis=(2, 3))
    return occupancy, tiles


def popcount_array(values: np.ndarray) -> np.ndarray:
    """Vectorised popcount over an unsigned integer numpy array."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "ui":
        raise TypeError(f"popcount_array needs an integer array, got {arr.dtype}")
    counts = np.zeros(arr.shape, dtype=np.int64)
    work = arr.astype(np.uint64)
    for _ in range(arr.dtype.itemsize):
        counts += _BYTE_POPCOUNT[(work & np.uint64(0xFF)).astype(np.uint8)]
        work >>= np.uint64(8)
    return counts
