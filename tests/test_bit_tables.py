"""Exhaustive checks of the bit tables the array evaluators read.

Every table is built once per process on first use and is read-only;
each is checked here against a direct computation over all 65,536
16-bit values.  The row-lane models' pair masks are checked against
:func:`pair_row_masks`, the bool-stack form they replaced, kept here as
the oracle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest

from repro.arch.fastpath import _dpg_tables
from repro.baselines.common import chunk_masks, scalar_pairs, select_table
from repro.baselines.nv_dtc_sparse import patterns_satisfy_2to4
from repro.formats.bbc import _lane_tables, pack_patterns, pattern_row_masks, unpack_patterns
from repro.formats.bitarray import popcount16

from tests.stepped_models import blocks_satisfy_2to4

MASKS = np.arange(1 << 16)


def _set_columns(mask: int) -> np.ndarray:
    return np.flatnonzero((mask >> np.arange(16)) & 1)


def pair_row_masks(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two B rows each scalar pair of each A row merges, from bool stacks.

    ``a`` is ``[N, 16, 16]``, ``b`` ``[N, 16, n]``.  Pair ``p`` of row
    ``i`` holds the row's nonzeros of rank ``2p`` and ``2p + 1``;
    returns ``(first, second)``, each ``[N, 16, 8]`` uint16 holding the
    column bitmask of the B row the pair's scalar selects, 0 where the
    pair has no such scalar.
    """
    count, n = b.shape[0], b.shape[2]
    row_masks = b.astype(np.uint16) @ (np.uint16(1) << np.arange(n, dtype=np.uint16))
    blk, row, k = np.nonzero(a)
    rank = np.cumsum(a, axis=2)[blk, row, k] - 1
    masks = np.zeros((count, 16, 8, 2), dtype=np.uint16)
    masks[blk, row, rank >> 1, rank & 1] = row_masks[blk, k]
    return masks[..., 0], masks[..., 1]


def test_popcount16_every_value():
    bits = (MASKS[:, None] >> np.arange(16)) & 1
    assert np.array_equal(popcount16(), bits.sum(axis=1))


def test_select_table_every_mask():
    table = select_table()
    assert table.shape == (1 << 16, 16) and table.dtype == np.uint8
    for mask in range(1 << 16):
        columns = _set_columns(mask)
        assert np.array_equal(table[mask, :columns.size], columns)
        assert (table[mask, columns.size:] == 16).all()


@pytest.mark.parametrize("width", [4, 8])
def test_chunk_masks_every_mask(width):
    table = chunk_masks(width)
    assert table.shape == (1 << 16, 16 // width) and table.dtype == np.uint16
    for mask in range(1 << 16):
        columns = _set_columns(mask)
        want = np.zeros(16 // width, dtype=np.int64)
        np.bitwise_or.at(want, np.arange(columns.size) // width, 1 << columns)
        assert np.array_equal(table[mask], want)


def test_lane_tables_every_tile():
    spread, transpose = _lane_tables()
    rows = [(MASKS >> (4 * ei)) & 0xF for ei in range(4)]
    assert np.array_equal(spread, sum(row << (16 * ei) for ei, row in enumerate(rows)))
    tiles = unpack_patterns(np.repeat(MASKS.astype(np.uint16)[:, None], 16, axis=1))
    flipped = unpack_patterns(np.repeat(transpose[:, None], 16, axis=1))
    assert np.array_equal(flipped[:, :4, :4], tiles[:, :4, :4].swapaxes(1, 2))


def test_tables_are_read_only_and_built_once():
    tables = [popcount16(), select_table(), chunk_masks(4), *_lane_tables(), *_dpg_tables()]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    assert select_table() is select_table() and chunk_masks(4) is chunk_masks(4)


def test_packed_2to4_every_tile_value():
    """Every 16-bit value as every tile of a block, and alone in slot
    ``value % 16``, against the bool-grid test."""
    tile = MASKS.astype(np.uint16)
    everywhere = np.repeat(tile[:, None], 16, axis=1)
    alone = np.zeros((tile.size, 16), dtype=np.uint16)
    alone[MASKS, MASKS % 16] = tile
    for patterns in (everywhere, alone):
        want = blocks_satisfy_2to4(unpack_patterns(patterns))
        assert np.array_equal(patterns_satisfy_2to4(patterns), want)
    assert 0 < want.sum() < want.size


@pytest.mark.parametrize("width", [16, 1])
@pytest.mark.parametrize("density", [0.05, 0.3, 0.7, 1.0])
def test_scalar_pairs_match_bool_stack_oracle(width, density):
    rng = np.random.default_rng(int(density * 100) + width)
    a = rng.random((300, 16, 16)) < density
    b = rng.random((300, 16, width)) < density
    a[0], b[1] = False, False                          # an empty A and B
    first, second = scalar_pairs(pattern_row_masks(pack_patterns(a)),
                                 pattern_row_masks(pack_patterns(b)))
    want_first, want_second = pair_row_masks(a, b)
    pairs = first.shape[2]
    assert pairs == (a.sum(axis=2).max() + 1) // 2
    for got, want in ((first, want_first), (second, want_second)):
        assert np.array_equal(got, want[..., :pairs])
        assert not want[..., pairs:].any()
