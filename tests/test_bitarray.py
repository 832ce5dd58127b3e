"""Tests for the packed bitmap utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.formats import bitarray as ba

from tests import bitref as ref


class TestPopcount:
    def test_zero(self):
        assert ref.popcount(0) == 0

    def test_all_ones_16bit(self):
        assert ref.popcount(0xFFFF) == 16

    def test_single_bits(self):
        for i in range(20):
            assert ref.popcount(1 << i) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ref.popcount(-1)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_bin_count(self, value):
        assert ref.popcount(value) == bin(value).count("1")


class TestPopcountArray:
    def test_uint16_array(self):
        arr = np.array([0, 1, 3, 0xFFFF, 0x8000], dtype=np.uint16)
        assert ref.popcount_array(arr).tolist() == [0, 1, 2, 16, 1]

    def test_uint64_array(self):
        arr = np.array([2**63, 2**64 - 1], dtype=np.uint64)
        assert ref.popcount_array(arr).tolist() == [1, 64]

    def test_preserves_shape(self):
        arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert ref.popcount_array(arr).shape == (3, 4)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            ref.popcount_array(np.ones(3))

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=32))
    def test_matches_scalar_popcount(self, values):
        arr = np.asarray(values, dtype=np.uint16)
        expected = [bin(v).count("1") for v in values]
        assert ref.popcount_array(arr).tolist() == expected


class TestPackUnpack:
    def test_roundtrip_4x4(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[0, 0] = grid[1, 2] = grid[3, 3] = True
        packed = ref.pack_bits(grid)
        assert np.array_equal(ref.unpack_bits(packed, 4, 4), grid)

    def test_pack_row_major_lsb_first(self):
        grid = np.zeros((2, 3), dtype=bool)
        grid[0, 1] = True   # position 1
        grid[1, 0] = True   # position 3
        assert ref.pack_bits(grid) == (1 << 1) | (1 << 3)

    def test_unpack_overflow_rejected(self):
        with pytest.raises(ValueError):
            ref.unpack_bits(1 << 16, 4, 4)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_roundtrip_any_16bit(self, bitmap):
        assert ref.pack_bits(ref.unpack_bits(bitmap, 4, 4)) == bitmap

    def test_fig1_example(self):
        """The Fig. 1 bitmap: mask 1010 0100 0000 1101 read row-major."""
        grid = np.array(
            [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 1]], dtype=bool
        )
        packed = ref.pack_bits(grid)
        assert ref.popcount(packed) == 6
        assert np.array_equal(ref.unpack_bits(packed, 4, 4), grid)


class TestBitPositions:
    def test_empty(self):
        assert ba.bit_positions(0) == []

    def test_sorted(self):
        assert ba.bit_positions(0b101001) == [0, 3, 5]


class TestRowColMasks:
    def test_row_mask(self):
        bitmap = ref.pack_bits(np.eye(4, dtype=bool))
        for i in range(4):
            assert ba.row_mask(bitmap, i) == 1 << i

    def test_col_mask(self):
        bitmap = ref.pack_bits(np.eye(4, dtype=bool))
        for j in range(4):
            assert ba.col_mask(bitmap, j) == 1 << j

    def test_bitmap_from_rows_roundtrip(self):
        rows = [0b1010, 0b0001, 0b1111, 0b0000]
        bitmap = ref.bitmap_from_rows(rows)
        for i, expected in enumerate(rows):
            assert ba.row_mask(bitmap, i) == expected

    def test_bitmap_from_rows_rejects_wide(self):
        with pytest.raises(ValueError):
            ref.bitmap_from_rows([0b10000])


class TestTranspose:
    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_involution(self, bitmap):
        assert ba.transpose_bitmap(ba.transpose_bitmap(bitmap)) == bitmap

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_matches_numpy(self, bitmap):
        grid = ref.unpack_bits(bitmap, 4, 4)
        assert ba.transpose_bitmap(bitmap) == ref.pack_bits(grid.T)


class TestOuterProduct:
    def test_full(self):
        assert ref.outer_product_bitmap(0xF, 0xF) == 0xFFFF

    def test_empty_sides(self):
        assert ref.outer_product_bitmap(0, 0xF) == 0
        assert ref.outer_product_bitmap(0xF, 0) == 0

    @given(
        st.integers(min_value=0, max_value=0xF),
        st.integers(min_value=0, max_value=0xF),
    )
    def test_popcount_product(self, col, row):
        out = ref.outer_product_bitmap(col, row)
        assert ref.popcount(out) == ref.popcount(col) * ref.popcount(row)

    @given(
        st.integers(min_value=0, max_value=0xF),
        st.integers(min_value=0, max_value=0xF),
    )
    def test_matches_numpy_outer(self, col, row):
        c = np.array([(col >> i) & 1 for i in range(4)], dtype=bool)
        r = np.array([(row >> j) & 1 for j in range(4)], dtype=bool)
        assert ref.outer_product_bitmap(col, row) == ref.pack_bits(np.outer(c, r))


class TestDotPattern:
    def test_intersection(self):
        assert ba.dot_pattern(0b1010, 0b0110) == 0b0010

    def test_fig9_example(self):
        """The paper's '49' T4 code: pattern 0x9 from matching indices."""
        assert ba.dot_pattern(0b1001, 0b1111) == 0b1001


class TestNnzRowsCols:
    def test_diagonal(self):
        bitmap = ref.pack_bits(np.eye(4, dtype=bool))
        assert ref.nnz_rows(bitmap) == 4
        assert ref.nnz_cols(bitmap) == 4

    def test_single_row(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[2] = True
        bitmap = ref.pack_bits(grid)
        assert ref.nnz_rows(bitmap) == 1
        assert ref.nnz_cols(bitmap) == 4


class TestGridToTiles:
    def test_occupancy(self):
        grid = np.zeros((16, 16), dtype=bool)
        grid[0, 0] = True          # tile (0, 0)
        grid[5, 9] = True          # tile (1, 2)
        occupancy, tiles = ref.grid_to_tiles(grid, 4)
        assert occupancy.sum() == 2
        assert occupancy[0, 0] and occupancy[1, 2]
        assert tiles.shape == (4, 4, 4, 4)
        assert tiles[1, 2, 1, 1]

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            ref.grid_to_tiles(np.zeros((10, 16), dtype=bool), 4)

    def test_tiles_cover_grid(self, rng):
        grid = rng.random((16, 16)) < 0.3
        occupancy, tiles = ref.grid_to_tiles(grid, 4)
        assert tiles.sum() == grid.sum()
        assert occupancy.any(axis=None) == grid.any(axis=None)
