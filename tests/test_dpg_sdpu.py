"""Tests for the Dot Product Generator and the SDPU."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.dpg import (
    A_BROADCAST_RANGE,
    B_BROADCAST_RANGE,
    DotProductGenerator,
    n_order,
    overlay_patterns,
    z_order,
)
from repro.arch.sdpu import MAX_SEGMENT, SegmentedDotProductUnit
from repro.errors import SimulationError
from repro.formats import bitarray as ba

from tests import bitref as ref


class TestOverlay:
    def test_dense_tiles_full_patterns(self):
        patterns = overlay_patterns(0xFFFF, 0xFFFF)
        assert all(p == 0xF for row in patterns for p in row)

    def test_empty_tile(self):
        patterns = overlay_patterns(0, 0xFFFF)
        assert all(p == 0 for row in patterns for p in row)

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=30, deadline=None)
    def test_pattern_is_row_and_col_intersection(self, a_bm, b_bm):
        patterns = overlay_patterns(a_bm, b_bm)
        for m in range(4):
            for n in range(4):
                expected = ba.row_mask(a_bm, m) & ba.col_mask(b_bm, n)
                assert patterns[m][n] == expected

    def test_vector_operand(self):
        # B tile is a 4x1 mask: only column 0 exists.
        patterns = overlay_patterns(0xFFFF, 0b1010, n_cols=1)
        assert len(patterns[0]) == 1
        assert patterns[0][0] == 0b1010


class TestFillOrders:
    def test_z_order_covers_all_positions(self):
        assert sorted(z_order()) == [(m, n) for m in range(4) for n in range(4)]

    def test_n_order_covers_all_positions(self):
        assert sorted(n_order()) == [(m, n) for m in range(4) for n in range(4)]

    def test_z_order_b_separation(self):
        """Tasks sharing a B column sit at most 2 apart (broadcast 9)."""
        order = z_order()
        for n in range(4):
            positions = [i for i, (_, col) in enumerate(order) if col == n]
            assert max(np.diff(positions)) <= 2

    def test_z_order_a_adjacency(self):
        """Tasks sharing an A row within a pair group are adjacent."""
        order = z_order()
        for m in range(4):
            positions = [i for i, (row, _) in enumerate(order) if row == m]
            # Two per column pair, adjacent within the pair.
            assert positions[1] - positions[0] == 1

    def test_z_order_vector(self):
        assert z_order(1) == [(m, 0) for m in range(4)]

    def test_broadcast_constants(self):
        assert A_BROADCAST_RANGE == 5   # 4 + 1 (§IV-A.2)
        assert B_BROADCAST_RANGE == 9   # 4 + 4 + 1


class TestDecompose:
    def test_dense_tile(self):
        out = DotProductGenerator().decompose(0xFFFF, 0xFFFF)
        assert len(out.t4_tasks) == 16
        assert out.products == 64
        assert out.c_writes == 16

    def test_empty_tile(self):
        out = DotProductGenerator().decompose(0, 0xFFFF)
        assert not out.t4_tasks
        assert out.products == 0

    def test_rejects_bad_fill_order(self):
        with pytest.raises(ValueError):
            DotProductGenerator("w")

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=30, deadline=None)
    def test_products_match_tile_multiply(self, a_bm, b_bm):
        out = DotProductGenerator().decompose(a_bm, b_bm)
        a = ref.unpack_bits(a_bm, 4, 4)
        b = ref.unpack_bits(b_bm, 4, 4)
        expected = int((a.sum(axis=0) * b.sum(axis=1)).sum())
        assert out.products == expected

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    @settings(max_examples=30, deadline=None)
    def test_fetches_bounded_by_broadcasts(self, a_bm, b_bm):
        out = DotProductGenerator().decompose(a_bm, b_bm)
        assert out.a_elem_fetches <= out.a_broadcasts
        assert out.b_elem_fetches <= out.b_broadcasts
        assert out.a_broadcasts == out.products
        assert out.b_broadcasts == out.products

    def test_fig9_task_code(self):
        """A tile pair that produces the paper's '49'-style T4 code."""
        # A row 1 has nonzeros at kk=0 and kk=3; B column 3 is dense.
        a_bm = ref.bitmap_from_rows([0, 0b1001, 0, 0])
        b_bm = 0xFFFF
        out = DotProductGenerator().decompose(a_bm, b_bm)
        codes = {t.code for t in out.t4_tasks}
        # Target = position (1, 3) = 7, pattern = 0b1001 = 9.
        assert (7 << 4) | 0x9 in codes

    def test_vector_tile(self):
        out = DotProductGenerator().decompose(0xFFFF, 0b1111, n_cols=1)
        assert len(out.t4_tasks) == 4
        assert out.products == 16

    def test_z_vs_n_same_products(self):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            a_bm = int(gen.integers(0, 0xFFFF))
            b_bm = int(gen.integers(0, 0xFFFF))
            z = DotProductGenerator("z").decompose(a_bm, b_bm)
            n = DotProductGenerator("n").decompose(a_bm, b_bm)
            assert z.products == n.products
            assert z.c_writes == n.c_writes


class TestSDPU:
    def test_dense_packing(self):
        sdpu = SegmentedDotProductUnit(64)
        batches = sdpu.pack([4] * 16)
        assert len(batches) == 1
        assert batches[0].lanes_used == 64
        assert batches[0].utilisation(64) == 1.0

    def test_overflow_opens_new_batch(self):
        sdpu = SegmentedDotProductUnit(8)
        batches = sdpu.pack([4, 4, 4])
        assert [b.lanes_used for b in batches] == [8, 4]

    def test_segments_never_split(self):
        sdpu = SegmentedDotProductUnit(8)
        batches = sdpu.pack([3, 3, 3])
        assert [b.lanes_used for b in batches] == [6, 3]

    def test_merge_adds(self):
        sdpu = SegmentedDotProductUnit(64)
        batches = sdpu.pack([4, 1, 2])
        assert batches[0].merge_adds == 3 + 0 + 1

    def test_rejects_bad_segment(self):
        sdpu = SegmentedDotProductUnit(64)
        with pytest.raises(SimulationError):
            sdpu.pack([5])
        with pytest.raises(SimulationError):
            sdpu.pack([0])

    def test_rejects_bad_lanes(self):
        with pytest.raises(SimulationError):
            SegmentedDotProductUnit(0)

    def test_write_traffic_pre_merged(self):
        sdpu = SegmentedDotProductUnit(64)
        segments = [4, 4, 2, 1]
        assert sdpu.write_traffic(segments) == 4
        assert sdpu.unmerged_write_traffic(segments) == 11

    def test_max_segment_matches_tree(self):
        assert MAX_SEGMENT == 4

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_packing_conserves_lanes(self, segments):
        sdpu = SegmentedDotProductUnit(64)
        batches = sdpu.pack(segments)
        assert sum(b.lanes_used for b in batches) == sum(segments)
        assert sum(b.segments for b in batches) == len(segments)
        assert all(b.lanes_used <= 64 for b in batches)
