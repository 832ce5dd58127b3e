"""Tests for the BBC format — construction, decode, bitmaps, I/O, storage."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import FormatError, ShapeError
from repro.formats import BBCMatrix, COOMatrix, CSRMatrix
from repro.formats.bbc import (
    BLOCK,
    TILE,
    TILES_PER_BLOCK,
    pack_patterns,
    pattern_col_masks,
    pattern_row_masks,
    unpack_patterns,
)
from repro.kernels import batched
from repro.workloads.suitesparse import corpus

from tests.bitref import popcount_array


class TestConstants:
    def test_block_and_tile(self):
        assert BLOCK == 16
        assert TILE == 4
        assert TILES_PER_BLOCK == 16


class TestConstruction:
    def test_empty_matrix(self):
        m = BBCMatrix.from_coo(COOMatrix((10, 10), [], [], []))
        assert m.nnz == 0
        assert m.nblocks == 0
        assert m.to_dense().shape == (10, 10)

    def test_single_element(self):
        m = BBCMatrix.from_coo(COOMatrix((20, 20), [17], [3], [5.0]))
        assert m.nblocks == 1
        assert m.ntiles == 1
        assert m.to_dense()[17, 3] == 5.0

    def test_roundtrip(self, small_coo):
        assert np.allclose(BBCMatrix.from_coo(small_coo).to_dense(), small_coo.to_dense())

    def test_from_csr(self, small_csr):
        assert np.allclose(BBCMatrix.from_csr(small_csr).to_dense(), small_csr.to_dense())

    def test_from_dense(self, small_dense):
        assert np.allclose(BBCMatrix.from_dense(small_dense).to_dense(), small_dense)

    def test_to_csr(self, small_csr):
        assert BBCMatrix.from_csr(small_csr).to_csr() == small_csr

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, m, n, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((m, n)) * (rng.random((m, n)) < 0.25)
        assert np.allclose(BBCMatrix.from_dense(dense).to_dense(), dense)

    def test_dense_16x16_is_one_full_block(self):
        m = BBCMatrix.from_dense(np.ones((16, 16)))
        assert m.nblocks == 1
        assert m.ntiles == 16
        assert int(m.bitmap_lv1[0]) == 0xFFFF
        assert all(int(b) == 0xFFFF for b in m.bitmap_lv2)


_ARRAYS = ("row_ptr", "col_idx", "bitmap_lv1", "tile_ptr", "bitmap_lv2",
           "val_ptr_lv1", "val_ptr_lv2", "values")


def _reference_arrays(coo: COOMatrix) -> dict:
    """BBC arrays by a four-key lexsort and ``bitwise_or.at`` scatters.

    The reference for :meth:`BBCMatrix.from_coo`'s single-sort,
    ``reduceat`` encoder (non-empty input only).
    """
    nbrows = max(1, -(-coo.shape[0] // BLOCK))
    nbcols = max(1, -(-coo.shape[1] // BLOCK))
    brow, bcol = coo.rows // BLOCK, coo.cols // BLOCK
    in_r, in_c = coo.rows % BLOCK, coo.cols % BLOCK
    tile = (in_r // TILE) * 4 + in_c // TILE
    elem = (in_r % TILE) * TILE + in_c % TILE
    order = np.lexsort((elem, tile, bcol, brow))
    brow, bcol, tile, elem = brow[order], bcol[order], tile[order], elem[order]
    block_key = brow * nbcols + bcol
    new_block = np.concatenate(([True], block_key[1:] != block_key[:-1]))
    block_of = np.cumsum(new_block) - 1
    nblocks = int(block_of[-1]) + 1
    row_ptr = np.zeros(nbrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(brow[new_block], minlength=nbrows), out=row_ptr[1:])
    tile_key = block_of * TILES_PER_BLOCK + tile
    new_tile = np.concatenate(([True], tile_key[1:] != tile_key[:-1]))
    tile_of = np.cumsum(new_tile) - 1
    tile_block = block_of[new_tile]
    bitmap_lv1 = np.zeros(nblocks, dtype=np.uint16)
    np.bitwise_or.at(bitmap_lv1, tile_block, np.uint16(1) << tile[new_tile].astype(np.uint16))
    tile_ptr = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(np.bincount(tile_block, minlength=nblocks), out=tile_ptr[1:])
    bitmap_lv2 = np.zeros(int(tile_of[-1]) + 1, dtype=np.uint16)
    np.bitwise_or.at(bitmap_lv2, tile_of, np.uint16(1) << elem.astype(np.uint16))
    val_ptr_lv1 = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(np.bincount(block_of, minlength=nblocks), out=val_ptr_lv1[1:])
    tile_start = np.flatnonzero(new_tile)
    return {
        "row_ptr": row_ptr, "col_idx": bcol[new_block], "bitmap_lv1": bitmap_lv1,
        "tile_ptr": tile_ptr, "bitmap_lv2": bitmap_lv2, "val_ptr_lv1": val_ptr_lv1,
        "val_ptr_lv2": (tile_start - val_ptr_lv1[tile_block]).astype(np.uint8),
        "values": coo.vals[order],
    }


def _assert_same_arrays(got: BBCMatrix, want: BBCMatrix) -> None:
    assert got.shape == want.shape
    for field in _ARRAYS:
        mine, theirs = getattr(got, field), getattr(want, field)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), field


def _assert_reference_encoding(coo: COOMatrix) -> None:
    ref = BBCMatrix(coo.shape, *(_reference_arrays(coo)[f] for f in _ARRAYS),
                    _skip_checks=True)
    _assert_same_arrays(BBCMatrix.from_coo(coo), ref)


class TestEncoderReference:
    """``from_coo`` produces exactly the reference encoder's arrays."""

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 10_000),
           st.floats(0.02, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_canonical_coo(self, m, n, seed, density):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
        if np.any(dense):
            _assert_reference_encoding(COOMatrix.from_dense(dense))

    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 10_000),
           st.integers(1, 600))
    @settings(max_examples=40, deadline=None)
    def test_non_canonical_coo(self, m, n, seed, count):
        """Unsorted entries, duplicates and explicit zeros survive as given."""
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(count)
        vals[rng.random(count) < 0.1] = 0.0
        coo = COOMatrix((m, n), rng.integers(0, m, count), rng.integers(0, n, count),
                        vals, _skip_checks=True)
        _assert_reference_encoding(coo)

    def test_large_sparse_grid(self):
        rng = np.random.default_rng(5)
        rows, cols = rng.integers(0, 5000, 4000), rng.integers(0, 3000, 4000)
        _assert_reference_encoding(COOMatrix((5000, 3000), rows, cols, rng.random(4000) + 1))


@st.composite
def _dense_inputs(draw) -> np.ndarray:
    """Ragged and whole-block shapes (zero sides too), from all-zero to
    all-dense, with negative values and ``-0.0`` among the zeros."""
    m, n = draw(st.integers(0, 70)), draw(st.integers(0, 70))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) >= density] = 0.0
    dense[(dense == 0) & (rng.random((m, n)) < 0.5)] = -0.0
    return dense.astype(draw(st.sampled_from([np.float64, np.float32, np.int64])))


class TestDenseEncoder:
    """``from_dense`` encodes by the layout, array for array the COO route."""

    @given(_dense_inputs())
    @example(np.ones((1, 1)))
    @example(np.zeros((1, 1)))
    @example(np.full((16, 48), -2.5))
    @example(np.zeros((33, 17)))
    @example(np.array([[-0.0, 1.0], [0.0, -0.0]]))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_coo_route(self, dense):
        got = BBCMatrix.from_dense(dense)
        _assert_same_arrays(got, BBCMatrix.from_coo(COOMatrix.from_dense(dense)))
        assert got.validate() == []

    @pytest.mark.parametrize("shape", [(), (4,), (2, 16, 16)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ShapeError):
            BBCMatrix.from_dense(np.ones(shape))


class TestStructuralInvariants:
    def test_lv1_popcount_equals_tile_count(self, small_bbc):
        assert int(popcount_array(small_bbc.bitmap_lv1).sum()) == small_bbc.ntiles

    def test_lv2_popcount_equals_nnz(self, small_bbc):
        assert int(popcount_array(small_bbc.bitmap_lv2).sum()) == small_bbc.nnz

    def test_val_ptr_lv1_monotone(self, small_bbc):
        assert np.all(np.diff(small_bbc.val_ptr_lv1) >= 0)

    def test_val_ptr_lv2_offsets_consistent(self, small_bbc):
        """Each tile's offset equals the popcount prefix of earlier tiles."""
        for blk in range(small_bbc.nblocks):
            lo, hi = small_bbc.tile_ptr[blk], small_bbc.tile_ptr[blk + 1]
            running = 0
            for t in range(lo, hi):
                assert int(small_bbc.val_ptr_lv2[t]) == running
                running += int(popcount_array(small_bbc.bitmap_lv2[t : t + 1])[0])

    def test_block_cols_sorted_within_rows(self, small_bbc):
        for brow in range(small_bbc.block_rows):
            cols, _ = small_bbc.block_row(brow)
            assert np.all(np.diff(cols) > 0)

    def test_nnz_per_block_sums_to_nnz(self, small_bbc):
        assert int(small_bbc.nnz_per_block().sum()) == small_bbc.nnz

    def test_validation_rejects_bad_lv1(self, small_bbc):
        if small_bbc.nblocks == 0:
            pytest.skip("needs at least one block")
        bad = small_bbc.bitmap_lv1.copy()
        bad[0] = 0
        with pytest.raises(FormatError):
            BBCMatrix(
                small_bbc.shape, small_bbc.row_ptr, small_bbc.col_idx, bad,
                small_bbc.tile_ptr, small_bbc.bitmap_lv2, small_bbc.val_ptr_lv1,
                small_bbc.val_ptr_lv2, small_bbc.values,
            )


_BITMAP_CASES = (
    "all-zero", "empty-block-rows", "partial-last-block", "dense-32x32",
) + tuple(f"corpus-{i}" for i in range(4))


@pytest.fixture(scope="module")
def bitmap_inputs():
    """Block-expansion inputs beyond ``small_bbc``, by case name."""
    rng = np.random.default_rng(17)
    gaps = rng.random((80, 48)) * (rng.random((80, 48)) < 0.2)
    gaps[16:48] = 0
    rect = rng.random((37, 53)) * (rng.random((37, 53)) < 0.3)
    inputs = {
        "all-zero": BBCMatrix.from_coo(COOMatrix((40, 24), [], [], [])),
        "empty-block-rows": BBCMatrix.from_dense(gaps),
        "partial-last-block": BBCMatrix.from_dense(rect),
        "dense-32x32": BBCMatrix.from_dense(np.ones((32, 32))),
    }
    for i, spec in enumerate(corpus(sizes=(128,), limit=4)):
        inputs[f"corpus-{i}"] = BBCMatrix.from_coo(spec.matrix())
    assert inputs["all-zero"].ntiles == 0
    assert (np.diff(inputs["empty-block-rows"].row_ptr)[1:3] == 0).all()
    assert inputs["dense-32x32"].ntiles == 4 * TILES_PER_BLOCK
    return inputs


class TestBlockAccess:
    def test_find_block(self, small_bbc):
        for brow, bcol, idx in small_bbc.iter_blocks():
            assert small_bbc.find_block(brow, bcol) == idx

    def test_find_missing_block(self):
        m = BBCMatrix.from_coo(COOMatrix((32, 32), [0], [0], [1.0]))
        assert m.find_block(1, 1) is None

    def test_block_bitmap_matches_dense(self, small_bbc):
        for _, _, idx in small_bbc.iter_blocks():
            assert np.array_equal(
                small_bbc.block_bitmap(idx), small_bbc.block_dense(idx) != 0
            )

    @pytest.mark.parametrize("case", ("small",) + _BITMAP_CASES)
    def test_block_bitmaps_all_matches_scalar(self, case, small_bbc, bitmap_inputs):
        """``block_patterns`` (which replaced the bool ``block_bitmaps_all``
        expansion) against the scalar decoders: every stored block's
        packed pattern is its ``tile_bitmaps`` grid, and two blocks share
        an id exactly when their ``block_bitmap`` grids are equal."""
        m = small_bbc if case == "small" else bitmap_inputs[case]
        patterns, ids, keys = m.block_patterns()
        assert patterns.dtype == np.dtype("<u2") and patterns.shape[1:] == (16,)
        assert ids.shape == (m.nblocks,) and len(keys) == len(patterns)
        assert len({bytes(k) for k in keys}) == len(keys) == len(np.unique(ids))
        assert all(key == b"\x20\x00" + row.tobytes() and len(key) == 34
                   for key, row in zip(keys, patterns))
        grids = [m.block_bitmap(q) for q in range(m.nblocks)]
        for q in range(m.nblocks):
            assert np.array_equal(patterns[ids[q]].reshape(4, 4), m.tile_bitmaps(q))
            for r in range(q):
                assert (ids[q] == ids[r]) == np.array_equal(grids[q], grids[r])
        assert m.copy().block_patterns() is not m.block_patterns()

    def test_tile_bitmaps_grid(self, small_bbc):
        for _, _, idx in small_bbc.iter_blocks():
            grid = small_bbc.tile_bitmaps(idx)
            bitmap = small_bbc.block_bitmap(idx)
            for ti in range(4):
                for tj in range(4):
                    tile = bitmap[ti * 4 : (ti + 1) * 4, tj * 4 : (tj + 1) * 4]
                    expected = sum(
                        1 << (ei * 4 + ej)
                        for ei in range(4) for ej in range(4) if tile[ei, ej]
                    )
                    assert int(grid[ti, tj]) == expected

    def test_tile_ids_sorted_within_blocks(self, small_bbc):
        ids = small_bbc.tile_ids()
        for blk in range(small_bbc.nblocks):
            lo, hi = small_bbc.tile_ptr[blk], small_bbc.tile_ptr[blk + 1]
            segment = ids[lo:hi].astype(int)
            assert np.all(np.diff(segment) > 0)


def _grids(data: bytes, width: int) -> np.ndarray:
    """``data`` as one 16 x ``width`` bool grid (bit ``i`` of the stream)."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits.astype(bool).reshape(BLOCK, width)


class TestPackedPatterns:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=2, max_size=2))
    def test_round_trip_both_widths(self, block, segment):
        for grid in (_grids(block, BLOCK), _grids(segment, 1)):
            packed = pack_patterns(grid)
            assert packed.shape == (grid.shape[1],) and packed.dtype == np.dtype("<u2")
            assert np.array_equal(unpack_patterns(packed), grid)
            assert np.array_equal(unpack_patterns(packed[None])[0], grid)

    def test_layout_is_level2_tiles_and_row_bits(self):
        grid = np.zeros((BLOCK, BLOCK), bool)
        grid[5, 9] = True  # tile (1, 2), element (1, 1)
        packed = pack_patterns(grid)
        assert packed[1 * 4 + 2] == 1 << (1 * 4 + 1) and packed.sum() == packed[6]
        segment = np.zeros((BLOCK, 1), bool)
        segment[[0, 13], 0] = True
        assert pack_patterns(segment)[0] == (1 << 0) | (1 << 13)

    @pytest.mark.parametrize("width", [BLOCK, 1])
    def test_empty_and_full(self, width):
        for fill, word in ((False, 0), (True, 0xFFFF)):
            packed = pack_patterns(np.full((BLOCK, width), fill))
            assert (packed == word).all()
            assert (unpack_patterns(packed) == fill).all()

    @pytest.mark.parametrize("live", range(1, BLOCK + 1))
    def test_spmv_segments_and_spmm_panels(self, live):
        """SpMV's tail segment and SpMM's 1-15-column tail panel (16:
        the full ones) are the module tables' rows."""
        segment = np.arange(BLOCK)[:, None] < live
        panel = np.broadcast_to(np.arange(BLOCK)[None, :] < live, (BLOCK, BLOCK))
        assert np.array_equal(batched._SEGMENTS[live], pack_patterns(segment))
        assert np.array_equal(batched._PANELS[live], pack_patterns(panel))
        assert np.array_equal(unpack_patterns(batched._PANELS[live]), panel)
        assert batched._PANEL_KEYS[live] == b"\x20\x00" + pack_patterns(panel).tobytes()

    def test_rejects_other_shapes(self):
        with pytest.raises(FormatError):
            pack_patterns(np.zeros((16, 7), bool))


def _check_masks(patterns: np.ndarray, grids: np.ndarray) -> None:
    """Row / column masks of ``[..., n]`` patterns equal the ``[..., 16, n]`` grids' bits."""
    width = grids.shape[-1]
    rows = (grids.astype(np.int64) << np.arange(width)).sum(axis=-1)
    cols = (grids.astype(np.int64) << np.arange(BLOCK)[:, None]).sum(axis=-2)
    for got, want in ((pattern_row_masks(patterns), rows), (pattern_col_masks(patterns), cols)):
        assert got.dtype == np.uint16 and got.shape == want.shape
        assert np.array_equal(got, want)


class TestPatternMasks:
    """The one decoder of the packed layout against the scalar decoders."""

    @settings(max_examples=80, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=2, max_size=2))
    def test_match_scalar_decoders_both_widths(self, block, segment):
        grid = _grids(block, BLOCK)
        bbc = BBCMatrix.from_dense(grid.astype(float))
        if bbc.nblocks:
            # tile_bitmaps reads the level-1/2 bitmaps slot by slot,
            # block_bitmap decodes the block bit by bit.
            _check_masks(bbc.tile_bitmaps(0).reshape(-1), bbc.block_bitmap(0))
            patterns, ids, _ = bbc.block_patterns()
            _check_masks(patterns[ids], grid[None])
        seg = _grids(segment, 1)
        _check_masks(pack_patterns(seg), seg)

    @pytest.mark.parametrize("width", [BLOCK, 1])
    def test_empty_and_full(self, width):
        for fill in (False, True):
            grid = np.full((BLOCK, width), fill)
            _check_masks(pack_patterns(grid), grid)

    @pytest.mark.parametrize("live", range(1, BLOCK + 1))
    def test_spmv_segments_and_spmm_panels(self, live):
        segment = np.arange(BLOCK)[:, None] < live
        panel = np.broadcast_to(np.arange(BLOCK)[None, :] < live, (BLOCK, BLOCK))
        _check_masks(batched._SEGMENTS[live], segment)
        _check_masks(batched._PANELS[live], panel)

    def test_leading_axes(self):
        rng = np.random.default_rng(4)
        for width in (BLOCK, 1):
            grids = rng.random((3, 5, BLOCK, width)) < 0.3
            _check_masks(pack_patterns(grids), grids)
            _check_masks(pack_patterns(grids[:0]), grids[:0])


class TestFileIO:
    def test_save_load_roundtrip(self, small_bbc, tmp_path):
        path = tmp_path / "matrix.npz"
        small_bbc.save(path)
        loaded = BBCMatrix.load(path)
        assert np.allclose(loaded.to_dense(), small_bbc.to_dense())

    def test_load_appends_npz_suffix(self, small_bbc, tmp_path):
        path = tmp_path / "matrix"
        small_bbc.save(path)
        loaded = BBCMatrix.load(path)
        assert loaded.nnz == small_bbc.nnz

    def test_loaded_preserves_shape(self, tmp_path):
        m = BBCMatrix.from_coo(COOMatrix((33, 7), [32], [6], [1.0]))
        m.save(tmp_path / "odd.npz")
        assert BBCMatrix.load(tmp_path / "odd.npz").shape == (33, 7)


class TestStorage:
    def test_metadata_bytes_positive(self, small_bbc):
        assert small_bbc.metadata_bytes() > 0

    def test_storage_total(self, small_bbc):
        assert small_bbc.storage_bytes() == small_bbc.metadata_bytes() + 8 * small_bbc.nnz

    def test_bbc_beats_csr_on_dense_blocks(self):
        """The Fig. 15 headline: BBC wins at high nonzeros-per-block."""
        dense = np.ones((64, 64))
        coo = COOMatrix.from_dense(dense)
        bbc = BBCMatrix.from_coo(coo)
        csr = CSRMatrix.from_coo(coo)
        assert csr.metadata_bytes() / bbc.metadata_bytes() > 8.0

    def test_csr_beats_bbc_on_scattered(self):
        """At very low NnzPB the bitmap overhead loses to plain CSR.

        A random permutation matrix is the adversarial case: one
        nonzero per row, almost every stored block holding one element.
        """
        rng = np.random.default_rng(1)
        perm = rng.permutation(256)
        coo = COOMatrix((256, 256), np.arange(256), perm, np.ones(256))
        bbc = BBCMatrix.from_coo(coo)
        csr = CSRMatrix.from_coo(coo)
        assert bbc.metadata_bytes() > csr.metadata_bytes()

    def test_lv2_pointer_overhead_tiny(self):
        """ValPtr_Lv2 must stay tiny (paper reports <= 0.3%; our 1-byte
        encoding lands under 1% on a dense matrix — see EXPERIMENTS.md)."""
        dense = np.ones((128, 128))
        bbc = BBCMatrix.from_dense(dense)
        lv2_bytes = bbc.val_ptr_lv2.size  # one byte each
        assert lv2_bytes / bbc.storage_bytes() <= 0.01
