"""Tests for the warp-level Algorithm 1/2 executor."""

import numpy as np
import pytest

from tests.warp import (
    WARP_LANES,
    WarpLog,
    shfl_gather,
    validate_log,
    warp_spgemm,
    warp_spmspv,
    warp_spmv,
)
from repro.errors import ShapeError
from repro.formats import BBCMatrix
from repro.kernels.vector import SparseVector
from repro.workloads.synthetic import banded, random_uniform


@pytest.fixture(scope="module")
def matrix_pair():
    dense = banded(96, 10, 0.5, seed=4).to_dense()
    return dense, BBCMatrix.from_dense(dense)


class TestShflGather:
    def test_folds_halves(self):
        ry = np.arange(32, dtype=np.float64)
        out = shfl_gather(ry)
        assert out.shape == (16,)
        assert np.array_equal(out, np.arange(16) + np.arange(16, 32))

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            shfl_gather(np.zeros(16))

    def test_warp_constant(self):
        assert WARP_LANES == 32


class TestWarpSpMV:
    def test_matches_dense(self, matrix_pair, rng):
        dense, bbc = matrix_pair
        x = rng.random(96)
        assert np.allclose(warp_spmv(bbc, x), dense @ x)

    def test_matches_for_odd_shapes(self, rng):
        dense = random_uniform(37, 53, 0.3, seed=1).to_dense()
        bbc = BBCMatrix.from_dense(dense)
        x = rng.random(53)
        assert np.allclose(warp_spmv(bbc, x), dense @ x)

    def test_warp_count_does_not_change_result(self, matrix_pair, rng):
        dense, bbc = matrix_pair
        x = rng.random(96)
        for warps in (1, 2, 8):
            assert np.allclose(warp_spmv(bbc, x, n_warps=warps), dense @ x)

    def test_shape_checked(self, matrix_pair):
        _, bbc = matrix_pair
        with pytest.raises(ShapeError):
            warp_spmv(bbc, np.ones(5))

    def test_log_counts(self, matrix_pair, rng):
        _, bbc = matrix_pair
        log = WarpLog()
        warp_spmv(bbc, rng.random(96), n_warps=2, log=log)
        validate_log(log)
        assert log.blocks_processed == bbc.nblocks
        assert log.warps_used == 2
        # One load.a per block; one meta/gen/numeric per block *pair*.
        assert log.opcode_counts["stc.load.a"] == bbc.nblocks
        assert log.opcode_counts["stc.numeric.mv"] >= bbc.nblocks / 2


class TestWarpSpMSpV:
    def test_matches_dense(self, matrix_pair, rng):
        dense, bbc = matrix_pair
        xs = rng.random(96) * (rng.random(96) < 0.5)
        out = warp_spmspv(bbc, SparseVector.from_dense(xs))
        assert np.allclose(out.to_dense(), dense @ xs)

    def test_dead_segments_skipped(self, matrix_pair):
        _, bbc = matrix_pair
        log = WarpLog()
        x = SparseVector(96, [0], [1.0])
        warp_spmspv(bbc, x, log=log)
        live_blocks = sum(1 for _, bcol, _ in bbc.iter_blocks() if bcol == 0)
        assert log.blocks_processed == live_blocks

    def test_length_checked(self, matrix_pair):
        _, bbc = matrix_pair
        with pytest.raises(ShapeError):
            warp_spmspv(bbc, SparseVector(5, [], []))


class TestWarpSpGEMM:
    def test_matches_dense(self, rng):
        da = random_uniform(64, 64, 0.15, seed=2).to_dense()
        db = random_uniform(64, 64, 0.15, seed=3).to_dense()
        a, b = BBCMatrix.from_dense(da), BBCMatrix.from_dense(db)
        out = warp_spgemm(a, b)
        assert np.allclose(out.to_dense(), da @ db)

    def test_self_product(self, matrix_pair):
        dense, bbc = matrix_pair
        assert np.allclose(warp_spgemm(bbc, bbc).to_dense(), dense @ dense)

    def test_agrees_with_bbc_kernel(self, matrix_pair):
        from repro.kernels import bbc_kernels

        _, bbc = matrix_pair
        warp = warp_spgemm(bbc, bbc)
        plain = bbc_kernels.spgemm(bbc, bbc)
        assert np.allclose(warp.to_dense(), plain.to_dense())

    def test_log_matches_task_stream(self, matrix_pair):
        from repro.kernels.batched import spgemm_batch

        _, bbc = matrix_pair
        log = WarpLog()
        warp_spgemm(bbc, bbc, log=log)
        validate_log(log)
        assert log.opcode_counts["stc.numeric.mm"] == len(spgemm_batch(bbc, bbc))

    def test_inner_mismatch(self, rng):
        a = BBCMatrix.from_dense(rng.random((16, 32)))
        with pytest.raises(ShapeError):
            warp_spgemm(a, a)

    def test_warp_count_invariance(self, matrix_pair):
        dense, bbc = matrix_pair
        for warps in (1, 3, 6):
            out = warp_spgemm(bbc, bbc, n_warps=warps)
            assert np.allclose(out.to_dense(), dense @ dense)
