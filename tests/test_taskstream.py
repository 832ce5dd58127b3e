"""Task-stream enumeration: the batches must account for every product.

These check the production enumeration (:mod:`repro.kernels.batched`)
directly; ``tests/test_batched.py`` checks it against the stepped
oracle's per-object generators.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.formats import BBCMatrix
from repro.kernels.batched import (
    kernel_task_batches,
    spgemm_batch,
    spmm_batch,
    spmspv_batch,
    spmv_batch,
)
from repro.kernels.vector import SparseVector

from tests.blocks import iter_tasks


def _total_products(batches):
    return sum(t.intermediate_products() * t.weight
               for batch in batches for t in iter_tasks(batch))


def _expected_products(a_dense, b_dense):
    return int(((a_dense != 0).sum(axis=0) * (b_dense != 0).sum(axis=1)).sum())


class TestSpMVTasks:
    def test_products_match(self, rng):
        dense = rng.random((50, 40)) * (rng.random((50, 40)) < 0.2)
        bbc = BBCMatrix.from_dense(dense)
        x = np.ones((40, 1))
        assert _total_products([spmv_batch(bbc)]) == _expected_products(dense, x)

    def test_task_count_is_block_count(self, small_bbc):
        assert len(spmv_batch(small_bbc)) == small_bbc.nblocks

    def test_vector_operand_shape(self, small_bbc):
        batch = spmv_batch(small_bbc)
        assert batch.n == 1
        assert batch.b_patterns.shape[1:] == (1,)  # one packed segment
        for task in iter_tasks(batch):
            assert task.n == 1
            assert task.b_bitmap().shape == (16, 1)

    def test_padding_masked(self):
        """Columns past the true width must not contribute products."""
        dense = np.zeros((16, 20))
        dense[0, 19] = 1.0
        bbc = BBCMatrix.from_dense(dense)
        assert _total_products([spmv_batch(bbc)]) == 1


class TestSpMSpVTasks:
    def test_dead_segments_skipped(self, rng):
        dense = rng.random((64, 64)) * (rng.random((64, 64)) < 0.3)
        bbc = BBCMatrix.from_dense(dense)
        x = SparseVector(64, [0], [1.0])  # only segment 0 live
        live_blocks = sum(1 for _, bcol, _ in bbc.iter_blocks() if bcol == 0)
        assert len(spmspv_batch(bbc, x)) == live_blocks

    def test_products_match(self, rng):
        dense = rng.random((48, 48)) * (rng.random((48, 48)) < 0.25)
        bbc = BBCMatrix.from_dense(dense)
        xs = rng.random(48) * (rng.random(48) < 0.5)
        x = SparseVector.from_dense(xs)
        expected = _expected_products(dense, (xs != 0)[:, None])
        assert _total_products([spmspv_batch(bbc, x)]) == expected

    def test_length_mismatch(self, small_bbc):
        with pytest.raises(ShapeError):
            spmspv_batch(small_bbc, SparseVector(3, [], []))


class TestSpMMTasks:
    def test_weight_collapses_panels(self, small_bbc):
        batch = spmm_batch(small_bbc, b_cols=64)
        assert (batch.weights == 4).all()
        assert len(batch) == small_bbc.nblocks

    def test_tail_panel(self, small_bbc):
        batch = spmm_batch(small_bbc, b_cols=40)
        # 2 full panels + one 8-wide tail
        assert sorted(set(batch.weights.tolist())) == [1, 2]

    def test_products_match(self, rng):
        dense = rng.random((32, 32)) * (rng.random((32, 32)) < 0.3)
        bbc = BBCMatrix.from_dense(dense)
        b = np.ones((32, 64))
        expected = _expected_products(dense, b)
        assert _total_products([spmm_batch(bbc, 64)]) == expected

    def test_rejects_zero_columns(self, small_bbc):
        with pytest.raises(ShapeError):
            spmm_batch(small_bbc, b_cols=0)


class TestSpGEMMTasks:
    def test_products_match(self, rng):
        da = rng.random((48, 48)) * (rng.random((48, 48)) < 0.15)
        db = rng.random((48, 48)) * (rng.random((48, 48)) < 0.15)
        a, b = BBCMatrix.from_dense(da), BBCMatrix.from_dense(db)
        assert _total_products([spgemm_batch(a, b)]) == _expected_products(da, db)

    def test_task_count_is_block_pair_count(self, rng):
        da = rng.random((64, 64)) * (rng.random((64, 64)) < 0.1)
        a = BBCMatrix.from_dense(da)
        expected = 0
        for brow in range(a.block_rows):
            cols, _ = a.block_row(brow)
            for c in cols:
                expected += a.block_row(int(c))[0].size
        assert len(spgemm_batch(a, a)) == expected

    def test_inner_mismatch(self, rng):
        a = BBCMatrix.from_dense(rng.random((16, 32)))
        with pytest.raises(ShapeError):
            spgemm_batch(a, a)


class TestDispatch:
    def test_kernel_tasks_dispatch(self, small_bbc):
        assert _total_products(kernel_task_batches("spmv", small_bbc))
        assert _total_products(kernel_task_batches("SPMM", small_bbc, b_cols=16))
        assert _total_products(kernel_task_batches(
            "spgemm", small_bbc, b=BBCMatrix.from_dense(np.eye(small_bbc.shape[1]))))

    def test_spgemm_defaults_to_a_squared(self, rng):
        dense = rng.random((32, 32)) * (rng.random((32, 32)) < 0.2)
        a = BBCMatrix.from_dense(dense)
        assert (_total_products(kernel_task_batches("spgemm", a))
                == _expected_products(dense, dense))

    def test_spmspv_requires_x(self, small_bbc):
        with pytest.raises(ShapeError):
            kernel_task_batches("spmspv", small_bbc)

    def test_unknown_kernel(self, small_bbc):
        with pytest.raises(ShapeError):
            kernel_task_batches("gemm", small_bbc)
