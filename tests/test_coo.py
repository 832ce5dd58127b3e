"""Tests for the COO container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError, ShapeError
from repro.formats import COOMatrix


class TestConstruction:
    def test_empty(self):
        m = COOMatrix((3, 4), [], [], [])
        assert m.nnz == 0
        assert m.to_dense().shape == (3, 4)

    def test_basic(self):
        m = COOMatrix((2, 2), [0, 1], [1, 0], [2.0, 3.0])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 2.0

    def test_duplicates_summed(self):
        m = COOMatrix((2, 2), [0, 0, 0], [1, 1, 0], [2.0, 3.0, 1.0])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 5.0

    def test_duplicates_cancelling_dropped(self):
        m = COOMatrix((2, 2), [0, 0], [1, 1], [2.0, -2.0])
        assert m.nnz == 0

    def test_explicit_zero_dropped(self):
        m = COOMatrix((2, 2), [0], [0], [0.0])
        assert m.nnz == 0

    def test_sorted_by_row_then_col(self):
        m = COOMatrix((3, 3), [2, 0, 1, 0], [0, 2, 1, 0], [1, 2, 3, 4])
        assert m.rows.tolist() == [0, 0, 1, 2]
        assert m.cols.tolist() == [0, 2, 1, 0]

    def test_sorted_input_matches_shuffled(self):
        rng = np.random.default_rng(4)
        rows, cols = np.divmod(rng.choice(40 * 30, size=300, replace=False), 30)
        vals = rng.standard_normal(300)
        vals[::9] = 0.0
        vals[1::9] = -0.0
        order = np.lexsort((cols, rows))
        shuffled = COOMatrix((40, 30), rows, cols, vals)
        presorted = COOMatrix((40, 30), rows[order], cols[order], vals[order])
        for field in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(presorted, field), getattr(shuffled, field))
        assert presorted.nnz == 300 - 2 * 34
        assert not np.any(presorted.vals == 0)

    def test_row_out_of_bounds(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [2], [0], [1.0])

    def test_col_out_of_bounds(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [0], [5], [1.0])

    def test_negative_index(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [-1], [0], [1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(FormatError):
            COOMatrix((2, 2), [0, 1], [0], [1.0])

    def test_negative_shape(self):
        with pytest.raises(ShapeError):
            COOMatrix((-1, 2), [], [], [])


class TestDenseRoundtrip:
    def test_from_dense_drops_zeros(self):
        dense = np.array([[0.0, 1.0], [2.0, 0.0]])
        m = COOMatrix.from_dense(dense)
        assert m.nnz == 2
        assert np.array_equal(m.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ShapeError):
            COOMatrix.from_dense(np.ones(4))

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, m, n, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((m, n)) * (rng.random((m, n)) < 0.3)
        assert np.allclose(COOMatrix.from_dense(dense).to_dense(), dense)


class TestOps:
    def test_transpose(self, small_dense):
        m = COOMatrix.from_dense(small_dense)
        assert np.allclose(m.transpose().to_dense(), small_dense.T)

    def test_transpose_involution(self, small_coo):
        assert small_coo.transpose().transpose() == small_coo

    def test_scaled(self, small_coo):
        assert np.allclose(small_coo.scaled(2.0).to_dense(), 2 * small_coo.to_dense())

    def test_scaled_by_zero_empties(self, small_coo):
        assert small_coo.scaled(0.0).nnz == 0

    def test_density(self):
        m = COOMatrix((4, 4), [0, 1], [0, 1], [1.0, 1.0])
        assert m.density() == 2 / 16

    def test_density_empty_shape(self):
        assert COOMatrix((0, 0), [], [], []).density() == 0.0

    def test_equality(self, small_coo):
        clone = COOMatrix(small_coo.shape, small_coo.rows, small_coo.cols, small_coo.vals)
        assert small_coo == clone

    def test_not_hashable(self, small_coo):
        with pytest.raises(TypeError):
            hash(small_coo)

    def test_repr(self, small_coo):
        assert "COOMatrix" in repr(small_coo)
