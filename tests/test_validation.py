"""Failure injection: corrupted structures and invalid inputs must be
rejected loudly, never silently mis-simulated."""

import numpy as np
import pytest

from repro.errors import ConfigError, FormatError, ReproError, SimulationError
from repro.formats import BBCMatrix, COOMatrix

from tests.stepped_models import BlockResult


@pytest.fixture
def valid_bbc(rng):
    dense = rng.random((48, 48)) * (rng.random((48, 48)) < 0.3)
    return BBCMatrix.from_dense(dense)


def _rebuild(bbc, **overrides):
    fields = dict(
        shape=bbc.shape,
        row_ptr=bbc.row_ptr,
        col_idx=bbc.col_idx,
        bitmap_lv1=bbc.bitmap_lv1,
        tile_ptr=bbc.tile_ptr,
        bitmap_lv2=bbc.bitmap_lv2,
        val_ptr_lv1=bbc.val_ptr_lv1,
        val_ptr_lv2=bbc.val_ptr_lv2,
        values=bbc.values,
    )
    fields.update(overrides)
    return BBCMatrix(
        fields["shape"], fields["row_ptr"], fields["col_idx"], fields["bitmap_lv1"],
        fields["tile_ptr"], fields["bitmap_lv2"], fields["val_ptr_lv1"],
        fields["val_ptr_lv2"], fields["values"],
    )


class TestCorruptedBBC:
    def test_truncated_row_ptr(self, valid_bbc):
        with pytest.raises(FormatError):
            _rebuild(valid_bbc, row_ptr=valid_bbc.row_ptr[:-1])

    def test_row_ptr_wrong_terminal(self, valid_bbc):
        bad = valid_bbc.row_ptr.copy()
        bad[-1] += 1
        with pytest.raises(FormatError):
            _rebuild(valid_bbc, row_ptr=bad)

    def test_missing_lv2_bitmap(self, valid_bbc):
        with pytest.raises(FormatError):
            _rebuild(valid_bbc, bitmap_lv2=valid_bbc.bitmap_lv2[:-1])

    def test_extra_values(self, valid_bbc):
        with pytest.raises(FormatError):
            _rebuild(valid_bbc, values=np.concatenate([valid_bbc.values, [1.0]]))

    def test_val_ptr_terminal_mismatch(self, valid_bbc):
        bad = valid_bbc.val_ptr_lv1.copy()
        bad[-1] -= 1
        with pytest.raises(FormatError):
            _rebuild(valid_bbc, val_ptr_lv1=bad)

    def test_cleared_lv2_bit_detected(self, valid_bbc):
        """Dropping one element bit breaks the popcount==nnz invariant."""
        bad = valid_bbc.bitmap_lv2.copy()
        target = np.flatnonzero(bad)[0]
        bit = int(bad[target])
        bad[target] = bit & (bit - 1)  # clear lowest set bit
        with pytest.raises(FormatError):
            _rebuild(valid_bbc, bitmap_lv2=bad)

    def test_tile_ptr_wrong_length(self, valid_bbc):
        with pytest.raises(FormatError):
            _rebuild(valid_bbc, tile_ptr=valid_bbc.tile_ptr[:-1])


class TestBlockResultValidation:
    """The stepped oracle's result type refuses impossible counts."""

    def test_negative_cycles_rejected(self):
        with pytest.raises(SimulationError):
            BlockResult(cycles=-1, products=0)

    def test_negative_products_rejected(self):
        with pytest.raises(SimulationError):
            BlockResult(cycles=1, products=-5)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro.errors import ConvergenceError, ShapeError

        for exc in (FormatError, ShapeError, ConfigError, SimulationError, ConvergenceError):
            assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            COOMatrix((2, 2), [5], [0], [1.0])


class TestPaddingEdges:
    """Matrices whose shapes straddle block boundaries must stay exact."""

    @pytest.mark.parametrize("shape", [(1, 1), (15, 17), (16, 16), (17, 15), (33, 1)])
    def test_boundary_shapes(self, shape, rng):
        dense = rng.random(shape) * (rng.random(shape) < 0.5)
        bbc = BBCMatrix.from_dense(dense)
        assert bbc.to_dense().shape == shape
        assert np.allclose(bbc.to_dense(), dense)

    def test_padding_never_simulated(self, rng):
        """Padding cells past the true shape contribute zero products."""
        from repro.arch.unistc import UniSTC
        from repro.sim.engine import simulate_kernel

        dense = np.zeros((17, 17))
        dense[16, 16] = 1.0
        bbc = BBCMatrix.from_dense(dense)
        report = simulate_kernel("spmv", bbc, UniSTC())
        assert report.products == 1

    def test_block_count_for_boundary(self):
        coo = COOMatrix((17, 17), [0, 16], [0, 16], [1.0, 1.0])
        bbc = BBCMatrix.from_coo(coo)
        assert bbc.nblocks == 2
        assert bbc.block_rows == 2
