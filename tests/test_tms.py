"""Tests for the Tile Multiply Scheduler."""

import numpy as np
import pytest

from repro.arch.config import UniSTCConfig
from repro.arch.tms import ORDERINGS, TileMultiplyScheduler, tile_products_batch
from repro.errors import SimulationError

from tests.stepped_models import tile_products


@pytest.fixture
def tms():
    return TileMultiplyScheduler(UniSTCConfig())


def _dense_products():
    """All 64 T3 tasks at the 64-product maximum (a dense block)."""
    a_cols = np.full((4, 4, 4), 4, dtype=np.int64)
    b_rows = np.full((4, 4, 4), 4, dtype=np.int64)
    return tile_products(a_cols, b_rows)


class TestTileProducts:
    def test_dense(self):
        prod = _dense_products()
        assert prod.shape == (4, 4, 4)
        assert (prod == 64).all()

    def test_empty(self):
        zero = np.zeros((4, 4, 4), dtype=np.int64)
        assert tile_products(zero, zero).sum() == 0

    def test_formula(self, rng):
        """The per-block oracle and the production batched matmul both
        count sum_kk |A col kk| * |B row kk| per tile triple."""
        a_cols = rng.integers(0, 5, size=(4, 4, 4))
        b_rows = rng.integers(0, 5, size=(4, 4, 4))
        prod = tile_products(a_cols, b_rows)
        assert np.array_equal(tile_products_batch(a_cols[None], b_rows[None])[0], prod)
        for k in range(4):
            for i in range(4):
                for j in range(4):
                    expected = int((a_cols[i, k] * b_rows[k, j]).sum())
                    assert prod[k, i, j] == expected

    def test_vector_operand(self, rng):
        a_cols = rng.integers(0, 5, size=(4, 4, 4))
        b_rows = rng.integers(0, 2, size=(4, 1, 4))
        prod = tile_products(a_cols, b_rows)
        assert prod.shape == (4, 4, 1)
        assert np.array_equal(tile_products_batch(a_cols[None], b_rows[None])[0], prod)


class TestTaskGeneration:
    def test_one_task_per_nonzero_position(self, tms, rng):
        products = rng.integers(0, 3, size=(4, 4, 4))
        layers = tms.generate_tasks(products)
        total = sum(len(layer) for layer in layers)
        assert total == int((products > 0).sum())

    def test_task_products_recorded(self, tms):
        products = np.zeros((4, 4, 4), dtype=np.int64)
        products[2, 1, 3] = 17
        layers = tms.generate_tasks(products)
        task = layers[2][0]
        assert (task.i, task.j, task.k, task.products) == (1, 3, 2, 17)


class TestOrdering:
    def test_outer_order_is_layer_major(self, tms):
        layers = tms.generate_tasks(_dense_products())
        ordered = tms.order_tasks(layers, "outer")
        ks = [t.k for t in ordered]
        assert ks == sorted(ks)

    def test_dot_order_groups_outputs(self, tms):
        layers = tms.generate_tasks(_dense_products())
        ordered = tms.order_tasks(layers, "dot")
        pairs = [(t.i, t.j) for t in ordered]
        assert pairs == sorted(pairs)

    def test_rowrow_order(self, tms):
        layers = tms.generate_tasks(_dense_products())
        ordered = tms.order_tasks(layers, "rowrow")
        keys = [(t.i, t.k, t.j) for t in ordered]
        assert keys == sorted(keys)

    def test_unknown_strategy(self, tms):
        with pytest.raises(SimulationError):
            tms.order_tasks([], "zigzag")

    def test_orderings_registry(self):
        assert set(ORDERINGS) == {"outer", "dot", "rowrow"}

    def test_adaptive_direction_column_major_for_tall(self):
        """More nonzero rows than columns -> column-major (§IV-A)."""
        tms = TileMultiplyScheduler(UniSTCConfig())
        products = np.zeros((4, 4, 4), dtype=np.int64)
        products[0, :, 0] = 5          # 4 rows, 1 column
        products[0, 0, 1] = 5
        ordered = tms.order_tasks(tms.generate_tasks(products), "outer")
        js = [t.j for t in ordered]
        assert js == sorted(js)        # column-major: j advances outermost

    def test_adaptive_direction_row_major_for_wide(self):
        tms = TileMultiplyScheduler(UniSTCConfig())
        products = np.zeros((4, 4, 4), dtype=np.int64)
        products[0, 0, :] = 5          # 1 row, 4 columns
        ordered = tms.order_tasks(tms.generate_tasks(products), "outer")
        is_ = [t.i for t in ordered]
        assert is_ == sorted(is_)


class TestDispatch:
    def test_dense_block_is_64_cycles(self, tms):
        outcome = tms.schedule(_dense_products())
        assert outcome.total_cycles == 64
        assert outcome.total_products == 4096

    def test_capacity_respected(self, tms, rng):
        products = rng.integers(0, 65, size=(4, 4, 4))
        outcome = tms.schedule(products)
        for cyc in outcome.cycles:
            assert cyc.products <= tms.config.macs

    def test_dpg_limit_respected(self, rng):
        tms = TileMultiplyScheduler(UniSTCConfig(num_dpgs=4, tile_queue_depth=8))
        products = rng.integers(0, 3, size=(4, 4, 4))
        outcome = tms.schedule(products)
        for cyc in outcome.cycles:
            assert cyc.tasks <= 4

    def test_no_same_cycle_write_conflicts(self, tms, rng):
        products = rng.integers(0, 3, size=(4, 4, 4))
        ordered = tms.order_tasks(tms.generate_tasks(products), "dot")
        outcome = tms.dispatch(ordered)
        # The dispatcher may stall but never co-schedules one output tile.
        for cyc in outcome.cycles:
            assert len(cyc.a_tiles) <= cyc.tasks

    def test_dot_order_conflicts_exceed_outer(self, tms):
        """Fig. 10: dot-product ordering suffers the most write conflicts."""
        gen = np.random.default_rng(0)
        dot_rate = outer_rate = 0.0
        for seed in range(10):
            g = np.random.default_rng(seed)
            products = (g.random((4, 4, 4)) < 0.6) * g.integers(1, 9, size=(4, 4, 4))
            layers = tms.generate_tasks(products)
            dot = tms.dispatch(tms.order_tasks(layers, "dot"))
            outer = tms.dispatch(tms.order_tasks(layers, "outer"))
            dot_rate += dot.conflict_rate()
            outer_rate += outer.conflict_rate()
        assert dot_rate > outer_rate

    def test_all_products_scheduled(self, tms, rng):
        for seed in range(5):
            g = np.random.default_rng(seed)
            products = g.integers(0, 10, size=(4, 4, 4))
            outcome = tms.schedule(products)
            assert outcome.total_products == int(products.sum())

    def test_conflict_stall_can_be_disabled(self, rng):
        cfg = UniSTCConfig(conflict_stall=False)
        tms = TileMultiplyScheduler(cfg)
        products = rng.integers(1, 3, size=(4, 4, 4))
        ordered = tms.order_tasks(tms.generate_tasks(products), "dot")
        outcome = tms.dispatch(ordered)
        assert outcome.conflict_cycles == 0


class TestOutcomeMetrics:
    def test_reuse_rate_bounds(self, tms, rng):
        products = rng.integers(0, 5, size=(4, 4, 4))
        outcome = tms.schedule(products)
        for op in ("a", "b"):
            assert 0.0 <= outcome.reuse_rate(op) <= 1.0

    def test_reuse_rate_rejects_bad_operand(self, tms):
        outcome = tms.schedule(_dense_products())
        with pytest.raises(ValueError):
            outcome.reuse_rate("c")

    def test_parallel_tasks_bounded_by_dpgs(self, tms, rng):
        products = rng.integers(0, 2, size=(4, 4, 4))
        outcome = tms.schedule(products)
        assert outcome.mean_parallel_tasks() <= tms.config.num_dpgs

    def test_aligned_tasks_bounded_by_parallel(self, tms, rng):
        products = rng.integers(0, 2, size=(4, 4, 4))
        outcome = tms.schedule(products)
        assert outcome.mean_aligned_tasks() <= outcome.mean_parallel_tasks() + 1e-9

    def test_empty_outcome_metrics(self, tms):
        outcome = tms.dispatch([])
        assert outcome.total_cycles == 0
        assert outcome.mean_parallel_tasks() == 0.0
        assert outcome.conflict_rate() == 0.0
