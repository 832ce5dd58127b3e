"""Tests for the simulation engine and reports."""

import numpy as np
import pytest

from repro.arch.base import ACTION_COL, VECTOR_WIDTH, STCModel
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC
from repro.errors import SimulationError
from repro.kernels.vector import SparseVector
from repro.sim import engine
from repro.sim.blockcache import BlockCache
from repro.sim.results import ComparisonRow, SimReport, compare, geomean

from tests.blocks import iter_tasks
from tests.conftest import make_block_task, task_batch
from tests.stepped import simulate_tasks, spgemm_tasks
from tests.stepped_models import BlockResult, simulate_block


class TestMemoisation:
    def test_cache_grows_and_clears(self, banded_bbc, uni):
        engine.clear_cache()
        engine.simulate_kernel("spmv", banded_bbc, uni)
        assert engine.cache_size() > 0
        engine.clear_cache()
        assert engine.cache_size() == 0

    def test_cached_rerun_identical(self, banded_bbc, uni):
        engine.clear_cache()
        first = engine.simulate_kernel("spgemm", banded_bbc, uni)
        second = engine.simulate_kernel("spgemm", banded_bbc, uni)
        assert first.cycles == second.cycles
        assert first.energy_pj == pytest.approx(second.energy_pj)

    def test_models_do_not_share_entries(self, banded_bbc):
        engine.clear_cache()
        engine.simulate_kernel("spmv", banded_bbc, UniSTC())
        size_one = engine.cache_size()
        engine.simulate_kernel("spmv", banded_bbc, DsSTC())
        assert engine.cache_size() > size_one


def _single_pair_batch(weights, n=16):
    return task_batch(make_block_task(0.3, 0.3, seed=21, n=n), weights)


class TestSimulateTasks:
    """Explicit weighted task batches through ``simulate_batches``."""

    def test_weights_scale_linearly(self, uni):
        engine.clear_cache()
        r1 = engine.simulate_batches(uni, [_single_pair_batch([1])])
        engine.clear_cache()
        r3 = engine.simulate_batches(uni, [_single_pair_batch([3])])
        assert r3.cycles == 3 * r1.cycles
        assert r3.products == 3 * r1.products
        assert r3.energy_pj == pytest.approx(3 * r1.energy_pj)
        assert r3.t1_tasks == 3

    def test_empty_stream(self, uni):
        report = engine.simulate_batches(uni, [_single_pair_batch([])])
        assert report.cycles == 0
        assert report.t1_tasks == 0

    def test_no_energy_model(self, uni):
        report = engine.simulate_batches(uni, [_single_pair_batch([2])],
                                         energy_model=None)
        assert report.energy_pj == 0.0
        assert report.energy_breakdown == {}


class TestSimulateKernel:
    def test_spgemm_task_totals(self, banded_bbc, uni):
        report = engine.simulate_kernel("spgemm", banded_bbc, uni)
        tasks = list(spgemm_tasks(banded_bbc, banded_bbc))
        assert report.t1_tasks == len(tasks)
        assert report.products == sum(t.intermediate_products() for t in tasks)

    def test_spmspv_operand_forwarded(self, banded_bbc, uni):
        x = SparseVector(banded_bbc.shape[1], [0, 64], [1.0, 1.0])
        report = engine.simulate_kernel("spmspv", banded_bbc, uni, x=x)
        full = engine.simulate_kernel("spmv", banded_bbc, uni)
        assert report.t1_tasks <= full.t1_tasks

    def test_matrix_label(self, banded_bbc, uni):
        report = engine.simulate_kernel("spmv", banded_bbc, uni, matrix="band")
        assert report.matrix == "band"

    def test_energy_breakdown_populated(self, banded_bbc, uni):
        report = engine.simulate_kernel("spmv", banded_bbc, uni)
        assert report.energy_pj > 0
        assert report.energy_pj == pytest.approx(sum(report.energy_breakdown.values()))


class _WeightSensitiveSTC(STCModel):
    """Misbehaving model whose block result leaks the task weight.

    Real models are weight-independent, so the historic bug of handing
    the coalesced aggregate weight to ``simulate_blocks`` was invisible
    with them; this model makes it observable."""

    name = "weight-spy"

    def simulate_blocks(self, batch):
        rows = np.zeros((len(batch), VECTOR_WIDTH), dtype=np.int64)
        rows[:, 0] = 10 * batch.weights
        rows[:, 1] = batch.weights
        rows[:, ACTION_COL["mac_ops"]] = 7 * batch.weights
        return rows

    @property
    def macs(self):
        return 64


class TestBatchedAggregation:
    def test_cache_misses_simulated_at_unit_weight(self):
        """The memoised block result must never absorb stream weights:
        the model sees weight=1, aggregation applies the weight."""
        stc = _WeightSensitiveSTC()
        cache = BlockCache()
        batch = _single_pair_batch([2, 3])  # coalesces to one pair, weight 5
        report = engine.simulate_batches(stc, [batch], cache=cache, energy_model=None)
        (cached,) = cache.values()
        cycles, products = np.frombuffer(cached, "<i8")[:2]
        assert cycles == 10 and products == 1
        assert report.cycles == 50 and report.products == 5
        assert report.t1_tasks == 5
        assert report.counters.get("mac_ops") == 35
        # And it matches the ground truth: the stream fully expanded to
        # five unit-weight tasks (weights exist only as a compression).
        expanded = [_single_pair_batch([1]) for _ in range(5)]
        reference = engine.simulate_batches(
            stc, expanded, cache=BlockCache(), energy_model=None
        )
        assert report.cycles == reference.cycles
        assert report.counters.as_dict() == reference.counters.as_dict()

    def test_int64_aggregation_exact_past_2_53(self):
        """Weighted totals beyond float64's 2^53 integer range stay
        exact: float64 accumulation would round them silently."""
        weight = (1 << 53) + 1
        batch = _single_pair_batch([weight])
        stc = UniSTC()
        report = engine.simulate_batches(stc, [batch], cache=BlockCache())
        block = simulate_block(stc, next(iter_tasks(batch)))
        assert block.products % 2 == 1  # odd, so the product below is odd
        exact = block.products * weight  # python ints: exact
        assert float(exact) != exact  # float64 could not have held this
        assert report.products == exact
        assert report.cycles == block.cycles * weight
        assert report.t1_tasks == weight
        assert np.array_equal(
            report.util_hist.bins,
            np.asarray(block.util_hist.bins, dtype=object) * weight,
        )

    def test_batched_totals_equal_per_task_reference(self, uni):
        batch = _single_pair_batch([1, 4, 2])
        fast = engine.simulate_batches(uni, [batch], cache=BlockCache())
        slow = simulate_tasks(uni, iter_tasks(batch), cache=BlockCache())
        assert fast.cycles == slow.cycles
        assert fast.products == slow.products
        assert fast.t1_tasks == slow.t1_tasks
        assert np.array_equal(fast.util_hist.bins, slow.util_hist.bins)
        assert fast.counters.as_dict() == slow.counters.as_dict()
        assert fast.energy_breakdown == slow.energy_breakdown

    def test_fractional_counter_raises(self):
        """Counts are integers by construction: the stepped oracle names
        a fractional count, and the engine rejects a model whose rows
        could carry one (not int64) by name instead of aggregating it."""
        result = BlockResult(cycles=4, products=2)
        result.counters.add("mac_ops", 1.5)
        with pytest.raises(SimulationError, match="mac_ops"):
            result.row()

        class FractionalSTC(_WeightSensitiveSTC):
            name = "fractional"

            def simulate_blocks(self, batch):
                rows = super().simulate_blocks(batch).astype(np.float64)
                rows[:, ACTION_COL["mac_ops"]] = 1.5
                return rows

        batch = _single_pair_batch([3])
        with pytest.raises(SimulationError, match="'fractional'"):
            engine.simulate_batches(FractionalSTC(), [batch], cache=BlockCache())

    @pytest.mark.parametrize("returned", ["results", "width", "dtype"])
    def test_simulate_blocks_must_return_int64_rows(self, returned):
        """A model returning one result per block instead of one array,
        or rows of the wrong width or dtype, is named instead of
        mis-aggregated."""
        class StaleSTC(_WeightSensitiveSTC):
            name = "stale-model"

            def simulate_blocks(self, batch):
                rows = super().simulate_blocks(batch)
                if returned == "results":
                    return list(rows)
                if returned == "width":
                    return rows[:, :-1]
                return rows.astype(np.float64)

        with pytest.raises(SimulationError, match="stale-model"):
            engine.simulate_batches(
                StaleSTC(), [_single_pair_batch([3])],
                cache=BlockCache(), energy_model=None,
            )


class TestSimReport:
    def test_speedup_and_energy_vs(self):
        fast = SimReport(stc="a", kernel="spmv", cycles=50, energy_pj=10.0)
        slow = SimReport(stc="b", kernel="spmv", cycles=100, energy_pj=30.0)
        assert fast.speedup_vs(slow) == 2.0
        assert fast.energy_reduction_vs(slow) == 3.0
        assert fast.energy_efficiency_vs(slow) == 6.0

    def test_speedup_of_empty_rejected(self):
        empty = SimReport(stc="a", kernel="spmv")
        other = SimReport(stc="b", kernel="spmv", cycles=10, energy_pj=1.0)
        with pytest.raises(SimulationError):
            empty.speedup_vs(other)

    def test_mean_utilisation(self, banded_bbc, uni):
        report = engine.simulate_kernel("spgemm", banded_bbc, uni)
        assert 0.0 < report.mean_utilisation <= 1.0

    def test_products_per_task(self):
        report = SimReport(stc="a", kernel="spmv", products=100, t1_tasks=4)
        assert report.products_per_task == 25.0


class TestGeomeanCompare:
    def test_geomean_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_empty(self):
        with pytest.raises(SimulationError):
            geomean([])

    def test_geomean_rejects_non_positive(self):
        with pytest.raises(SimulationError):
            geomean([1.0, 0.0])

    def test_compare_row(self):
        ours = [SimReport(stc="u", kernel="k", cycles=10, energy_pj=5.0),
                SimReport(stc="u", kernel="k", cycles=20, energy_pj=10.0)]
        base = [SimReport(stc="d", kernel="k", cycles=40, energy_pj=10.0),
                SimReport(stc="d", kernel="k", cycles=20, energy_pj=20.0)]
        row = compare(ours, base, "ds-stc")
        assert isinstance(row, ComparisonRow)
        assert row.max_speedup == 4.0
        assert row.avg_speedup == pytest.approx(2.0)
        assert row.avg_efficiency == pytest.approx(row.avg_speedup * row.avg_energy_reduction)

    def test_compare_rejects_mismatch(self):
        with pytest.raises(SimulationError):
            compare([], [], "x")
