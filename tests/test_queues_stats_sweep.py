"""Tests for queue modelling, matrix statistics and the sweep runner."""

import pytest

from repro.arch.config import UniSTCConfig
from repro.arch.queues import (
    HardwareQueue,
    generation_hides_latency,
    replay_queues,
)
from repro.arch.tms import TileMultiplyScheduler
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC
from repro.errors import SimulationError
from repro.sim.sweep import Sweep, SweepCase, geomean_speedups, rows_from_results
from repro.workloads.stats import compute_stats, coverage_summary, describe_corpus
from repro.workloads.synthetic import banded, long_rows, power_law, random_uniform

from tests.conftest import make_block_task
from tests.stepped_models import decode_a_operand, decode_b_operand, tile_products


class TestHardwareQueue:
    def test_fifo_order(self):
        q = HardwareQueue(4)
        for i in range(3):
            assert q.push(i)
        assert [q.pop(), q.pop(), q.pop()] == [0, 1, 2]

    def test_bounded(self):
        q = HardwareQueue(2)
        assert q.push(1) and q.push(2)
        assert not q.push(3)
        assert q.rejected_pushes == 1

    def test_pop_empty(self):
        assert HardwareQueue(2).pop() is None

    def test_stats(self):
        q = HardwareQueue(8, "tile")
        for i in range(5):
            q.push(i)
        q.pop()
        assert q.max_occupancy == 5
        assert q.total_pushes == 5
        assert q.total_pops == 1
        assert q.occupancy == 4

    def test_rejects_bad_depth(self):
        with pytest.raises(SimulationError):
            HardwareQueue(0)


class TestQueueReplay:
    def _schedule_counts(self, seed):
        task = make_block_task(0.3, 0.3, seed)
        _, a_cols = decode_a_operand(task.a_bitmap())
        _, b_rows, _ = decode_b_operand(task.b_bitmap())
        tms = TileMultiplyScheduler(UniSTCConfig())
        outcome = tms.schedule(tile_products(a_cols, b_rows))
        return [c.tasks for c in outcome.cycles]

    def test_default_rates_hide_latency(self):
        """§IV-G: generation outpaces consumption, READY rises cycle 0."""
        for seed in range(5):
            counts = self._schedule_counts(seed)
            trace = replay_queues(counts, t4_per_t3=2.0)
            assert generation_hides_latency(trace)

    def test_slow_generation_underflows(self):
        counts = [8] * 6
        trace = replay_queues(counts, t4_per_t3=2.0, generation_rate=2)
        assert trace.underflow_cycles > 0

    def test_occupancy_traced_per_cycle(self):
        counts = self._schedule_counts(1)
        trace = replay_queues(counts, t4_per_t3=2.0)
        assert trace.total_cycles == len(counts)
        assert all(o <= UniSTCConfig().tile_queue_depth for o in trace.tile_occupancy)

    def test_rejects_bad_rate(self):
        with pytest.raises(SimulationError):
            replay_queues([1], t4_per_t3=1.0, generation_rate=0)


class TestMatrixStats:
    def test_banded_profile(self):
        m = banded(128, 6, 1.0, seed=0)
        stats = compute_stats(m)
        assert stats.bandwidth <= 6
        assert stats.symmetry > 0.9
        assert stats.family_guess() == "banded"

    def test_powerlaw_profile(self):
        m = power_law(256, avg_row_nnz=6.0, seed=1)
        stats = compute_stats(m, measure_products=False)
        assert stats.row_imbalance > 1.0

    def test_arrow_has_heavy_rows(self):
        m = long_rows(128, heavy_rows=2, heavy_density=0.9,
                      background_density=0.01, seed=2)
        stats = compute_stats(m, measure_products=False)
        assert stats.max_row_nnz > 10 * stats.avg_row_nnz

    def test_density_axis_measured(self):
        m = random_uniform(64, 64, 0.3, seed=3)
        stats = compute_stats(m)
        assert stats.inter_products_per_task > 0

    def test_empty_matrix(self):
        from repro.formats.coo import COOMatrix

        stats = compute_stats(COOMatrix((8, 8), [], [], []))
        assert stats.nnz == 0
        assert stats.bandwidth == 0

    def test_describe_and_coverage(self):
        corpus = [
            ("band", banded(64, 4, 1.0, seed=0)),
            ("rand", random_uniform(64, 64, 0.02, seed=1)),
        ]
        profiles = describe_corpus(corpus)
        assert len(profiles) == 2
        summary = coverage_summary([s for _, s in profiles])
        lo, hi = summary["density"]
        assert lo < hi

    def test_corpus_spans_axes(self):
        """The DESIGN.md diversity claim, measured."""
        from repro.workloads.suitesparse import iter_matrices, small_corpus

        profiles = [compute_stats(m, measure_products=False)
                    for _, m in iter_matrices(small_corpus(limit=10))]
        summary = coverage_summary(profiles)
        assert summary["density"][1] / max(summary["density"][0], 1e-12) > 10
        assert summary["row_imbalance"][1] > 1.0


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Sweep(
            matrices={
                "band": banded(64, 8, 0.5, seed=0),
                "rand": random_uniform(64, 64, 0.1, seed=1),
            },
            stcs={"ds-stc": DsSTC, "uni-stc": UniSTC},
            kernels=("spmv", "spmspv"),
        )

    def test_case_grid(self, sweep):
        cases = sweep.cases()
        assert len(cases) == 2 * 2 * 2
        assert SweepCase("band", "uni-stc", "spmv") in cases

    def test_run_produces_all_cells(self, sweep):
        results = sweep.run()
        assert len(results) == 8
        assert all(r.report.cycles >= 1 for r in results)

    def test_progress_callback(self, sweep):
        seen = []
        sweep.run(progress=seen.append)
        assert len(seen) == 8

    def test_rows(self, sweep):
        from repro.sim.sweep import ROW_COLUMNS

        rows = rows_from_results(sweep.run())
        assert len(rows) == 8
        assert all(len(r) == len(ROW_COLUMNS) for r in rows)

    def test_geomean_speedups(self, sweep):
        results = sweep.run()
        speedups = geomean_speedups(results, "uni-stc", "ds-stc")
        assert set(speedups) == {"spmv", "spmspv"}
        assert all(v > 0.5 for v in speedups.values())

    def test_missing_baseline_rejected(self, sweep):
        results = [r for r in sweep.run() if r.case.stc_name == "uni-stc"]
        with pytest.raises(SimulationError):
            geomean_speedups(results, "uni-stc", "ds-stc")
