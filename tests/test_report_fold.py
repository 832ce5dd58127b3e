"""Tests for the report fold: a run's measurement is its report.

The ``sim.*`` and ``store.{hits,misses,appends}`` series are rendered
from the metrics registry's report fold (``repro.obs.metrics``), fed
once per finished run.  These tests pin the rendered series to values
recorded from the per-run registry writes the fold replaced, check that
a run writes no registry series, exercise the fold's merge and wire
rows, and check that a multi-core fold prices its energy once.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.formats.bbc import BBCMatrix
from repro.kernels import KERNELS
from repro.obs.telemetry import MetricsFold
from repro.perf.bench import _cases
from repro.registry import create_stc, registered_stcs
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.sim.parallel import simulate_parallel
from repro.sim.results import SimReport
from repro.store import ResultStore
from repro.workloads.suitesparse import corpus
from repro.workloads.synthetic import random_uniform

GOLDEN = Path(__file__).parent / "golden" / "report_fold_series.json"


@pytest.fixture
def observed():
    """Observability on with a fresh registry; off again afterwards."""
    obs.enable(fresh=True)
    yield obs.metrics()
    obs.disable()


def small_cases():
    mats = [("r64", BBCMatrix.from_coo(random_uniform(64, 64, 0.08, seed=5))),
            ("r80", BBCMatrix.from_coo(random_uniform(80, 80, 0.05, seed=7)))]
    return _cases(mats, KERNELS)


def fold_series(snapshot):
    """The snapshot's sim.*/store.* series, JSON round-tripped, with
    each histogram reduced to its deterministic parts."""
    snap = json.loads(json.dumps(snapshot))
    out = {}
    for section in ("counters", "gauges", "histograms"):
        for name, entries in snap[section].items():
            if not name.startswith(("sim.", "store.")):
                continue
            if section == "histograms":
                rows = [[e["labels"], e["count"], sum(e["counts"]), e["bounds"],
                         [type(e[k]).__name__ for k in ("sum", "min", "max")]]
                        for e in entries]
            else:
                rows = [[e["labels"], e["value"], type(e["value"]).__name__]
                        for e in entries]
            out[f"{section}/{name}"] = rows
    return out


class TestRenderedSeries:
    def test_every_stc_and_kernel_renders_the_recorded_series(
            self, tmp_path, observed):
        """Names, labels, values, JSON types and wall-time counts equal
        those the per-run registry writes produced: a cold pass filling
        a store, then a store-warm pass through an 8-entry LRU."""
        cases = small_cases()
        with ResultStore(tmp_path / "store") as store:
            for name in registered_stcs():
                for capacity in (None, 8):
                    memo = BlockCache(capacity=capacity, store=store)
                    for matrix, bbc, kernel, operands in cases:
                        simulate_kernel(kernel, bbc, create_stc(name),
                                        matrix=matrix, cache=memo, **operands)
        assert fold_series(observed.snapshot()) == json.loads(GOLDEN.read_text())

    def test_a_run_writes_no_registry_series(self, tmp_path, observed):
        (_, bbc, kernel, operands), *_ = small_cases()
        observed.snapshot_delta()
        simulate_kernel(kernel, bbc, create_stc("uni-stc"), cache=BlockCache(),
                        **operands)
        assert observed.snapshot_delta() == {}
        assert json.loads(observed.record_delta_json())["r"]

        memo = BlockCache()
        simulate_kernel(kernel, bbc, create_stc("uni-stc"), cache=memo, **operands)
        key, row = next(iter(memo.items()))
        with ResultStore(tmp_path / "store") as store:
            observed.snapshot_delta()   # the store's open-time gauges
            assert store.insert(key, row) and store.lookup(key) == row
            assert store.lookup(key + 1) is None
            assert observed.snapshot_delta() == {}

    def test_store_appends_ride_the_cache_delta(self, tmp_path):
        (_, bbc, kernel, operands), *_ = small_cases()
        with ResultStore(tmp_path / "store") as store:
            cold = simulate_kernel(kernel, bbc, create_stc("uni-stc"),
                                   cache=BlockCache(store=store), **operands)
            warm = simulate_kernel(kernel, bbc, create_stc("uni-stc"),
                                   cache=BlockCache(store=store), **operands)
            assert cold.cache["store_appends"] == cold.cache["misses"] == len(store)
            assert warm.cache["store_appends"] == 0
            assert warm.cache["store_hits"] == len(store)


class TestFold:
    def test_merged_series_add_to_the_fold(self, observed):
        """A merged snapshot's run series add to the receiving
        registry's own fold when it renders them."""
        (_, bbc, kernel, operands), *_ = small_cases()
        simulate_kernel(kernel, bbc, create_stc("uni-stc"), cache=BlockCache(),
                        **operands)
        once = observed.snapshot()
        observed.merge(once)
        snap = observed.snapshot()
        for name, entries in once["counters"].items():
            assert [e["value"] * 2 for e in entries] == \
                [e["value"] for e in snap["counters"][name]]
        (entry,) = snap["histograms"]["sim.run_wall_s"]
        assert entry["count"] == 2
        assert entry["min"] == entry["max"] == once["histograms"]["sim.run_wall_s"][0]["min"]
        assert snap["gauges"] == once["gauges"]

    def test_record_rows_replay_to_the_registry(self, observed):
        """Rows overwrite within an incarnation and add across them."""
        fold = MetricsFold()
        for inst in ("a", "b"):
            obs.enable(fresh=True)
            for matrix, bbc, kernel, operands in small_cases()[:3]:
                simulate_kernel(kernel, bbc, create_stc("gamma"), cache=BlockCache(),
                                **operands)
                fold.apply({"inst": inst, "metrics": json.loads(
                    obs.metrics().record_delta_json())})
        folded = fold.snapshot()
        once = obs.metrics().snapshot()
        for name, entries in once["counters"].items():
            assert [2 * e["value"] for e in entries] == \
                [e["value"] for e in folded["counters"][name]], name
        assert folded["gauges"] == once["gauges"]
        assert [e["count"] for e in folded["histograms"]["sim.run_wall_s"]] == \
            [2 * e["count"] for e in once["histograms"]["sim.run_wall_s"]]


class TestParallelFoldPricesOnce:
    def test_four_core_fold_equals_the_serial_report(self):
        """Every counter and the energy, bit for bit: the fold prices
        the merged counters instead of adding the cores' energies."""
        mats = [(s.name, BBCMatrix.from_coo(s.build()))
                for s in corpus(sizes=(128,), families=("random",))]
        assert len(mats) >= 3
        for name in registered_stcs():
            memo = BlockCache()
            for matrix, bbc, kernel, operands in _cases(mats, KERNELS):
                serial = simulate_kernel(kernel, bbc, create_stc(name), cache=memo,
                                         **operands)
                folded = simulate_parallel(kernel, bbc, lambda: create_stc(name),
                                           n_cores=4, cache=memo, **operands).fold()
                case = (name, matrix, kernel)
                assert folded.counters.as_dict() == serial.counters.as_dict(), case
                # Every total but cycles, which follow the slowest core.
                assert np.array_equal(folded.totals[1:], serial.totals[1:]), case
                assert np.array_equal(folded.util_hist.bins, serial.util_hist.bins), case
                assert folded.t1_tasks == serial.t1_tasks, case
                assert folded.energy_breakdown == serial.energy_breakdown, case
                assert folded.energy_pj == serial.energy_pj, case
                for report in (serial, folded):
                    text = json.dumps(report.as_json())
                    back = SimReport.from_json(json.loads(text))
                    assert back.totals.dtype == np.int64, case
                    assert np.array_equal(back.totals, report.totals), case
                    assert all(type(n) is int for n in back.totals.tolist()), case
                    assert json.dumps(back.as_json()) == text, case
