"""Tests for the zero-dependency metrics registry."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    label_key,
    wire_key,
)


class TestLabels:
    def test_canonical_order(self):
        assert label_key({"b": 1, "a": 2}) == (("a", "2"), ("b", "1"))

    def test_values_stringified(self):
        assert label_key({"k": 3.5}) == (("k", "3.5"),)


class TestCounter:
    def test_increments_accumulate(self):
        c = Counter("hits")
        c.inc(1, kernel="spmv")
        c.inc(2, kernel="spmv")
        c.inc(5, kernel="spmm")
        assert c.value(kernel="spmv") == 3
        assert c.value(kernel="spmm") == 5
        assert c.total == 8

    def test_unlabelled_series(self):
        c = Counter("n")
        c.inc()
        c.inc()
        assert c.value() == 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            Counter("n").inc(-1)

    def test_registry_inc_shortcut(self):
        reg = MetricsRegistry()
        reg.inc("a", 2, x=1)
        reg.inc("a", 3, x=1)
        assert reg.counter("a").value(x=1) == 5


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set("depth", 3, core=0)
        reg.set("depth", 7, core=0)
        assert reg.gauge("depth").value(core=0) == 7

    def test_missing_series_is_none(self):
        assert MetricsRegistry().gauge("g").value(core=9) is None


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        series = h.get()
        # <=1, <=1 (boundary inclusive), <=10, <=100, overflow
        assert series.counts == [2, 1, 1, 1]
        assert series.count == 5
        assert series.sum == pytest.approx(556.5)
        assert series.min == 0.5 and series.max == 500.0
        assert series.mean == pytest.approx(556.5 / 5)

    def test_default_bounds(self):
        h = Histogram("t")
        h.observe(0.5)
        assert h.bounds == DEFAULT_BUCKETS
        assert len(h.get().counts) == len(DEFAULT_BUCKETS) + 1

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ConfigError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_per_label_series(self):
        h = Histogram("t", bounds=(1.0,))
        h.observe(0.5, kernel="spmv")
        h.observe(2.0, kernel="spmm")
        assert h.get(kernel="spmv").counts == [1, 0]
        assert h.get(kernel="spmm").counts == [0, 1]


class TestRegistry:
    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.inc("c", 2, kernel="spmv")
        reg.set("g", 1.5)
        reg.observe("h", 0.02, stc="uni")
        snap = reg.snapshot()
        json.dumps(snap)  # must serialise without error
        assert snap["counters"]["c"] == [
            {"labels": {"kernel": "spmv"}, "value": 2.0}
        ]
        assert snap["gauges"]["g"][0]["value"] == 1.5
        assert snap["histograms"]["h"][0]["count"] == 1

    def test_snapshot_empty_after_reset(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.reset()
        assert reg.counter("c").total == 0

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("c", 4)
        path = tmp_path / "m.json"
        reg.write_json(path)
        assert json.loads(path.read_text())["counters"]["c"][0]["value"] == 4


class TestMerge:
    def test_counters_add_gauges_overwrite(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.inc("tasks", 10, kernel="spmv")
        worker.inc("tasks", 5, kernel="spmv")
        worker.inc("tasks", 7, kernel="spmm")
        main.set("occupancy", 0.2)
        worker.set("occupancy", 0.9)
        main.merge(worker)
        assert main.counter("tasks").value(kernel="spmv") == 15
        assert main.counter("tasks").value(kernel="spmm") == 7
        assert main.gauge("occupancy").value() == 0.9

    def test_histograms_add_bucketwise(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.histogram("lat", bounds=(1.0, 10.0)).observe(0.5)
        worker.histogram("lat", bounds=(1.0, 10.0)).observe(5.0)
        worker.histogram("lat", bounds=(1.0, 10.0)).observe(50.0)
        main.merge(worker)
        series = main.histogram("lat").get()
        assert series.counts == [1, 1, 1]
        assert series.count == 3
        assert series.min == 0.5 and series.max == 50.0

    def test_merge_accepts_plain_snapshot(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        worker.inc("n", 3)
        main.merge(json.loads(json.dumps(worker.snapshot())))
        assert main.counter("n").total == 3

    def test_parallel_worker_merge(self):
        """The join pattern: N worker registries fold into one."""
        main = MetricsRegistry()
        for core in range(4):
            worker = MetricsRegistry()
            worker.inc("core.tasks", 10 + core, core=core)
            worker.observe("core.wall_s", 0.001 * (core + 1))
            main.merge(worker)
        assert main.counter("core.tasks").total == 10 + 11 + 12 + 13
        assert main.histogram("core.wall_s").get().count == 4

    def test_bound_mismatch_rejected(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.histogram("h", bounds=(1.0,)).observe(0.5)
        worker.histogram("h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ConfigError):
            main.merge(worker)


class TestWireFormat:
    def test_snapshot_bounds_carry_the_inf_marker(self):
        """Regression: the overflow bucket must be visible on the wire —
        len(bounds) == len(counts) and bucket counts sum to count."""
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 10.0)).observe(0.5)
        reg.histogram("h").observe(500.0)   # lands in the overflow bucket
        (entry,) = reg.snapshot()["histograms"]["h"]
        assert entry["bounds"] == [1.0, 10.0, None]
        assert len(entry["bounds"]) == len(entry["counts"])
        assert sum(entry["counts"]) == entry["count"] == 2

    def test_merge_accepts_marked_and_legacy_bounds(self):
        """Snapshots written before the null marker existed still merge."""
        for bounds in ([1.0, 10.0], [1.0, 10.0, None]):
            reg = MetricsRegistry()
            reg.histogram("h", bounds=(1.0, 10.0)).observe(0.5)
            reg.merge({"histograms": {"h": [{
                "labels": {}, "bounds": bounds, "counts": [0, 1, 1],
                "sum": 55.0, "count": 2, "min": 5.0, "max": 50.0}]}})
            series = reg.histogram("h").get()
            assert series.counts == [1, 1, 1]
            assert series.count == 3


class TestSnapshotDelta:
    def test_only_dirty_series_are_emitted(self):
        reg = MetricsRegistry()
        reg.inc("a", 1)
        reg.inc("b", 1, kernel="spmv")
        assert reg.snapshot_delta() == {
            "c": {"a": 1.0, wire_key("b", (("kernel", "spmv"),)): 1.0}}
        reg.inc("a", 2)   # only "a" is dirty now
        assert reg.snapshot_delta() == {"c": {"a": 3.0}}

    def test_values_are_cumulative_not_increments(self):
        reg = MetricsRegistry()
        reg.inc("a", 1)
        reg.snapshot_delta()
        reg.inc("a", 1)
        assert reg.snapshot_delta()["c"]["a"] == 2.0

    def test_idle_registry_yields_empty_delta(self):
        reg = MetricsRegistry()
        assert reg.snapshot_delta() == {}
        reg.inc("a")
        reg.snapshot_delta()
        assert reg.snapshot_delta() == {}

    def test_histogram_packing_is_positional(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0,))
        reg.observe("h", 0.5)
        packed = reg.snapshot_delta()["h"]["h"]
        bounds, counts, total, count, lo, hi = packed
        assert bounds == [1.0, None] and counts == [1, 0]
        assert total == 0.5 and count == 1 and lo == hi == 0.5

    def test_gauge_delta_reflects_last_write(self):
        reg = MetricsRegistry()
        reg.set("g", 1.0)
        reg.set("g", 7.0)
        assert reg.snapshot_delta() == {"g": {"g": 7.0}}

    def test_merge_marks_series_dirty(self):
        """A supervisor that merges a worker snapshot must stream the
        merged histograms onward in its own next delta."""
        reg = MetricsRegistry()
        worker = MetricsRegistry()
        worker.observe("h", 0.5)
        reg.merge(worker)
        assert "h" in reg.snapshot_delta().get("h", {})
