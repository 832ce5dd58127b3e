"""Integration tests: observability wired through engine, sweep, runner, CLI."""

import json

import pytest

from repro import obs
from repro.arch.unistc import UniSTC
from repro.cli import main
from repro.errors import SimulationError
from repro.resilience.runner import ResilientRunner, RetryPolicy
from repro.sim.blockcache import BlockCache, CacheStats
from repro.sim.engine import simulate_kernel
from repro.sim.parallel import simulate_parallel
from repro.sim.sweep import ROW_COLUMNS, Sweep, rows_from_results
from repro.workloads.synthetic import banded


@pytest.fixture(autouse=True)
def obs_reset():
    obs.enable(fresh=True)
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def sweep():
    return Sweep(
        matrices={"band": banded(64, 8, 0.4, seed=1),
                  "band2": banded(64, 6, 0.3, seed=2)},
        stcs={"uni-stc": UniSTC},
        kernels=["spmv"],
    )


class TestCacheStatsSnapshot:
    def test_snapshot_is_independent_copy(self):
        stats = CacheStats(hits=3, misses=2)
        snap = stats.snapshot()
        stats.hits = 10
        assert snap.hits == 3

    def test_delta(self):
        stats = CacheStats(hits=5, misses=4, evictions=1, inserts=4)
        snap = stats.snapshot()
        stats.hits += 2
        stats.misses += 1
        delta = stats.delta(snap)
        assert (delta.hits, delta.misses, delta.evictions, delta.inserts) == \
            (2, 1, 0, 0)
        assert delta.hit_rate == pytest.approx(2 / 3)


class TestPerRunReportFields:
    def test_wall_and_cache_attached(self, banded_bbc, uni):
        report = simulate_kernel("spmv", banded_bbc, uni, cache=BlockCache())
        assert report.wall_s > 0
        assert report.cache["misses"] > 0
        assert set(report.cache) == {"hits", "misses", "evictions",
                                     "inserts", "hit_rate"}

    def test_second_run_sees_only_its_own_hits(self, banded_bbc, uni):
        """Per-run deltas do not bleed across runs of a shared cache."""
        cache = BlockCache()
        first = simulate_kernel("spmv", banded_bbc, uni, cache=cache)
        second = simulate_kernel("spmv", banded_bbc, uni, cache=cache)
        assert first.cache["misses"] > 0
        assert second.cache["misses"] == 0
        assert second.cache["hit_rate"] == pytest.approx(1.0)
        assert second.cache_hit_rate == pytest.approx(1.0)

    def test_parallel_report_wall(self, banded_bbc):
        report = simulate_parallel("spmv", banded_bbc, UniSTC, n_cores=2,
                                   cache=BlockCache())
        assert report.wall_s == pytest.approx(
            sum(r.wall_s for r in report.per_core))


class TestSweepRows:
    def test_rows_include_wall_and_hit_rate(self, sweep):
        rows = rows_from_results(sweep.run())
        assert len(ROW_COLUMNS) == 8
        for row in rows:
            assert len(row) == len(ROW_COLUMNS)
            wall_s = row[ROW_COLUMNS.index("wall_s")]
            hit = row[ROW_COLUMNS.index("cache_hit_rate")]
            assert wall_s > 0
            assert 0.0 <= hit <= 1.0


class TestEngineSpans:
    def test_kernel_and_batch_spans_nest(self, banded_bbc, uni):
        obs.enable()
        simulate_kernel("spmv", banded_bbc, uni, cache=BlockCache())
        spans = obs.tracer().spans
        kernels = [s for s in spans if s.name == "kernel"]
        batches = [s for s in spans if s.name == "batch"]
        assert len(kernels) == 1
        assert batches and all(b.parent == "kernel" for b in batches)
        assert kernels[0].args["kernel"] == "spmv"

    def test_engine_metrics_emitted(self, banded_bbc, uni):
        obs.enable()
        simulate_kernel("spmv", banded_bbc, uni, cache=BlockCache())
        snap = obs.metrics().snapshot()
        assert "sim.t1_tasks" in snap["counters"]
        assert "sim.cache.misses" in snap["counters"]
        assert "sim.run_wall_s" in snap["histograms"]

    def test_parallel_core_spans(self, banded_bbc):
        obs.enable()
        simulate_parallel("spmv", banded_bbc, UniSTC, n_cores=3,
                          cache=BlockCache())
        spans = obs.tracer().spans
        cores = [s for s in spans if s.name == "core"]
        assert len(cores) == 3
        assert all(c.parent == "parallel" for c in cores)

    def test_disabled_leaves_no_records(self, banded_bbc, uni):
        simulate_kernel("spmv", banded_bbc, uni, cache=BlockCache())
        assert obs.tracer().spans == []


class TestRunnerEvents:
    def test_retry_emits_event_and_counter(self, sweep):
        calls = {"n": 0}
        original = sweep.run_case

        def flaky(case):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SimulationError("transient")
            return original(case)

        sweep.run_case = flaky
        obs.enable()
        runner = ResilientRunner(
            sweep, retry=RetryPolicy(max_retries=1, base_delay_s=0.0),
            sleep=lambda s: None,
        )
        summary = runner.run()
        assert summary.n_failed == 0
        events = [e.name for e in obs.tracer().events]
        assert "retry" in events
        assert obs.metrics().counter("runner.retries").total == 1
        attempts = [s for s in obs.tracer().spans if s.name == "case_attempt"]
        assert len(attempts) == len(sweep.cases()) + 1  # one retried

    def test_journal_roundtrips_wall_and_cache(self, sweep, tmp_path):
        journal = tmp_path / "journal.jsonl"
        ResilientRunner(sweep, journal_path=journal).run()
        resumed = ResilientRunner(
            sweep, journal_path=journal, resume=True).run()
        assert resumed.n_resumed == len(sweep.cases())
        for result in resumed.results:
            assert result.report.wall_s > 0
            assert "hit_rate" in result.report.cache

    def test_old_journals_without_new_fields_still_load(self, sweep, tmp_path):
        journal = tmp_path / "journal.jsonl"
        ResilientRunner(sweep, journal_path=journal).run()
        lines = journal.read_text().splitlines()
        rewritten = [lines[0]]
        for line in lines[1:]:
            entry = json.loads(line)
            entry["report"].pop("wall_s")
            entry["report"].pop("cache")
            rewritten.append(json.dumps(entry))
        journal.write_text("\n".join(rewritten) + "\n")
        resumed = ResilientRunner(
            sweep, journal_path=journal, resume=True).run()
        assert resumed.n_resumed == len(sweep.cases())
        assert all(r.report.wall_s == 0.0 for r in resumed.results)


class TestCLIArtifacts:
    def test_kernels_trace_and_metrics(self, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["kernels", "--matrix", "band:64:8:0.3",
                   "--kernel", "spmv", "--stc", "ds-stc,uni-stc",
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        assert not obs.enabled()  # CLI switches it back off
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"kernel", "batch"} <= names
        snap = json.loads(metrics.read_text())
        assert "sim.cycles" in snap["counters"]

    def test_corpus_trace_has_nested_hierarchy(self, tmp_path):
        trace = tmp_path / "corpus.json"
        rc = main(["corpus", "--limit", "2", "--kernel", "spmv",
                   "--stc", "ds-stc,uni-stc", "--trace", str(trace)])
        assert rc == 0
        events = json.loads(trace.read_text())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]

        def covers(a, b):
            return a["ts"] <= b["ts"] and a["ts"] + a["dur"] >= b["ts"] + b["dur"]

        by_name = {}
        for event in complete:
            by_name.setdefault(event["name"], []).append(event)
        for name in ("sweep", "matrix", "kernel", "batch"):
            assert by_name.get(name), f"missing {name} spans"
        (sweep_span,) = by_name["sweep"]
        assert all(covers(sweep_span, m) for m in by_name["matrix"])
        assert all(any(covers(m, k) for m in by_name["matrix"])
                   for k in by_name["kernel"])
        assert all(any(covers(k, b) for k in by_name["kernel"])
                   for b in by_name["batch"])

    def test_trace_jsonl_suffix(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(["kernels", "--matrix", "band:64:8:0.3", "--kernel", "spmv",
                   "--stc", "ds-stc,uni-stc", "--trace", str(trace)])
        assert rc == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r["name"] == "kernel" for r in rows)

    def test_profile_command(self, capsys):
        rc = main(["profile", "--matrix", "band:64:8:0.3",
                   "--kernel", "spmv", "--stc", "ds-stc,uni-stc",
                   "--repeat", "2"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "hottest spans" in printed
        assert "cache hit (%)" in printed
        assert not obs.enabled()

    def test_faults_metrics_flag(self, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main(["faults", "--matrix", "band:64:8:0.3", "--trials", "6",
                   "--metrics", str(metrics)])
        assert rc == 0
        json.loads(metrics.read_text())  # valid snapshot, content optional
