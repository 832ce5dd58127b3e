"""Tests for streaming campaign telemetry (repro.obs.telemetry).

Covers the wire format (writer -> tailer round trips, the compact
metrics-delta encoding), the tailer's corruption/rotation hardening
(which mirrors the checkpoint-journal contract), the exactly-once
crash fold, the live status model, and trace stitching.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.obs.metrics import (
    MetricsRegistry,
    expand_delta,
    parse_wire_key,
    wire_key,
)
from repro.obs.stitch import stitch_chrome_trace, stitch_into_tracer
from repro.obs.telemetry import (
    STATUS_KIND,
    STATUS_SCHEMA,
    TELEMETRY_SCHEMA,
    CampaignMonitor,
    MetricsFold,
    TelemetryTailer,
    TelemetryWriter,
    check_status,
    fold_metrics,
    telemetry_path,
)
from repro.obs.tracer import Tracer


def make_writer(tmp_path, shard="s0", total=4, **kwargs):
    return TelemetryWriter(
        telemetry_path(tmp_path, shard), shard, total, **kwargs)


def progress(shard="s0", inst="a", seq=0, done=0, total=4,
             phase="running", metrics=None, t=0.0):
    """A hand-written progress record (snapshot-shaped metrics)."""
    record = {
        "v": TELEMETRY_SCHEMA, "kind": "progress", "shard": shard,
        "pid": 100, "inst": inst, "seq": seq, "t": t, "phase": phase,
        "done": done, "total": total,
    }
    if metrics is not None:
        record["metrics"] = metrics
    return record


def counters(**values):
    """Snapshot-shaped counter section: name -> unlabelled value."""
    return {"counters": {
        name: [{"labels": {}, "value": value}]
        for name, value in values.items()
    }}


class TestWriterTailerRoundTrip:
    def test_lifecycle_records_in_order(self, tmp_path):
        writer = make_writer(tmp_path)
        tailer = TelemetryTailer(telemetry_path(tmp_path, "s0"))
        writer.start()
        writer.case_done(1)
        writer.beat()
        writer.case_done(2)
        writer.finish()

        records = tailer.poll()
        assert [r["kind"] for r in records] == \
            ["beat", "progress", "beat", "progress", "progress"]
        assert [r["seq"] for r in records] == list(range(5))
        assert all(r["v"] == TELEMETRY_SCHEMA for r in records)
        assert all(r["shard"] == "s0" and r["total"] == 4 for r in records)
        assert records[-1]["phase"] == "finished"
        assert records[-1]["done"] == 2
        assert tailer.poll() == []   # nothing new

    def test_incremental_polls_see_only_new_records(self, tmp_path):
        writer = make_writer(tmp_path)
        tailer = TelemetryTailer(telemetry_path(tmp_path, "s0"))
        writer.start()
        assert len(tailer.poll()) == 1
        writer.case_done(1)
        writer.case_done(2)
        assert [r["done"] for r in tailer.poll()] == [1, 2]

    def test_missing_file_is_empty_not_an_error(self, tmp_path):
        assert TelemetryTailer(tmp_path / "nope.telemetry.jsonl").poll() == []

    def test_resume_start_carries_prior_done(self, tmp_path):
        writer = make_writer(tmp_path)
        writer.start(done=3)
        (record,) = TelemetryTailer(telemetry_path(tmp_path, "s0")).poll()
        assert record["phase"] == "starting" and record["done"] == 3

    def test_writer_survives_unwritable_path(self, tmp_path):
        writer = TelemetryWriter(
            tmp_path / "no_such_dir_file" / "x" / "s0.telemetry.jsonl",
            "s0", 1)
        # Parent mkdir succeeds, so make the path itself a directory.
        path = tmp_path / "adir"
        path.mkdir()
        writer._path = path
        writer.start()   # logged and swallowed, never raises
        writer.finish()


class TestTailerHardening:
    """Mirrors read_raw_journal's torn-write and rotation contract."""

    def path(self, tmp_path):
        return telemetry_path(tmp_path, "s0")

    def write_lines(self, path, *lines, mode="a"):
        with open(path, mode, encoding="utf-8") as handle:
            handle.write("".join(lines))

    def test_partial_trailing_line_is_held(self, tmp_path):
        path = self.path(tmp_path)
        full = json.dumps(progress(seq=0)) + "\n"
        torn = json.dumps(progress(seq=1))
        self.write_lines(path, full, torn[:20])
        tailer = TelemetryTailer(path)
        assert [r["seq"] for r in tailer.poll()] == [0]
        assert tailer.poll() == []          # still waiting for the newline
        self.write_lines(path, torn[20:] + "\n")
        assert [r["seq"] for r in tailer.poll()] == [1]

    def test_malformed_final_line_is_held_not_fatal(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, json.dumps(progress(seq=0)) + "\n",
                         '{"kind": "progre\n')
        tailer = TelemetryTailer(path)
        assert [r["seq"] for r in tailer.poll()] == [0]
        assert tailer.poll() == []          # torn write held un-consumed

    def test_garble_becomes_interior_and_raises_once_buried(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, json.dumps(progress(seq=0)) + "\n",
                         "not json at all\n")
        tailer = TelemetryTailer(path)
        tailer.poll()                       # garble held as a torn final line
        self.write_lines(path, json.dumps(progress(seq=1)) + "\n")
        with pytest.raises(TelemetryError, match="corrupt at byte"):
            tailer.poll()

    def test_interior_corruption_raises_immediately(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, "][\n", json.dumps(progress(seq=0)) + "\n")
        with pytest.raises(TelemetryError):
            TelemetryTailer(path).poll()

    def test_non_record_json_line_is_rejected(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, "[1, 2]\n", json.dumps(progress(seq=0)) + "\n")
        with pytest.raises(TelemetryError):
            TelemetryTailer(path).poll()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, "\n", json.dumps(progress(seq=0)) + "\n", "\n")
        assert [r["seq"] for r in TelemetryTailer(path).poll()] == [0]

    def test_truncation_resets_and_seen_set_dedups(self, tmp_path):
        path = self.path(tmp_path)
        first = json.dumps(progress(seq=0, done=1)) + "\n"
        second = json.dumps(progress(seq=1, done=2)) + "\n"
        self.write_lines(path, first, second)
        tailer = TelemetryTailer(path)
        assert len(tailer.poll()) == 2

        # Rotation rewrites the file shorter, starting with an
        # already-seen line: the reset re-reads it, the seen-set drops
        # it, and only the genuinely new record comes out.
        self.write_lines(path, first, mode="w")
        assert tailer.poll() == []
        assert tailer.rotations == 1
        fresh = json.dumps(progress(seq=2, done=3)) + "\n"
        self.write_lines(path, fresh)
        assert [r["seq"] for r in tailer.poll()] == [2]

    def test_vanished_file_counts_as_rotation(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, json.dumps(progress(seq=0)) + "\n")
        tailer = TelemetryTailer(path)
        assert len(tailer.poll()) == 1
        path.unlink()
        assert tailer.poll() == []
        assert tailer.rotations == 1
        self.write_lines(path, json.dumps(progress(seq=1)) + "\n")
        assert [r["seq"] for r in tailer.poll()] == [1]

    def test_interleaved_writers_share_one_file(self, tmp_path):
        """A respawned worker appends under a fresh incarnation token
        while the tailer is mid-stream; both streams come through."""
        path = self.path(tmp_path)
        a = TelemetryWriter(path, "s0", 4)
        tailer = TelemetryTailer(path)
        a.start()
        a.case_done(1)
        assert len(tailer.poll()) == 2

        b = TelemetryWriter(path, "s0", 4)   # fresh inst, same file
        b.start(done=1)
        a.case_done(2)                       # stale writer races a line in
        b.case_done(2)
        records = tailer.poll()
        assert len(records) == 3
        assert len({r["inst"] for r in records}) == 2
        # Per-incarnation seq restarts; (inst, seq) stays unique.
        keys = {(r["inst"], r["seq"]) for r in records}
        assert len(keys) == 3


class TestCompactWireForm:
    def test_wire_key_round_trip(self):
        key = wire_key("sim.cycles", (("kernel", "spmv"), ("stc", "uni")))
        assert parse_wire_key(key) == \
            ("sim.cycles", {"kernel": "spmv", "stc": "uni"})
        assert parse_wire_key(wire_key("bare", ())) == ("bare", {})

    def test_expand_delta_matches_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("c", 2, kernel="spmv")
        reg.set("g", 1.5)
        reg.observe("h", 0.02, stc="uni")
        expanded = expand_delta(reg.snapshot_delta())
        snap = reg.snapshot()
        assert expanded["counters"] == snap["counters"]
        assert expanded["gauges"] == snap["gauges"]
        assert expanded["histograms"] == snap["histograms"]

    def test_delta_is_json_clean_through_the_wire(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5)
        delta = json.loads(json.dumps(reg.snapshot_delta()))
        entry = expand_delta(delta)["histograms"]["h"][0]
        assert entry["bounds"][-1] is None
        assert len(entry["bounds"]) == len(entry["counts"])
        assert sum(entry["counts"]) == entry["count"] == 1


class TestMetricsFold:
    def test_within_incarnation_cumulative_overwrites(self):
        fold = MetricsFold()
        fold.apply(progress(seq=0, metrics=counters(cases=1.0)))
        fold.apply(progress(seq=1, metrics=counters(cases=2.0)))
        fold.apply(progress(seq=2, metrics=counters(cases=3.0)))
        assert fold.incarnations == 1
        assert fold.counter_total("cases") == 3.0

    def test_across_incarnations_final_states_add(self):
        """SIGKILL after case 2, respawn does 2 more: 2 + 2, not 2 + 4."""
        fold = MetricsFold()
        fold.apply(progress(inst="a", seq=0, metrics=counters(cases=1.0)))
        fold.apply(progress(inst="a", seq=1, metrics=counters(cases=2.0)))
        fold.apply(progress(inst="b", seq=0, metrics=counters(cases=1.0)))
        fold.apply(progress(inst="b", seq=1, metrics=counters(cases=2.0)))
        assert fold.incarnations == 2
        assert fold.counter_total("cases") == 4.0

    def test_non_progress_and_empty_records_are_ignored(self):
        fold = MetricsFold()
        fold.apply({"kind": "beat", "inst": "a", "seq": 0})
        fold.apply(progress(seq=1))   # no metrics payload
        assert fold.incarnations == 0

    def test_compact_form_is_expanded(self):
        reg = MetricsRegistry()
        reg.inc("sim.cycles", 90, kernel="spmv")
        fold = MetricsFold()
        fold.apply(progress(seq=0, metrics=reg.snapshot_delta()))
        assert fold.counter_total("sim.cycles") == 90

    def test_snapshot_tags_gauges_with_shard(self):
        fold = MetricsFold()
        fold.apply(progress(seq=0, metrics={
            "counters": {"c": [{"labels": {}, "value": 2.0}]},
            "gauges": {
                "cache.entries": [{"labels": {}, "value": 7.0}],
                "g2": [{"labels": {"shard": "explicit"}, "value": 3.0}],
            }}))
        snap = fold.snapshot(shard="s1")
        assert snap["gauges"]["cache.entries"] == \
            [{"labels": {"shard": "s1"}, "value": 7.0}]
        # A label already on the series wins over the tag.
        assert snap["gauges"]["g2"] == \
            [{"labels": {"shard": "explicit"}, "value": 3.0}]
        assert snap["counters"]["c"] == [{"labels": {}, "value": 2.0}]
        untagged = fold.snapshot()
        assert untagged["gauges"]["cache.entries"][0]["labels"] == {}

    def test_gauge_respawn_reading_supersedes(self):
        fold = MetricsFold()
        fold.apply(progress(inst="a", seq=0, metrics={
            "gauges": {"g": [{"labels": {}, "value": 1.0}]}}))
        fold.apply(progress(inst="b", seq=0, metrics={
            "gauges": {"g": [{"labels": {}, "value": 5.0}]}}))
        assert fold.snapshot()["gauges"]["g"][0]["value"] == 5.0

    def test_histograms_add_across_incarnations(self):
        def hist_delta(reg):
            return {"histograms":
                    expand_delta(reg.snapshot_delta())["histograms"]}

        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("wall", 0.5)
        a.observe("wall", 5.0)
        b.observe("wall", 0.05)
        fold = MetricsFold()
        fold.apply(progress(inst="a", seq=0, metrics=hist_delta(a)))
        fold.apply(progress(inst="b", seq=0, metrics=hist_delta(b)))
        (entry,) = fold.snapshot()["histograms"]["wall"]
        assert entry["count"] == 3
        assert sum(entry["counts"]) == 3
        assert entry["min"] == 0.05 and entry["max"] == 5.0

    def test_streamed_replay_equals_full_snapshot(self, tmp_path):
        """The tentpole identity: fold(tailed deltas) == registry state."""
        reg = MetricsRegistry()
        writer = make_writer(tmp_path, registry=reg)
        tailer = TelemetryTailer(telemetry_path(tmp_path, "s0"))
        writer.start()
        for case in range(1, 4):
            reg.inc("sim.t1_tasks", 10 * case, kernel="spmv")
            reg.inc("sim.cycles", 7, kernel="spmv", stc="uni")
            reg.observe("sim.run_wall_s", 0.01 * case)
            reg.set("sim.cache.entries", float(case))
            writer.case_done(case)
        writer.finish()

        folded = fold_metrics(tailer.poll())
        snap = reg.snapshot()
        assert folded["counters"] == snap["counters"]
        assert folded["histograms"] == snap["histograms"]
        assert folded["gauges"] == snap["gauges"]


class TestCampaignMonitor:
    def feed(self, monitor, tmp_path, shard, records):
        path = telemetry_path(tmp_path, shard)
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        monitor.add_shard(shard, path, total=records[-1].get("total"))

    def test_status_sums_shards_and_prior(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 100.0)
        monitor.campaign_total = 10
        monitor.prior_done = 2
        self.feed(monitor, tmp_path, "s0",
                  [progress(shard="s0", seq=0, done=3, total=4, t=99.0)])
        self.feed(monitor, tmp_path, "s1",
                  [progress(shard="s1", seq=0, done=1, total=4, t=99.5)])
        monitor.poll()
        doc = check_status(monitor.status())
        assert doc["state"] == "running"
        assert doc["done"] == 6 and doc["total"] == 10
        assert doc["prior_done"] == 2
        assert [s["shard"] for s in doc["shards"]] == ["s0", "s1"]
        assert doc["shards"][0]["age_s"] == pytest.approx(1.0)

    def test_done_state_requires_terminal_phases(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 10.0)
        self.feed(monitor, tmp_path, "s0", [
            progress(shard="s0", seq=0, done=2, total=2, phase="finished")])
        self.feed(monitor, tmp_path, "s1", [
            progress(shard="s1", seq=0, done=1, total=2, phase="running")])
        monitor.poll()
        assert monitor.status()["state"] == "running"
        self.feed(monitor, tmp_path, "s1", [
            progress(shard="s1", seq=1, done=2, total=2, phase="finished")])
        monitor.poll()
        assert monitor.status()["state"] == "done"

    def test_rate_eta_and_slow_flag(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 20.0)
        fast = [progress(shard="s0", seq=i, done=i, total=100, t=float(i))
                for i in range(11)]
        slow = [progress(shard="s1", seq=i, done=i, total=100, t=float(4 * i))
                for i in range(11)]
        self.feed(monitor, tmp_path, "s0", fast)
        self.feed(monitor, tmp_path, "s1", slow)
        monitor.poll()
        doc = monitor.status()
        by_id = {s["shard"]: s for s in doc["shards"]}
        assert by_id["s0"]["cases_per_s"] == pytest.approx(1.0)
        assert by_id["s1"]["cases_per_s"] == pytest.approx(0.25)
        assert by_id["s0"]["eta_s"] == pytest.approx(90.0)
        assert not by_id["s0"]["slow"] and by_id["s1"]["slow"]
        assert doc["cases_per_s"] == pytest.approx(1.25)

    def test_crash_count_is_extra_incarnations(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 0.0)
        self.feed(monitor, tmp_path, "s0", [
            progress(shard="s0", inst="a", seq=0, done=1),
            progress(shard="s0", inst="b", seq=0, done=2),
        ])
        monitor.poll()
        (shard,) = monitor.status()["shards"]
        assert shard["crashes"] == 1

    def test_corrupt_stream_freezes_shard_not_campaign(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 0.0)
        self.feed(monitor, tmp_path, "s0",
                  [progress(shard="s0", seq=0, done=1)])
        monitor.poll()   # the good record lands first
        path = telemetry_path(tmp_path, "s0")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n" + json.dumps(progress(seq=1)) + "\n")
        monitor.poll()   # interior garble -> shard frozen
        (shard,) = monitor.status()["shards"]
        assert shard["phase"] == "corrupt"
        assert shard["done"] == 1   # frozen at the last good record

    def test_discover_finds_workdir_telemetry(self, tmp_path):
        for shard in ("s0", "s1"):
            self.feed(CampaignMonitor(), tmp_path, shard,
                      [progress(shard=shard, seq=0)])
        monitor = CampaignMonitor()
        assert monitor.discover(tmp_path) == 2
        assert monitor.shard_ids == ["s0", "s1"]
        assert monitor.discover(tmp_path) == 0   # idempotent

    def test_fold_into_registry_tags_gauges_per_shard(self, tmp_path):
        monitor = CampaignMonitor()
        for shard, cycles in (("s0", 10.0), ("s1", 32.0)):
            self.feed(monitor, tmp_path, shard, [progress(
                shard=shard, seq=0, metrics={
                    **counters(cycles=cycles),
                    "gauges": {"g": [{"labels": {}, "value": cycles}]}})])
        monitor.poll()
        reg = MetricsRegistry()
        monitor.fold_into(reg)
        assert reg.counter("cycles").total == 42.0
        assert reg.gauge("g").value(shard="s0") == 10.0
        assert reg.gauge("g").value(shard="s1") == 32.0

    def test_write_status_round_trips_check_status(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 1.0)
        monitor.campaign_total = 4
        self.feed(monitor, tmp_path, "s0",
                  [progress(shard="s0", seq=0, done=4, total=4,
                            phase="finished")])
        monitor.poll()
        out = tmp_path / "status.json"
        monitor.write_status(out, state="done")
        doc = check_status(json.loads(out.read_text()))
        assert doc["state"] == "done" and doc["done"] == 4


class TestCheckStatus:
    def good(self):
        return {
            "kind": STATUS_KIND, "schema": STATUS_SCHEMA, "t": 0.0,
            "state": "done", "done": 3, "total": 3, "prior_done": 1,
            "shards": [
                {"shard": "s0", "phase": "finished", "done": 2, "total": 2},
            ],
        }

    def test_valid_document_passes(self):
        assert check_status(self.good())["done"] == 3

    def test_wrong_kind_rejected(self):
        with pytest.raises(TelemetryError, match="not a repro.exec.status"):
            check_status({"kind": "something-else"})

    def test_schema_mismatch_rejected(self):
        doc = self.good()
        doc["schema"] = 99
        with pytest.raises(TelemetryError, match="schema mismatch"):
            check_status(doc)

    def test_missing_shard_fields_rejected(self):
        doc = self.good()
        del doc["shards"][0]["done"]
        with pytest.raises(TelemetryError, match="missing"):
            check_status(doc)

    def test_done_sum_mismatch_rejected(self):
        doc = self.good()
        doc["done"] = 5
        with pytest.raises(TelemetryError, match="sum to"):
            check_status(doc)


class TestStitch:
    def streamed(self, tmp_path, shard, pid, epoch, spans):
        """Build a spans record the way a worker writer would."""
        tracer = Tracer()
        tracer.epoch_wall = epoch
        for name, ts, dur in spans:
            record = tracer.span(name, shard=shard)
            with record:
                pass
        drained, events = tracer.drain(0, 0)
        # Overwrite the measured timestamps with the controlled ones.
        payload = [
            {"name": s.name, "ts_us": ts, "dur_us": dur, "tid": s.tid,
             "depth": s.depth, "parent": s.parent, "args": dict(s.args)}
            for s, (name, ts, dur) in zip(drained, spans)
        ]
        return {
            "v": TELEMETRY_SCHEMA, "kind": "spans", "shard": shard,
            "pid": pid, "inst": f"{pid}-x", "seq": 0, "t": epoch,
            "phase": "running", "done": 0, "total": 1,
            "epoch_wall_s": epoch, "spans": payload, "events": [],
        }

    def test_distinct_pids_and_process_names(self, tmp_path):
        sup = Tracer()
        sup.epoch_wall = 1000.0
        with sup.span("exec.dispatch", shard="s0"):
            pass
        sup.instant("exec.worker_spawn", shard="s0")
        spans_by_shard = {
            "s0": [self.streamed(tmp_path, "s0", 111, 1000.5,
                                 [("simulate", 10.0, 5.0)])],
            "s1": [self.streamed(tmp_path, "s1", 222, 1001.0,
                                 [("simulate", 20.0, 7.0)])],
        }
        adopted = stitch_into_tracer(sup, spans_by_shard)
        assert adopted == 2
        trace = sup.chrome_trace()
        events = trace["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {sup.pid, 111, 222}
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"supervisor", "worker s0 (pid 111)",
                         "worker s1 (pid 222)"}
        assert any(e["ph"] == "i" and e["name"] == "exec.worker_spawn"
                   for e in events)

    def test_epoch_rebase_shifts_worker_timestamps(self, tmp_path):
        sup = Tracer()
        sup.epoch_wall = 1000.0
        record = self.streamed(tmp_path, "s0", 111, 1002.0,
                               [("simulate", 10.0, 5.0)])
        stitch_into_tracer(sup, {"s0": [record]})
        (span,) = [e for e in sup.chrome_trace()["traceEvents"]
                   if e["ph"] == "X"]
        # 2 s later epoch -> +2e6 us shift; duration untouched.
        assert span["ts"] == pytest.approx(10.0 + 2e6)
        assert span["dur"] == pytest.approx(5.0)

    def test_malformed_records_are_skipped(self, tmp_path):
        sup = Tracer()
        good = self.streamed(tmp_path, "s0", 111, sup.epoch_wall,
                             [("simulate", 1.0, 1.0)])
        missing_epoch = dict(good)
        del missing_epoch["epoch_wall_s"]
        adopted = stitch_into_tracer(
            sup, {"s0": [missing_epoch, good]})
        assert adopted == 1

    def test_standalone_stitch_without_supervisor(self, tmp_path):
        record = self.streamed(tmp_path, "s0", 111, 500.0,
                               [("simulate", 1.0, 1.0)])
        trace = stitch_chrome_trace({"s0": [record]})
        events = trace["traceEvents"]
        assert {e["pid"] for e in events if e["ph"] == "X"} == {111}
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"worker s0 (pid 111)"}
