"""Tests for the shard journal's writer and reader (repro.obs.journal)
and the telemetry read from it (repro.obs.telemetry).

Covers the record format (writer -> reader round trips, the compact
metrics-delta encoding), the reader's torn-tail contract and the
writer's torn-tail cut, the exactly-once crash fold, the live status
model, and trace stitching.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import CheckpointError, TelemetryError
from repro.obs.journal import JournalReader, JournalWriter
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
    CampaignMonitor,
    MetricsFold,
    check_status,
)
from repro.obs.tracer import Tracer
from repro.resilience.runner import journal_header


def journal_path(tmp_path, shard="s0"):
    return tmp_path / f"{shard}.journal"


def make_writer(tmp_path, shard="s0", total=4, registry=None, **kwargs):
    """An open worker writer (stamped: it has a registry)."""
    writer = JournalWriter(journal_path(tmp_path, shard),
                           registry=registry or MetricsRegistry(), **kwargs)
    writer.open(journal_header("fp", total))
    return writer


def entry(matrix="m0"):
    """A minimal journal entry for one finished case."""
    return {"case": {"matrix": matrix, "stc": "uni-stc", "kernel": "spmv"},
            "status": "ok", "attempts": 1, "elapsed_s": 0.0}


def case(matrix="m0", inst="a", seq=0, t=0.0, metrics=None):
    """A hand-written stamped case record, stamped ``t`` seconds."""
    record = {**entry(matrix), "inst": inst, "seq": seq,
              "t_us": round(t * 1e6)}
    if metrics is not None:
        record["metrics"] = metrics
    return record


def beat(inst="a", seq=0, phase="running", t=0.0):
    return {"kind": "beat", "inst": inst, "seq": seq,
            "t_us": round(t * 1e6), "pid": 100, "phase": phase}


def counters(**values):
    """A compact-delta counter section: name -> unlabelled value."""
    return {"c": dict(values)}


class TestWriterTailerRoundTrip:
    def test_lifecycle_records_in_order(self, tmp_path):
        writer = make_writer(tmp_path)
        reader = JournalReader(journal_path(tmp_path))
        writer.beat("starting")
        writer.append(entry("m0"))
        writer.beat()
        writer.append(entry("m1"))
        writer.close("finished")

        header, *records = reader.poll()
        assert header == journal_header("fp", 4)
        assert [r.get("kind", "case") for r in records] == \
            ["beat", "case", "beat", "case", "beat"]
        assert [r["seq"] for r in records] == list(range(5))
        assert {r["inst"] for r in records} == {writer.inst}
        assert all(isinstance(r["t_us"], int) for r in records)
        assert records[-1]["phase"] == "finished"
        assert reader.poll() == []   # nothing new

    def test_incremental_polls_see_only_new_records(self, tmp_path):
        writer = make_writer(tmp_path)
        reader = JournalReader(journal_path(tmp_path))
        assert len(reader.poll()) == 1   # the header
        writer.append(entry("m0"))
        writer.append(entry("m1"))
        assert [r["case"]["matrix"] for r in reader.poll()] == ["m0", "m1"]

    def test_missing_file_is_empty_not_an_error(self, tmp_path):
        assert JournalReader(tmp_path / "nope.journal").poll() == []

    def test_resume_start_carries_prior_done(self, tmp_path):
        """A respawn writes nothing for the cases it resumes: its status
        still counts the predecessor's journaled cases."""
        first = make_writer(tmp_path)
        for matrix in ("m0", "m1", "m2"):
            first.append(entry(matrix))   # then SIGKILLed: no close
        second = make_writer(tmp_path)
        second.beat("starting")
        monitor = CampaignMonitor()
        monitor.add_shard("s0", journal_path(tmp_path))
        monitor.poll()
        (shard,) = monitor.status()["shards"]
        assert (shard["phase"], shard["done"], shard["total"]) == \
            ("starting", 3, 4)
        assert shard["crashes"] == 1

    def test_writer_survives_unwritable_path(self, tmp_path):
        path = tmp_path / "adir"
        path.mkdir()
        writer = JournalWriter(path, registry=MetricsRegistry())
        with pytest.raises(OSError):
            writer.open(journal_header("fp", 1))   # the journal must exist
        writer.beat()          # telemetry never raises...
        writer.close("finished")

        writer = make_writer(tmp_path)
        os.close(writer._fd)
        writer._fd = os.open(journal_path(tmp_path), os.O_RDONLY)
        writer.beat()          # ...not even when a write fails,
        with pytest.raises(OSError):
            writer.append(entry())   # but a case record must land
        writer.close("finished")

    def test_plain_writer_appends_json_dumps_bytes(self, tmp_path):
        """A campaign journal's bytes: the header and bare entries."""
        path = tmp_path / "campaign.journal"
        writer = JournalWriter(path)
        writer.open(journal_header("fp", 2), fresh=True)
        writer.append(entry("m0"))
        writer.beat()   # not a worker's writer: no telemetry records
        writer.close("finished")
        assert path.read_text() == "".join(
            json.dumps(doc) + "\n"
            for doc in (journal_header("fp", 2), entry("m0")))

    def test_writer_cuts_a_torn_tail_before_its_first_append(self, tmp_path):
        writer = make_writer(tmp_path)
        writer.append(entry("m0"))
        writer.close()
        path = journal_path(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole + json.dumps(entry("m1")).encode()[:25])

        respawn = make_writer(tmp_path)   # the cut happens at open
        assert path.read_bytes() == whole
        respawn.append(entry("m1"))
        records = JournalReader(path).poll()
        assert [r["case"]["matrix"] for r in records[1:]] == ["m0", "m1"]


class TestTailerHardening:
    """The reader's torn-tail contract."""

    def path(self, tmp_path):
        return journal_path(tmp_path)

    def write_lines(self, path, *lines, mode="a"):
        with open(path, mode, encoding="utf-8") as handle:
            handle.write("".join(lines))

    def test_partial_trailing_line_is_held(self, tmp_path):
        path = self.path(tmp_path)
        full = json.dumps(case(seq=0)) + "\n"
        torn = json.dumps(case(seq=1))
        self.write_lines(path, full, torn[:20])
        reader = JournalReader(path)
        assert [r["seq"] for r in reader.poll()] == [0]
        assert reader.poll() == []          # still waiting for the newline
        self.write_lines(path, torn[20:] + "\n")
        assert [r["seq"] for r in reader.poll()] == [1]

    def test_malformed_final_line_is_held_not_fatal(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, json.dumps(case(seq=0)) + "\n",
                         '{"case": {"matr\n')
        reader = JournalReader(path)
        assert [r["seq"] for r in reader.poll()] == [0]
        assert reader.poll() == []          # torn write held un-consumed

    def test_garble_becomes_interior_and_raises_once_buried(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, json.dumps(case(seq=0)) + "\n",
                         "not json at all\n")
        reader = JournalReader(path)
        reader.poll()                       # garble held as a torn final line
        self.write_lines(path, json.dumps(case(seq=1)) + "\n")
        with pytest.raises(CheckpointError, match="corrupt at line 2"):
            reader.poll()

    def test_interior_corruption_raises_immediately(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, "][\n", json.dumps(case(seq=0)) + "\n")
        with pytest.raises(CheckpointError, match="line 1"):
            JournalReader(path).poll()

    def test_non_record_json_line_is_rejected(self, tmp_path):
        path = self.path(tmp_path)
        bad_case = {"case": {"matrix": "m0"}, "status": "ok"}
        for line in ([1, 2], bad_case):
            self.write_lines(path, json.dumps(line) + "\n",
                             json.dumps(case(seq=0)) + "\n", mode="w")
            with pytest.raises(CheckpointError):
                JournalReader(path).poll()

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, "\n", json.dumps(case(seq=0)) + "\n", "\n")
        assert [r["seq"] for r in JournalReader(path).poll()] == [0]

    def test_truncation_resets_and_seen_set_dedups(self, tmp_path):
        path = self.path(tmp_path)
        first = json.dumps(case("m0", seq=0)) + "\n"
        second = json.dumps(case("m1", seq=1)) + "\n"
        self.write_lines(path, first, second)
        reader = JournalReader(path)
        assert len(reader.poll()) == 2

        # The file is rewritten shorter, starting with an already-seen
        # record: the reader starts over, the seen-set drops that
        # record, and only the genuinely new one comes out.
        self.write_lines(path, first, mode="w")
        assert reader.poll() == []
        self.write_lines(path, json.dumps(case("m2", seq=2)) + "\n")
        assert [r["seq"] for r in reader.poll()] == [2]

    def test_vanished_file_counts_as_rotation(self, tmp_path):
        path = self.path(tmp_path)
        self.write_lines(path, json.dumps(case(seq=0)) + "\n")
        reader = JournalReader(path)
        assert len(reader.poll()) == 1
        path.unlink()
        assert reader.poll() == []
        self.write_lines(path, json.dumps(case(seq=1)) + "\n")
        assert [r["seq"] for r in reader.poll()] == [1]

    def test_interleaved_writers_share_one_file(self, tmp_path):
        """A respawned worker appends under a fresh incarnation token
        while the reader is mid-stream; both streams come through."""
        a = make_writer(tmp_path)
        reader = JournalReader(journal_path(tmp_path))
        a.beat("starting")
        a.append(entry("m0"))
        assert len(reader.poll()) == 3

        b = make_writer(tmp_path)   # fresh inst, same file
        b.beat("starting")
        a.append(entry("m1"))       # stale writer races a record in
        b.append(entry("m1"))
        records = reader.poll()
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
        fold.apply(case(seq=0, metrics=counters(cases=1.0)))
        fold.apply(case(seq=1, metrics=counters(cases=2.0)))
        fold.apply(case(seq=2, metrics=counters(cases=3.0)))
        assert fold.incarnations == 1
        assert fold.counter_total("cases") == 3.0

    def test_across_incarnations_final_states_add(self):
        """SIGKILL after case 2, respawn does 2 more: 2 + 2, not 2 + 4."""
        fold = MetricsFold()
        fold.apply(case(inst="a", seq=0, metrics=counters(cases=1.0)))
        fold.apply(case(inst="a", seq=1, metrics=counters(cases=2.0)))
        fold.apply(case(inst="b", seq=0, metrics=counters(cases=1.0)))
        fold.apply(case(inst="b", seq=1, metrics=counters(cases=2.0)))
        assert fold.incarnations == 2
        assert fold.counter_total("cases") == 4.0

    def test_non_progress_and_empty_records_are_ignored(self):
        """Only records carrying a delta fold: a plain beat, a case
        record without metrics and the header do not."""
        fold = MetricsFold()
        fold.apply(beat(seq=0))
        fold.apply(case(seq=1))   # no metrics payload
        fold.apply(journal_header("fp", 1))
        assert fold.incarnations == 0

    def test_compact_form_is_expanded(self):
        reg = MetricsRegistry()
        reg.inc("sim.cycles", 90, kernel="spmv")
        fold = MetricsFold()
        fold.apply(case(seq=0, metrics=reg.snapshot_delta()))
        assert fold.counter_total("sim.cycles") == 90

    def test_snapshot_tags_gauges_with_shard(self):
        fold = MetricsFold()
        fold.apply(case(seq=0, metrics={
            "c": {"c": 2.0},
            "g": {"cache.entries": 7.0,
                  wire_key("g2", (("shard", "explicit"),)): 3.0}}))
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
        fold.apply(case(inst="a", seq=0, metrics={"g": {"g": 1.0}}))
        fold.apply(case(inst="b", seq=0, metrics={"g": {"g": 5.0}}))
        assert fold.snapshot()["gauges"]["g"][0]["value"] == 5.0

    def test_histograms_add_across_incarnations(self):
        def hist_delta(reg):
            return {"h": reg.snapshot_delta()["h"]}

        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("wall", 0.5)
        a.observe("wall", 5.0)
        b.observe("wall", 0.05)
        fold = MetricsFold()
        fold.apply(case(inst="a", seq=0, metrics=hist_delta(a)))
        fold.apply(case(inst="b", seq=0, metrics=hist_delta(b)))
        (entry,) = fold.snapshot()["histograms"]["wall"]
        assert entry["count"] == 3
        assert sum(entry["counts"]) == 3
        assert entry["min"] == 0.05 and entry["max"] == 5.0

    def test_streamed_replay_equals_full_snapshot(self, tmp_path):
        """The tentpole identity: fold(journaled deltas) == registry."""
        reg = MetricsRegistry()
        writer = make_writer(tmp_path, registry=reg)
        writer.beat("starting")
        for n in range(1, 4):
            reg.inc("sim.t1_tasks", 10 * n, kernel="spmv")
            reg.inc("sim.cycles", 7, kernel="spmv", stc="uni")
            reg.observe("sim.run_wall_s", 0.01 * n)
            reg.set("sim.cache.entries", float(n))
            writer.append(entry(f"m{n}"))
        reg.inc("store.flushes")   # after the last case
        writer.close("finished")

        fold = MetricsFold()
        for record in JournalReader(journal_path(tmp_path)).poll():
            fold.apply(record)
        folded, snap = fold.snapshot(), reg.snapshot()
        assert folded["counters"] == snap["counters"]
        assert folded["histograms"] == snap["histograms"]
        assert folded["gauges"] == snap["gauges"]
        # The terminal beat carried the delta written after the last case.
        assert fold.counter_total("store.flushes") == 1


class TestCampaignMonitor:
    def feed(self, monitor, tmp_path, shard, records, total=4):
        """Append records to a shard journal (its header first)."""
        path = journal_path(tmp_path, shard)
        with open(path, "a", encoding="utf-8") as handle:
            if handle.tell() == 0:
                handle.write(json.dumps(journal_header("fp", total)) + "\n")
            for record in records:
                handle.write(json.dumps(record) + "\n")
        monitor.add_shard(shard, path)

    def test_status_sums_shards_and_prior(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 100.0)
        monitor.campaign_total = 10
        monitor.prior_done = 2
        self.feed(monitor, tmp_path, "s0",
                  [case(f"m{i}", seq=i, t=99.0) for i in range(3)])
        self.feed(monitor, tmp_path, "s1", [case("m9", t=99.5)])
        monitor.poll()
        doc = check_status(monitor.status())
        assert doc["state"] == "running"
        assert doc["done"] == 6 and doc["total"] == 10
        assert doc["prior_done"] == 2
        assert [s["shard"] for s in doc["shards"]] == ["s0", "s1"]
        assert [s["total"] for s in doc["shards"]] == [4, 4]
        assert doc["shards"][0]["age_s"] == pytest.approx(1.0)

    def test_done_state_requires_terminal_phases(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 10.0)
        self.feed(monitor, tmp_path, "s0", [
            case("m0", seq=0), case("m1", seq=1),
            beat(seq=2, phase="finished")], total=2)
        self.feed(monitor, tmp_path, "s1", [case("m2", seq=0)], total=2)
        monitor.poll()
        assert monitor.status()["state"] == "running"
        self.feed(monitor, tmp_path, "s1", [
            case("m3", seq=1), beat(seq=2, phase="finished")])
        monitor.poll()
        assert monitor.status()["state"] == "done"

    def test_rate_eta_and_slow_flag(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 20.0)
        fast = [case(f"m{i}", seq=i, t=float(i)) for i in range(1, 11)]
        slow = [case(f"m{i}", seq=i, t=float(4 * i)) for i in range(1, 11)]
        self.feed(monitor, tmp_path, "s0", fast, total=100)
        self.feed(monitor, tmp_path, "s1", slow, total=100)
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
            case("m0", inst="a", seq=0),
            case("m1", inst="b", seq=0),
        ])
        monitor.poll()
        (shard,) = monitor.status()["shards"]
        assert shard["crashes"] == 1
        assert shard["done"] == 2

    def test_corrupt_stream_freezes_shard_not_campaign(self, tmp_path):
        monitor = CampaignMonitor(clock=lambda: 0.0)
        self.feed(monitor, tmp_path, "s0", [case("m0", seq=0)])
        monitor.poll()   # the good record lands first
        path = journal_path(tmp_path, "s0")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n" + json.dumps(case("m1", seq=1)) + "\n")
        monitor.poll()   # interior garble -> shard frozen
        (shard,) = monitor.status()["shards"]
        assert shard["phase"] == "corrupt"
        assert shard["done"] == 1   # frozen at the last good record

    def test_discover_finds_workdir_telemetry(self, tmp_path):
        for shard in ("s0", "s1"):
            self.feed(CampaignMonitor(), tmp_path, shard, [case(seq=0)])
        monitor = CampaignMonitor()
        assert monitor.discover(tmp_path) == 2
        assert monitor.shard_ids == ["s0", "s1"]
        assert monitor.discover(tmp_path) == 0   # idempotent

    def test_fold_into_registry_tags_gauges_per_shard(self, tmp_path):
        monitor = CampaignMonitor()
        for shard, cycles in (("s0", 10.0), ("s1", 32.0)):
            self.feed(monitor, tmp_path, shard, [case(
                seq=0, metrics={**counters(cycles=cycles), "g": {"g": cycles}})])
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
                  [case(f"m{i}", seq=i) for i in range(4)]
                  + [beat(seq=4, phase="finished")])
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
            "kind": "spans", "inst": f"{pid}-x", "seq": 0,
            "t_us": round(epoch * 1e6), "pid": pid,
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
