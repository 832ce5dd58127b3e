"""Integration tests for the campaign executor (repro.exec.supervisor).

These spawn real ``repro worker`` subprocesses and inject failures
through the ``REPRO_WORKER_CHAOS`` hook, so they are slower than unit
tests but exercise the actual supervision machinery: crash respawn,
hard-kill deadlines, heartbeat-loss detection, poison bisection and
the deterministic journal join.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ReproError
from repro.exec import CampaignExecutor, ExecPolicy, StcDef, strip_wallclock
from repro.exec.worker import CHAOS_ENV
from repro.obs.telemetry import check_status
from repro.registry import parse_matrix_spec
from repro.resilience.runner import ResilientRunner, RetryPolicy
from repro.sim import engine
from repro.sim.sweep import Sweep
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    engine.clear_cache()
    yield
    engine.clear_cache()


@pytest.fixture
def metrics():
    obs.enable()
    yield obs.metrics()
    obs.disable()


MATRICES = {
    "m0": "band:48:4:0.5",
    "m1": "band:48:6:0.5",
    "m2": "band:48:8:0.5",
}


def make_executor(journal, matrices=MATRICES, policy=None, **kwargs):
    return CampaignExecutor(
        matrices=dict(matrices),
        stcs=[StcDef.plain("uni-stc")],
        kernels=["spmv"],
        journal_path=journal,
        policy=policy or ExecPolicy(),
        **kwargs,
    )


def normalised(journal):
    """(header, entries) with the wall-clock fields stripped."""
    lines = Path(journal).read_text(encoding="utf-8").splitlines()
    return (json.loads(lines[0]),
            [strip_wallclock(json.loads(line)) for line in lines[1:]])


def leaked_workers(fragment):
    """PIDs of live processes whose cmdline mentions ``fragment``."""
    pids = []
    for pid in Path("/proc").iterdir():
        if not pid.name.isdigit():
            continue
        try:
            cmdline = (pid / "cmdline").read_bytes()
        except OSError:
            continue
        if str(fragment).encode() in cmdline:
            pids.append(pid.name)
    return pids


class TestInProcessPath:
    def test_workers_zero_matches_a_direct_runner(self, tmp_path):
        """The degraded path is literally the plain ResilientRunner."""
        exec_journal = tmp_path / "exec.journal"
        summary = make_executor(exec_journal).run()
        assert summary.n_ok == len(MATRICES)

        direct_journal = tmp_path / "direct.journal"
        direct = ResilientRunner(
            sweep=Sweep.from_names(
                {n: parse_matrix_spec(s) for n, s in MATRICES.items()},
                ["uni-stc"], ["spmv"]),
            journal_path=direct_journal,
            retry=RetryPolicy(max_retries=1),
        ).run()
        assert [o.report.cycles for o in summary.outcomes] == \
            [o.report.cycles for o in direct.outcomes]
        assert normalised(exec_journal) == normalised(direct_journal)

    def test_popen_failure_degrades_to_in_process(self, tmp_path, monkeypatch):
        """No subprocess support at all still completes the campaign."""
        def no_subprocesses(*args, **kwargs):
            raise OSError("spawn forbidden")

        monkeypatch.setattr(subprocess, "Popen", no_subprocesses)
        journal = tmp_path / "campaign.journal"
        summary = make_executor(journal, policy=ExecPolicy(workers=2)).run()
        assert summary.n_ok == len(MATRICES)
        header, entries = normalised(journal)
        assert len(entries) == len(MATRICES)
        assert all(e["status"] == "ok" for e in entries)

    def test_bad_matrix_spec_fails_before_dispatch(self, tmp_path,
                                                   monkeypatch):
        """A spec that cannot parse is one error, not a worker crash
        retried and bisected down to quarantine in every shard."""
        def no_dispatch(*args, **kwargs):
            raise AssertionError("a worker was dispatched")

        monkeypatch.setattr(subprocess, "Popen", no_dispatch)
        executor = make_executor(tmp_path / "campaign.journal",
                                 matrices={"m0": "band:abc"},
                                 policy=ExecPolicy(workers=2))
        with pytest.raises(ReproError, match="bad matrix spec"):
            executor.run()


class TestDistributedIdentity:
    def test_sharded_run_matches_single_process(self, tmp_path):
        """2 workers produce the same journal bytes modulo wall clock."""
        single = tmp_path / "single.journal"
        make_executor(single).run()

        sharded = tmp_path / "sharded.journal"
        summary = make_executor(
            sharded, policy=ExecPolicy(workers=2)).run()
        assert summary.n_ok == len(MATRICES)
        assert normalised(sharded) == normalised(single)

    def test_shards_inherit_the_bound_store(self, tmp_path):
        """Workers write into the store the supervisor's process bound."""
        with ResultStore(tmp_path / "blockstore") as store, \
                engine.store_tier(store):
            summary = make_executor(tmp_path / "sharded.journal",
                                    policy=ExecPolicy(workers=2)).run()
            assert summary.n_ok == len(MATRICES)
            store.refresh()  # pick up the workers' segments
            assert len(store) > 0
            # An in-process rerun from an empty LRU is served entirely
            # by what the shards wrote.
            engine.clear_cache()
            before = store.stats.snapshot()
            make_executor(tmp_path / "replay.journal").run()
            delta = store.stats.delta(before)
            assert delta.hits > 0
            assert (delta.misses, delta.appends) == (0, 0)

    def test_distributed_resume_skips_finished_cases(self, tmp_path):
        journal = tmp_path / "campaign.journal"
        make_executor(journal, policy=ExecPolicy(workers=2)).run()
        before = journal.read_text()

        summary = make_executor(journal, resume=True,
                                policy=ExecPolicy(workers=2)).run()
        assert summary.n_ok == len(MATRICES)
        assert all(o.resumed for o in summary.outcomes)
        assert journal.read_text() == before  # nothing re-ran, no appends


class TestCrashRecovery:
    def test_sigkilled_worker_resumes_with_zero_resimulation(
            self, tmp_path, monkeypatch, metrics):
        """A worker SIGKILLed mid-shard respawns and picks up where the
        journal left off: every case lands in the campaign journal
        exactly once, with exactly one attempt."""
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(CHAOS_ENV, f"kill:m1:{marker}")
        journal = tmp_path / "campaign.journal"
        summary = make_executor(journal, policy=ExecPolicy(workers=1)).run()

        assert marker.exists()  # the chaos actually fired
        assert summary.n_ok == len(MATRICES)
        _, entries = normalised(journal)
        keys = [tuple(e["case"].values()) for e in entries]
        assert len(keys) == len(set(keys)) == len(MATRICES)
        assert all(e["attempts"] == 1 for e in entries)
        assert metrics.counter("exec.worker_crashes").total >= 1

    def test_hung_case_is_hard_killed_bisected_and_quarantined(
            self, tmp_path, monkeypatch, metrics):
        """A case that hangs forever blows the shard deadline, gets its
        worker killed for real, and after bisection is journaled as a
        poison failure — while its shard-mates still complete."""
        monkeypatch.setenv(CHAOS_ENV, "hang:m0")
        journal = tmp_path / "campaign.journal"
        policy = ExecPolicy(workers=1, shard_timeout_s=2.5,
                            term_grace_s=0.5, max_shard_retries=0,
                            heartbeat_misses=0)
        summary = make_executor(
            journal, matrices={"m0": MATRICES["m0"], "m1": MATRICES["m1"]},
            policy=policy).run()

        by_matrix = {o.case.matrix_name: o for o in summary.outcomes}
        assert by_matrix["m1"].status == "ok"
        poisoned = by_matrix["m0"]
        assert poisoned.status == "failed"
        assert poisoned.failure.taxonomy == "poison"
        assert poisoned.failure.type == "WorkerCrashError"

        kills = metrics.counter("exec.worker_kills")
        assert any("deadline" in dict(key).get("reason", "")
                   for key in kills.series)
        assert metrics.counter("exec.shards_bisected").total == 1
        assert metrics.counter("exec.cases_quarantined").total == 1
        # The timed-out workers are dead, not leaked.
        assert leaked_workers(journal.name + ".d") == []

    def test_busy_worker_keeps_beating(self, tmp_path, monkeypatch,
                                       metrics):
        """A worker stuck in one long case still beats on its shard
        journal, so only the shard deadline kills it — never the 2 s
        stale-journal watchdog."""
        monkeypatch.setenv(CHAOS_ENV, "hang:m0")
        journal = tmp_path / "campaign.journal"
        policy = ExecPolicy(workers=1, shard_timeout_s=4.0,
                            heartbeat_interval_s=0.2, heartbeat_misses=10,
                            term_grace_s=0.5, max_shard_retries=0)
        summary = make_executor(
            journal, matrices={"m0": MATRICES["m0"]}, policy=policy).run()

        (poisoned,) = summary.outcomes
        assert poisoned.status == "failed"
        assert poisoned.failure.taxonomy == "poison"
        reasons = [dict(key).get("reason", "") for key in
                   metrics.counter("exec.worker_kills").series]
        assert len(reasons) == 1 and "deadline" in reasons[0], reasons
        assert metrics.counter("exec.worker_kills").total == 1
        assert leaked_workers(journal.name + ".d") == []

    def test_heartbeat_loss_is_detected_and_killed(
            self, tmp_path, monkeypatch, metrics):
        """A SIGSTOPped worker dodges SIGTERM but not the heartbeat
        watchdog's SIGKILL; the respawn finishes the shard."""
        marker = tmp_path / "stop.marker"
        monkeypatch.setenv(CHAOS_ENV, f"stop:m0:{marker}")
        journal = tmp_path / "campaign.journal"
        policy = ExecPolicy(workers=1, heartbeat_interval_s=0.2,
                            heartbeat_misses=10, term_grace_s=0.3)
        summary = make_executor(
            journal, matrices={"m0": MATRICES["m0"], "m1": MATRICES["m1"]},
            policy=policy).run()

        assert marker.exists()
        assert summary.n_ok == 2
        kills = metrics.counter("exec.worker_kills")
        assert any("heartbeat" in dict(key).get("reason", "")
                   for key in kills.series)
        assert metrics.counter("exec.worker_crashes").total >= 1
        assert leaked_workers(journal.name + ".d") == []


class TestTelemetry:
    """The streaming-telemetry contract across the process boundary."""

    #: Counters whose per-label values are simulation-deterministic —
    #: identical however the campaign was sharded, crashed or resumed.
    #: (Cache and exec.* counters legitimately differ after a respawn.)
    DETERMINISTIC = ("sim.t1_tasks", "sim.cycles")

    def deterministic_series(self, registry):
        return {
            name: dict(registry.counter(name).series)
            for name in self.DETERMINISTIC
        }

    def run_campaign(self, tmp_path, name, workers=2):
        journal = tmp_path / f"{name}.journal"
        obs.enable()   # fresh registry per run
        summary = make_executor(
            journal, policy=ExecPolicy(workers=workers,
                                       heartbeat_interval_s=0.2)).run()
        return journal, summary, obs.metrics()

    def test_status_json_is_written_and_validates(self, tmp_path, metrics):
        journal, summary, _ = self.run_campaign(tmp_path, "campaign")
        assert summary.n_ok == len(MATRICES)
        status_path = tmp_path / "campaign.journal.d" / "status.json"
        doc = check_status(json.loads(status_path.read_text()))
        assert doc["state"] == "done"
        assert doc["done"] == doc["total"] == len(MATRICES)
        assert sum(s["done"] for s in doc["shards"]) == len(MATRICES)
        assert all(s["phase"] in ("finished",) for s in doc["shards"])

    def test_crashed_worker_metrics_match_a_clean_run(
            self, tmp_path, monkeypatch, metrics):
        """The satellite fix: a SIGKILLed worker's streamed metrics fold
        in exactly — the deterministic counters come out identical to an
        uncrashed campaign's, per label set."""
        _, _, clean = self.run_campaign(tmp_path, "clean", workers=1)
        clean_series = self.deterministic_series(clean)
        assert any(clean_series.values())   # the comparison is not vacuous

        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(CHAOS_ENV, f"kill:m1:{marker}")
        journal, summary, crashed = self.run_campaign(
            tmp_path, "crashed", workers=1)
        assert marker.exists() and summary.n_ok == len(MATRICES)
        assert crashed.counter("exec.worker_crashes").total >= 1
        assert self.deterministic_series(crashed) == clean_series

        doc = check_status(json.loads(
            (tmp_path / "crashed.journal.d" / "status.json").read_text()))
        assert sum(s["crashes"] for s in doc["shards"]) >= 1

    def test_stitched_trace_has_one_track_per_worker(
            self, tmp_path, metrics):
        journal, summary, _ = self.run_campaign(tmp_path, "traced")
        assert summary.n_ok == len(MATRICES)
        trace = obs.tracer().chrome_trace()
        events = trace["traceEvents"]
        worker_pids = {e["pid"] for e in events
                       if e["ph"] == "X" and e["pid"] != obs.tracer().pid}
        assert len(worker_pids) == 2
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "supervisor" in names
        assert sum(1 for n in names if n.startswith("worker ")) == 2
        assert any(e["name"] == "exec.dispatch" for e in events)

    def test_repro_top_status_json_one_shot(self, tmp_path, metrics, capsys):
        journal, summary, _ = self.run_campaign(tmp_path, "campaign")
        assert summary.n_ok == len(MATRICES)
        assert main(["top", str(journal), "--status-json"]) == 0
        doc = check_status(json.loads(capsys.readouterr().out))
        assert doc["state"] == "done"
        assert doc["done"] == len(MATRICES)

    def test_repro_top_renders_a_table(self, tmp_path, metrics, capsys):
        journal, summary, _ = self.run_campaign(tmp_path, "campaign")
        assert main(["top", str(journal), "--once"]) == 0
        printed = capsys.readouterr().out
        assert "campaign" in printed and "shard" in printed
        assert "s0" in printed and "s1" in printed

    def test_workdir_holds_only_journal_log_and_spec(self, tmp_path):
        """The shard journal is the one worker→supervisor channel: no
        telemetry, heartbeat or exit-time metrics files beside it."""
        journal = tmp_path / "campaign.journal"
        summary = make_executor(journal, policy=ExecPolicy(workers=2)).run()
        assert summary.n_ok == len(MATRICES)
        workdir = tmp_path / "campaign.journal.d"
        expected = {"status.json"} | {
            f"{shard}{suffix}" for shard in ("s0", "s1")
            for suffix in (".journal", ".log", ".spec.json")}
        assert {p.name for p in workdir.iterdir()} == expected


class TestDseDistributed:
    def space(self):
        from repro.dse import DesignSpace

        return DesignSpace.build({"num_dpgs": [2, 4]},
                                 ["band:48:4:0.5"], ["spmv"])

    def campaign(self, journal, resume=False):
        from repro.dse import Campaign, make_strategy

        return Campaign(self.space(), make_strategy("grid"),
                        journal_path=journal, resume=resume,
                        exec_policy=ExecPolicy(workers=2))

    def test_resume_replays_with_zero_resimulation(self, tmp_path, metrics):
        journal = tmp_path / "dse.journal"
        first = self.campaign(journal).run()
        assert first.n_simulated > 0 and first.n_resumed == 0
        out1 = tmp_path / "frontier1.json"
        first.write_json(out1)

        obs.enable()  # fresh registry: count only the resumed run
        second = self.campaign(journal, resume=True).run()
        assert second.n_simulated == 0
        assert second.n_resumed == first.n_simulated
        assert obs.metrics().counter("dse.points_simulated").total == 0
        assert obs.metrics().counter("dse.points_resumed").total == \
            second.n_resumed

        out2 = tmp_path / "frontier2.json"
        second.write_json(out2)
        assert out2.read_bytes() == out1.read_bytes()
