"""Tests for the fault-tolerant sweep runner (repro.resilience.runner)."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.arch.base import STCModel
from repro.arch.unistc import UniSTC
from repro.cli import main
from repro.errors import (
    CaseTimeoutError,
    CheckpointError,
    ConfigError,
    DataCorruptionError,
    FormatError,
    ShapeError,
    SimulationError,
)
from repro.resilience.runner import (
    ResilientRunner,
    RetryPolicy,
    classify_error,
)
from repro.sim import engine
from repro.sim.sweep import Sweep
from repro.store import ResultStore
from repro.workloads.synthetic import banded


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    engine.clear_cache()
    yield
    engine.clear_cache()


def make_sweep(n_matrices=2, kernels=("spmv",), stcs=None):
    matrices = {
        f"m{i}": banded(64, 6 + 2 * i, 0.5, seed=i) for i in range(n_matrices)
    }
    return Sweep(
        matrices=matrices,
        stcs=dict(stcs) if stcs else {"uni-stc": UniSTC},
        kernels=list(kernels),
    )


class BoomFactory:
    """A model factory that always fails with a chosen exception."""

    def __init__(self, exc_type=SimulationError, message="boom"):
        self.exc_type = exc_type
        self.message = message
        self.calls = 0

    def __call__(self):
        self.calls += 1
        raise self.exc_type(self.message)


class FlakyFactory:
    """Fails the first ``fail_times`` calls, then behaves like UniSTC."""

    def __init__(self, fail_times=1):
        self.fail_times = fail_times
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise SimulationError("transient glitch")
        return UniSTC()


class HangModel(STCModel):
    """Blocks inside simulate_blocks until an event is set."""

    name = "hang"

    def __init__(self, release: threading.Event):
        self.release = release

    def simulate_blocks(self, batch) -> np.ndarray:
        self.release.wait(timeout=30)
        raise SimulationError("released")

    @property
    def macs(self) -> int:
        return 256


class TestClassifyError:
    def test_taxonomy_labels(self):
        assert classify_error(CaseTimeoutError("t")) == "timeout"
        assert classify_error(DataCorruptionError("d")) == "corruption"
        assert classify_error(FormatError("f")) == "format"
        assert classify_error(ShapeError("s")) == "shape"
        assert classify_error(ConfigError("c")) == "config"
        assert classify_error(SimulationError("s")) == "simulation"
        assert classify_error(MemoryError()) == "resource"
        assert classify_error(RuntimeError("?")) == "unexpected"


class TestCleanRuns:
    def test_matches_plain_sweep(self):
        sweep = make_sweep(2)
        plain = {(r.case.matrix_name, r.case.kernel, r.case.stc_name): r.report.cycles
                 for r in make_sweep(2).run()}
        summary = ResilientRunner(sweep).run()
        assert summary.n_failed == 0
        assert summary.n_ok == len(sweep.cases())
        for result in summary.results:
            key = (result.case.matrix_name, result.case.kernel, result.case.stc_name)
            assert result.report.cycles == plain[key]

    def test_progress_callback_sees_every_case(self):
        sweep = make_sweep(2)
        seen = []
        ResilientRunner(sweep).run(progress=seen.append)
        assert len(seen) == len(sweep.cases())
        assert all(o.status == "ok" for o in seen)


class TestIsolationAndRetry:
    def test_failing_stc_does_not_abort_the_sweep(self):
        sweep = make_sweep(2, stcs={"boom": BoomFactory(), "uni-stc": UniSTC})
        summary = ResilientRunner(
            sweep, retry=RetryPolicy(max_retries=0), sleep=lambda s: None
        ).run()
        assert summary.n_failed == 2
        assert summary.n_ok == 2
        assert summary.taxonomy_counts() == {"simulation": 2}
        failure = summary.failures[0].failure
        assert failure.type == "SimulationError"
        assert "boom" in failure.message

    def test_transient_failure_retried_with_backoff(self):
        sweep = make_sweep(1, stcs={"flaky": FlakyFactory(fail_times=1)})
        sleeps = []
        policy = RetryPolicy(max_retries=2, base_delay_s=0.01, jitter=0.5)
        summary = ResilientRunner(sweep, retry=policy, sleep=sleeps.append).run()
        assert summary.n_failed == 0
        assert summary.outcomes[0].attempts == 2
        assert len(sleeps) == 1
        assert 0.01 <= sleeps[0] <= 0.01 * 1.5

    def test_retry_budget_is_bounded(self):
        boom = BoomFactory()
        sweep = make_sweep(1, stcs={"boom": boom})
        policy = RetryPolicy(max_retries=3, base_delay_s=0.0)
        summary = ResilientRunner(sweep, retry=policy, sleep=lambda s: None).run()
        assert summary.n_failed == 1
        assert summary.outcomes[0].attempts == 4
        assert boom.calls == 4

    def test_structural_errors_are_not_retried(self):
        boom = BoomFactory(exc_type=FormatError, message="bad bytes")
        sweep = make_sweep(1, stcs={"boom": boom})
        policy = RetryPolicy(max_retries=5, base_delay_s=0.0)
        summary = ResilientRunner(sweep, retry=policy, sleep=lambda s: None).run()
        assert summary.outcomes[0].attempts == 1
        assert summary.outcomes[0].failure.taxonomy == "format"

    def test_backoff_schedule_is_seeded(self):
        delays_a, delays_b = [], []
        policy = RetryPolicy(max_retries=3, base_delay_s=0.01)
        for sink in (delays_a, delays_b):
            sweep = make_sweep(1, stcs={"boom": BoomFactory()})
            ResilientRunner(sweep, retry=policy, seed=7, sleep=sink.append).run()
        assert delays_a == delays_b


class TestTimeouts:
    def test_hung_case_times_out_and_sweep_continues(self):
        release = threading.Event()
        sweep = make_sweep(
            1, stcs={"hang": lambda: HangModel(release), "uni-stc": UniSTC}
        )
        try:
            summary = ResilientRunner(
                sweep, timeout_s=0.25, retry=RetryPolicy(max_retries=0)
            ).run()
        finally:
            release.set()
        by_stc = {o.case.stc_name: o for o in summary.outcomes}
        assert by_stc["hang"].status == "failed"
        assert by_stc["hang"].failure.taxonomy == "timeout"
        assert "budget" in by_stc["hang"].failure.message
        assert by_stc["uni-stc"].status == "ok"

    def test_fast_cases_unaffected_by_timeout(self):
        sweep = make_sweep(1)
        summary = ResilientRunner(sweep, timeout_s=30.0).run()
        assert summary.n_failed == 0


class _Interrupted(KeyboardInterrupt):
    """Stands in for the user killing the process mid-sweep."""


class CountingFactory:
    """Counts run_case invocations; optionally dies on the Nth call."""

    def __init__(self, die_on_call=None):
        self.calls = 0
        self.die_on_call = die_on_call

    def __call__(self):
        self.calls += 1
        if self.die_on_call is not None and self.calls == self.die_on_call:
            raise _Interrupted()
        return UniSTC()


class TestCheckpointResume:
    def test_killed_mid_sweep_resumes_without_resimulating(self, tmp_path):
        """The acceptance scenario: kill after N cases, resume, complete."""
        journal = tmp_path / "sweep.jsonl"
        dying = CountingFactory(die_on_call=3)
        sweep = make_sweep(3, stcs={"uni-stc": dying})
        runner = ResilientRunner(sweep, journal_path=journal)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + two completed cases
        first_run_reports = {
            (e["case"]["matrix"], e["case"]["kernel"], e["case"]["stc"]):
                e["report"]["cycles"]
            for e in map(json.loads, lines[1:])
        }

        fresh = CountingFactory()
        resumed_sweep = make_sweep(3, stcs={"uni-stc": fresh})
        summary = ResilientRunner(
            resumed_sweep, journal_path=journal, resume=True
        ).run()
        assert summary.n_ok == 3
        assert summary.n_resumed == 2
        # Only the interrupted case was ever simulated on resume.
        assert fresh.calls == 1
        for outcome in summary.outcomes:
            key = (outcome.case.matrix_name, outcome.case.kernel,
                   outcome.case.stc_name)
            if key in first_run_reports:
                assert outcome.resumed
                assert outcome.report.cycles == first_run_reports[key]
        # The journal now covers the full grid.
        assert len(journal.read_text().splitlines()) == 1 + 3

    def test_resumed_reports_are_fully_reconstructed(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep = make_sweep(1)
        original = ResilientRunner(sweep, journal_path=journal).run()
        resumed = ResilientRunner(
            make_sweep(1), journal_path=journal, resume=True
        ).run()
        a, b = original.results[0].report, resumed.results[0].report
        assert a.cycles == b.cycles
        assert a.energy_pj == pytest.approx(b.energy_pj)
        assert np.array_equal(a.util_hist.bins, b.util_hist.bins)
        assert a.counters.as_dict() == pytest.approx(b.counters.as_dict())
        assert a.mean_utilisation == pytest.approx(b.mean_utilisation)

    def test_failed_cases_are_retried_on_resume(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep = make_sweep(1, stcs={"uni-stc": FlakyFactory(fail_times=1)})
        first = ResilientRunner(sweep, journal_path=journal).run()
        assert first.n_failed == 1
        resumed = ResilientRunner(
            make_sweep(1), journal_path=journal, resume=True
        ).run()
        assert resumed.n_failed == 0
        assert resumed.n_resumed == 0

    def test_fingerprint_mismatch_raises_checkpoint_error(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(1), journal_path=journal).run()
        other = make_sweep(2)
        with pytest.raises(CheckpointError):
            ResilientRunner(other, journal_path=journal, resume=True).run()

    def test_garbled_header_raises_checkpoint_error(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text("not json at all\n")
        with pytest.raises(CheckpointError):
            ResilientRunner(make_sweep(1), journal_path=journal, resume=True).run()

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(2), journal_path=journal).run()
        # Simulate a crash mid-write: chop the last line in half.
        text = journal.read_text()
        journal.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        summary = ResilientRunner(
            make_sweep(2), journal_path=journal, resume=True
        ).run()
        assert summary.n_ok == len(make_sweep(2).cases())

    def test_resume_without_journal_starts_fresh(self, tmp_path):
        journal = tmp_path / "missing.jsonl"
        summary = ResilientRunner(
            make_sweep(1), journal_path=journal, resume=True
        ).run()
        assert summary.n_ok == len(make_sweep(1).cases())
        assert journal.exists()


class TestThreadLeakAccounting:
    def hang_sweep(self, n, release):
        return make_sweep(n, stcs={"hang": lambda: HangModel(release)})

    def test_leak_cap_fails_fast_after_journaling(self, tmp_path):
        """Each abandoned timeout thread is counted; one past the cap
        raises ThreadLeakError — but only after the triggering case's
        outcome hit the journal, so a restart resumes cleanly."""
        from repro import obs
        from repro.errors import ThreadLeakError

        release = threading.Event()
        journal = tmp_path / "sweep.jsonl"
        runner = ResilientRunner(
            self.hang_sweep(4, release), timeout_s=0.2,
            retry=RetryPolicy(max_retries=0), journal_path=journal,
            max_leaked_threads=2,
        )
        obs.enable()
        try:
            with pytest.raises(ThreadLeakError, match="3 timed-out"):
                runner.run()
            assert runner.leaked_threads == 3
            assert obs.metrics().counter("runner.leaked_threads").total == 3
        finally:
            obs.disable()
            release.set()
        # The cap tripped on the third leak, after journaling it.
        entries = [json.loads(line)
                   for line in journal.read_text().splitlines()[1:]]
        assert len(entries) == 3
        assert all(e["error"]["taxonomy"] == "timeout" for e in entries)

    def test_leak_warning_names_the_case(self, caplog):
        release = threading.Event()
        try:
            with caplog.at_level("WARNING", logger="repro.resilience.runner"):
                ResilientRunner(
                    self.hang_sweep(1, release), timeout_s=0.2,
                    retry=RetryPolicy(max_retries=0),
                ).run()
        finally:
            release.set()
        leaks = [r for r in caplog.records if "zombie thread" in r.message]
        assert len(leaks) == 1
        assert "m0" in leaks[0].getMessage()

    def test_cap_zero_disables_fail_fast(self, tmp_path):
        release = threading.Event()
        try:
            summary = ResilientRunner(
                self.hang_sweep(4, release), timeout_s=0.2,
                retry=RetryPolicy(max_retries=0), max_leaked_threads=0,
            ).run()
        finally:
            release.set()
        assert summary.n_failed == 4  # every timeout journaled, no abort


class TestJournalHardening:
    def test_interior_garbled_line_raises_with_line_number(self, tmp_path):
        """Only a truncated *final* line is crash debris; garble in the
        middle means corruption and must not be silently skipped."""
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(3), journal_path=journal).run()
        lines = journal.read_text().splitlines()
        lines[2] = '{"case": {"matrix": "m1", "ker'
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 3"):
            ResilientRunner(make_sweep(3), journal_path=journal,
                            resume=True).run()

    def test_garbled_non_final_line_with_valid_tail_raises(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(2), journal_path=journal).run()
        lines = journal.read_text().splitlines()
        lines[1], lines[2] = "%% flipped bits %%", lines[2]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 2"):
            ResilientRunner(make_sweep(2), journal_path=journal,
                            resume=True).run()


class TestCacheIntegration:
    def test_corrupt_cache_warns_and_rebuilds(self, tmp_path, caplog):
        # A run under a bound result store, a corrupted segment, a rerun:
        # the store quarantines the segment and the rerun re-simulates
        # its blocks to the same totals instead of aborting.
        root = tmp_path / "blockstore"
        with ResultStore(root) as store, engine.store_tier(store):
            first = ResilientRunner(make_sweep(1)).run()
        (segment,) = (root / "segments").glob("*.seg")
        blob = bytearray(segment.read_bytes())
        blob[60] ^= 0xFF  # a payload byte of the first record
        segment.write_bytes(bytes(blob))
        engine.clear_cache()
        with caplog.at_level("ERROR", logger="repro.store.resultstore"):
            with ResultStore(root) as store, engine.store_tier(store):
                assert store.stats.quarantined == 1
                second = ResilientRunner(make_sweep(1)).run()
        assert second.n_failed == 0
        assert any("quarantined segment" in r.getMessage()
                   for r in caplog.records)
        r1, r2 = first.results[0].report, second.results[0].report
        assert (r1.cycles, r1.products) == (r2.cycles, r2.products)


class TestCorpusCLI:
    def test_resume_requires_checkpoint(self, capsys):
        assert main(["corpus", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_corpus_with_resilience_flags(self, tmp_path, capsys):
        journal = tmp_path / "corpus.jsonl"
        args = ["corpus", "--limit", "2", "--kernel", "spmv",
                "--stc", "ds-stc,uni-stc", "--checkpoint", str(journal),
                "--timeout", "60", "--max-retries", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "Aver P" in first
        assert journal.exists()
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed" in second
        # The comparison table is reproduced exactly from the journal.
        assert first.splitlines()[-1] == second.splitlines()[-1]
