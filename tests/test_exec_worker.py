"""Tests for the worker side of the campaign executor (repro.exec.worker).

A worker's shard journal is its only file: one append per finished
case carries the case's journal entry and its metrics delta.  These
tests count those appends, respawn a real ``repro worker`` over a
journal that ends in half a record, and cut a real worker's journal at
every record boundary to check that the journaled cases and the folded
metrics always agree.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.exec import ShardSpec, StcDef, merge_journals
from repro.errors import CheckpointError
from repro.exec import worker as worker_mod
from repro.exec.worker import EXIT_ERROR, EXIT_OK, run_shard, worker_main
from repro.obs import journal as journal_mod
from repro.obs.journal import JournalReader, entry_key
from repro.obs.metrics import FOLD_COUNTERS, FOLD_GAUGE, FOLD_HISTOGRAM, FOLD_STORE
from repro.obs.telemetry import MetricsFold
from repro.resilience.runner import case_key, read_journal
from repro.sim import engine
from repro.store import ResultStore

MATRICES = (("m0", "band:48:4:0.5"), ("m1", "band:48:6:0.5"),
            ("m2", "band:48:8:0.5"))
KERNELS = ("spmv", "spgemm")
#: The series the report fold renders.
FOLD_SERIES = FOLD_COUNTERS + FOLD_STORE + (FOLD_GAUGE, FOLD_HISTOGRAM)


def make_spec(tmp_path, **overrides):
    fields = dict(
        shard_id="s0",
        campaign="feedc0de00000000",
        matrices=MATRICES,
        stcs=(StcDef.plain("uni-stc"),),
        kernels=KERNELS,
        cases=tuple((m, "uni-stc", k) for m, _ in MATRICES for k in KERNELS),
        heartbeat_interval_s=0.05,
        journal=str(tmp_path / "s0.journal"),
    )
    fields.update(overrides)
    return ShardSpec(**fields)


def run_worker(spec_path):
    """One ``repro worker`` process over a spec file."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_WORKER_CHAOS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", "worker", "--spec", str(spec_path)],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture
def in_process():
    """Run ``run_shard`` in this process; restore what it switches."""
    handler = signal.getsignal(signal.SIGTERM)
    engine.clear_cache()
    yield
    signal.signal(signal.SIGTERM, handler)
    obs.disable()
    engine.clear_cache()


class _CountingOs:
    """Stands in for ``os`` inside repro.obs.journal, recording writes."""

    def __init__(self):
        self.writes = []

    def write(self, fd, data):
        self.writes.append(bytes(data))
        return os.write(fd, data)

    def __getattr__(self, name):
        return getattr(os, name)


class TestWorkerMainExitCodes:
    """Only a ``ReproError`` is a structured error (exit 2, which fails
    the campaign); any other exception ends the worker as a crash, so
    the shard keeps its retry and bisection budget."""

    def refuse(self, tmp_path, monkeypatch, error):
        def refuse_shard(spec):
            raise error
        monkeypatch.setattr(worker_mod, "run_shard", refuse_shard)
        return str(make_spec(tmp_path).write(tmp_path / "s0.spec.json"))

    def test_a_repro_error_exits_2(self, tmp_path, monkeypatch):
        spec = self.refuse(tmp_path, monkeypatch, CheckpointError("corrupt"))
        assert worker_main(spec) == EXIT_ERROR

    def test_another_exception_escapes_as_a_crash(self, tmp_path, monkeypatch):
        spec = self.refuse(tmp_path, monkeypatch, OSError("append failed"))
        with pytest.raises(OSError, match="append failed"):
            worker_main(spec)


class TestOneAppendPerCase:
    def test_one_write_per_finished_case_and_none_per_resumed(
            self, tmp_path, monkeypatch, in_process):
        spec = make_spec(tmp_path)
        counting = _CountingOs()
        monkeypatch.setattr(journal_mod, "os", counting)
        assert run_shard(spec) == EXIT_OK

        # Every write() is one whole record, and the journal is exactly
        # those writes: the header, then beats, spans and case records.
        path = Path(spec.journal)
        assert b"".join(counting.writes) == path.read_bytes()
        assert all(w.count(b"\n") == 1 and w.endswith(b"\n")
                   for w in counting.writes)
        records = [json.loads(w) for w in counting.writes]
        cases = [r for r in records if "case" in r]
        assert [entry_key(r) for r in cases] == \
            [case_key(c) for c in spec.sweep_cases()]
        assert all("metrics" in r for r in cases)   # delta in the same write
        others = Counter(r.get("kind", "header") for r in records
                         if "case" not in r)
        assert set(others) <= {"header", "beat", "spans"}

        # A respawn over the first two journaled cases writes nothing
        # for them: one write per case it runs, plus beats and spans.
        lines = path.read_bytes().splitlines(keepends=True)
        second_case = [i for i, line in enumerate(lines)
                       if line.startswith(b'{"case"')][1]
        path.write_bytes(b"".join(lines[:second_case + 1]))
        counting.writes.clear()
        assert run_shard(spec) == EXIT_OK
        records = [json.loads(w) for w in counting.writes]
        assert [entry_key(r) for r in records if "case" in r] == \
            [case_key(c) for c in spec.sweep_cases()[2:]]
        assert all(r.get("kind") in ("beat", "spans")
                   for r in records if "case" not in r)
        assert len(read_journal(path, spec.campaign)) == len(spec.cases)


class TestRespawnOverATornJournal:
    def test_respawn_completes_and_merges_every_case_once(self, tmp_path):
        spec = make_spec(tmp_path)
        spec_path = spec.write(tmp_path / "s0.spec.json")
        first = run_worker(spec_path)
        assert first.returncode == EXIT_OK, first.stdout + first.stderr

        # The worker died halfway through appending its last case.
        path = Path(spec.journal)
        lines = path.read_bytes().splitlines(keepends=True)
        last_case = max(i for i, line in enumerate(lines)
                        if line.startswith(b'{"case"'))
        torn = lines[last_case][:len(lines[last_case]) // 2]
        path.write_bytes(b"".join(lines[:last_case]) + torn)

        second = run_worker(spec_path)
        assert second.returncode == EXIT_OK, second.stdout + second.stderr
        assert "torn byte" in second.stdout + second.stderr

        order = [case_key(c) for c in spec.sweep_cases()]
        target = tmp_path / "campaign.journal"
        stats = merge_journals(target, [path], spec.campaign, order=order)
        assert stats.appended == len(order)
        entries = [json.loads(line)
                   for line in target.read_text().splitlines()[1:]]
        assert [entry_key(e) for e in entries] == order   # each case once
        assert all(e["status"] == "ok" for e in entries)
        assert not any("metrics" in e or "inst" in e for e in entries)


@pytest.fixture(scope="module")
def worker_journal(tmp_path_factory):
    """A real worker's finished shard journal, and its spec."""
    tmp_path = tmp_path_factory.mktemp("worker")
    spec = make_spec(tmp_path)
    done = run_worker(spec.write(tmp_path / "s0.spec.json"))
    assert done.returncode == EXIT_OK, done.stdout + done.stderr
    return Path(spec.journal).read_bytes(), spec


class TestCrashExactFold:
    """Wherever a SIGKILL cuts the journal, the journaled cases and the
    folded metrics agree, because each case's delta rides its record."""

    @staticmethod
    def by_label(entries, field="value"):
        return {(e["labels"]["kernel"], e["labels"]["stc"]): e[field]
                for e in entries}

    def test_every_cut_folds_exactly_the_journaled_cases(
            self, tmp_path, worker_journal):
        data, spec = worker_journal
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        records = data.splitlines(keepends=True)
        last_case = max(i for i, line in enumerate(records)
                        if line.startswith(b'{"case"'))
        middle = ends[last_case - 1] + len(records[last_case]) // 2
        path = tmp_path / "cut.journal"
        cases_seen = set()
        for cut in ends + [middle]:
            path.write_bytes(data[:cut])
            outcomes = read_journal(path, spec.campaign)
            fold = MetricsFold()
            folded_cases = set()
            for record in JournalReader(path).poll():
                fold.apply(record)
                if "case" in record and "metrics" in record:
                    folded_cases.add(entry_key(record))
            assert folded_cases == set(outcomes), cut
            cases_seen.add(len(outcomes))

            expected = {"sim.t1_tasks": Counter(), "sim.cycles": Counter()}
            count = Counter()
            for outcome in outcomes.values():
                label = (outcome.report.kernel, outcome.report.stc)
                expected["sim.t1_tasks"][label] += outcome.report.t1_tasks
                expected["sim.cycles"][label] += outcome.report.cycles
                count[label] += 1
            snap = fold.snapshot()
            for name, sums in expected.items():
                assert self.by_label(snap["counters"].get(name, [])) == \
                    dict(sums), (cut, name)
            assert self.by_label(
                snap["histograms"].get("sim.run_wall_s", []), "count") == \
                dict(count), cut
        # The cuts covered every prefix from no case to all of them.
        assert cases_seen == set(range(len(spec.cases) + 1))

    @staticmethod
    def fold_view(snapshot):
        """The report-fold series of a snapshot; histograms by count."""
        return {(section, name, json.dumps(e["labels"], sort_keys=True)):
                e["count"] if section == "histograms" else e["value"]
                for section in ("counters", "gauges", "histograms")
                for name, entries in snapshot[section].items()
                if name in FOLD_SERIES for e in entries}

    @pytest.mark.parametrize("variant", ["cores2", "store"])
    def test_every_cut_folds_what_an_in_process_run_folds(
            self, tmp_path, variant, in_process):
        """A cores-2 shard's reports are folds of two runs each, and a
        store-bound shard's cache deltas carry its store traffic: at
        every cut, the supervisor's fold of the journaled records equals
        an in-process run of the journaled cases, store.* included."""
        spec = make_spec(tmp_path, **(
            {"n_cores": 2} if variant == "cores2"
            else {"store": str(tmp_path / "worker-store")}))
        sweep = spec.build_sweep()
        cases = sweep.cases()
        stores = []
        if variant == "store":
            # Both stores start holding the first case's rows, so the
            # runs see store hits as well as misses and appends.
            with ResultStore(tmp_path / "prefill") as store, \
                    engine.store_tier(store):
                sweep.run_case(cases[0])
            engine.clear_cache()
            stores = [tmp_path / "worker-store", tmp_path / "process-store"]
            for root in stores:
                shutil.copytree(tmp_path / "prefill", root)
        done = run_worker(spec.write(tmp_path / "s0.spec.json"))
        assert done.returncode == EXIT_OK, done.stdout + done.stderr

        obs.enable(fresh=True)
        with contextlib.ExitStack() as stack:
            if stores:
                stack.enter_context(engine.store_tier(
                    stack.enter_context(ResultStore(stores[1]))))
            expected = [self.fold_view(obs.metrics().snapshot())]
            for case in cases:
                sweep.run_case(case)
                expected.append(self.fold_view(obs.metrics().snapshot()))
        names = {name for _, name, _ in expected[-1]}
        assert {"sim.cycles", "sim.run_wall_s", "sim.cache.entries"} <= names
        if variant == "store":
            assert {"store.hits", "store.misses", "store.appends"} <= names

        data = Path(spec.journal).read_bytes()
        ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        path = tmp_path / "cut.journal"
        cases_seen = set()
        for cut in ends + [len(data) - 1]:
            path.write_bytes(data[:cut])
            journaled = len(read_journal(path, spec.campaign))
            fold = MetricsFold()
            for record in JournalReader(path).poll():
                fold.apply(record)
            assert self.fold_view(fold.snapshot()) == expected[journaled], cut
            cases_seen.add(journaled)
        assert cases_seen == set(range(len(cases) + 1))
