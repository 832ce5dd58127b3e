"""Tests for fault injection and BBC integrity validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.unistc import UniSTC
from repro.cli import main
from repro.errors import ConfigError
from repro.formats.bbc import DEFAULT_PATTERN_BOUND, PATTERNS, BBCMatrix
from repro.formats.coo import COOMatrix
from repro.kernels.batched import kernel_task_batches
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    run_campaign,
)
from repro.sim import engine
from repro.sim.engine import simulate_kernel
from repro.workloads.suitesparse import corpus, iter_matrices
from repro.workloads.synthetic import banded, random_uniform

from tests.conftest import task_batch


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    engine.clear_cache()
    yield
    engine.clear_cache()


@pytest.fixture
def bbc():
    return BBCMatrix.from_coo(banded(96, 12, 0.5, seed=5))


class TestValidate:
    def test_clean_matrix_reports_nothing(self, bbc):
        assert bbc.validate() == []

    def test_zero_false_positives_across_clean_corpus(self):
        """Acceptance: validate() is silent on every clean corpus matrix."""
        specs = corpus(sizes=(64, 128), limit=24)
        assert specs, "corpus must not be empty"
        for name, coo in iter_matrices(specs):
            issues = BBCMatrix.from_coo(coo).validate()
            assert issues == [], f"false positive on clean matrix {name}: {issues}"

    def test_empty_matrix_is_clean(self):
        empty = BBCMatrix.from_coo(COOMatrix((64, 64), [], [], []))
        assert empty.validate() == []
        assert len(empty) == 0
        assert not empty

    def test_detects_row_ptr_regression(self, bbc):
        bad = bbc.copy()
        bad.row_ptr[1] = bad.row_ptr[2] + 1 if bad.row_ptr.size > 2 else 99
        assert any("row_ptr" in issue for issue in bad.validate())

    def test_detects_lv1_popcount_mismatch(self, bbc):
        bad = bbc.copy()
        bad.bitmap_lv1[0] ^= np.uint16(0xFFFF)
        assert bad.validate()

    def test_detects_value_count_mismatch(self, bbc):
        bad = bbc.copy()
        bad.values = bad.values[:-1]
        assert any("nnz" in issue or "value count" in issue
                   for issue in bad.validate())

    def test_detects_nonfinite_values(self, bbc):
        bad = bbc.copy()
        bad.values[0] = np.nan
        assert any("finite" in issue for issue in bad.validate())

    def test_copy_is_independent(self, bbc):
        dup = bbc.copy()
        dup.values[0] += 1.0
        assert dup.values[0] != bbc.values[0]
        assert dup.validate() == []


class TestFaultInjector:
    def test_metadata_flips_are_always_detected(self, bbc):
        injector = FaultInjector(seed=11)
        for kind in ("lv1_bitflip", "lv2_bitflip"):
            for _ in range(8):
                corrupt, fault = injector.inject_matrix(bbc, kind)
                assert fault.kind == kind
                assert corrupt.validate(), (
                    f"{fault.kind} at {fault.site} slipped past validate()"
                )

    def test_injection_leaves_the_original_untouched(self, bbc):
        before = bbc.bitmap_lv2.copy()
        injector = FaultInjector(seed=3)
        injector.inject_matrix(bbc, "lv2_bitflip")
        assert np.array_equal(bbc.bitmap_lv2, before)

    def test_same_seed_same_faults(self, bbc):
        sites_a = [FaultInjector(seed=9).inject_matrix(bbc, "value_bitflip")[1].site
                   for _ in range(1)]
        sites_b = [FaultInjector(seed=9).inject_matrix(bbc, "value_bitflip")[1].site
                   for _ in range(1)]
        assert sites_a == sites_b

    def test_empty_matrix_rejected(self):
        empty = BBCMatrix.from_coo(COOMatrix((32, 32), [], [], []))
        with pytest.raises(ConfigError):
            FaultInjector(seed=0).inject_matrix(empty, "lv1_bitflip")

    def test_unknown_kind_rejected(self, bbc):
        with pytest.raises(ConfigError):
            FaultInjector(seed=0).inject_matrix(bbc, "cosmic_ray")

    def test_task_drop_and_dup_change_counts(self):
        injector = FaultInjector(seed=2)
        from repro.arch.tasks import T1Task

        tasks = task_batch(
            T1Task.from_bitmaps(np.eye(16, dtype=bool), np.ones((16, 1), dtype=bool)),
            [1, 2, 3, 4, 5],
        )
        dropped, fault = injector.corrupt_tasks(tasks, "task_drop")
        assert len(dropped) == 4
        idx = int(np.random.default_rng(2).integers(5))  # the injector's draw
        assert fault.site == f"dropped task {idx}/5"
        assert dropped.weights.tolist() == [w for i, w in enumerate(range(1, 6)) if i != idx]
        duplicated, _ = injector.corrupt_tasks(tasks, "task_dup")
        assert len(duplicated) == 6
        assert duplicated.total_tasks > tasks.total_tasks
        shuffled, _ = injector.corrupt_tasks(tasks, "task_reorder")
        assert len(shuffled) == 5
        assert sorted(shuffled.weights.tolist()) == [1, 2, 3, 4, 5]


class TestCampaign:
    def test_deterministic_breakdown(self):
        """Acceptance: a seeded campaign is a pure function of its inputs."""
        coo = banded(96, 12, 0.5, seed=5)
        a = run_campaign(coo, trials=22, seed=42)
        engine.clear_cache()
        b = run_campaign(coo, trials=22, seed=42)
        assert a.breakdown() == b.breakdown()
        assert [(t.fault.kind, t.fault.site, t.outcome) for t in a.trials] == \
               [(t.fault.kind, t.fault.site, t.outcome) for t in b.trials]

    def test_outcome_structure(self):
        campaign = run_campaign(banded(64, 8, 0.5, seed=1), trials=11, seed=0)
        assert len(campaign.trials) == 11
        assert sum(campaign.totals().values()) == 11
        for trial in campaign.trials:
            assert trial.outcome in ("detected", "masked", "sdc")
            assert trial.fault.kind in FAULT_KINDS
        assert 0.0 <= campaign.detection_coverage() <= 1.0

    def test_bitmap_popcount_redundancy_detects_flips(self):
        campaign = run_campaign(
            banded(96, 12, 0.5, seed=5), trials=16, seed=7,
            kinds=("lv1_bitflip", "lv2_bitflip"),
        )
        assert campaign.totals() == {"detected": 16, "masked": 0, "sdc": 0}

    def test_task_count_accounting_detects_drop_and_dup(self):
        campaign = run_campaign(
            banded(96, 12, 0.5, seed=5), trials=8, seed=7,
            kinds=("task_drop", "task_dup"),
        )
        assert campaign.totals()["detected"] == 8

    def test_task_reorder_is_masked(self):
        campaign = run_campaign(
            banded(96, 12, 0.5, seed=5), trials=4, seed=7, kinds=("task_reorder",)
        )
        assert campaign.totals()["masked"] == 4

    def test_cache_poisoning_is_silent_data_corruption(self):
        campaign = run_campaign(
            banded(96, 12, 0.5, seed=5), trials=4, seed=7, kinds=("cache_result",)
        )
        assert campaign.totals()["sdc"] == 4

    def test_cache_poisoning_trials_restore_the_cache(self):
        coo = banded(64, 8, 0.5, seed=2)
        run_campaign(coo, trials=6, seed=1, kinds=("cache_result",))
        # Any subsequent simulation must see only clean cached results.
        from repro.arch.unistc import UniSTC
        from repro.sim.engine import simulate_kernel

        bbc = BBCMatrix.from_coo(coo)
        warm = simulate_kernel("spmv", bbc, UniSTC())
        engine.clear_cache()
        cold = simulate_kernel("spmv", bbc, UniSTC())
        assert warm.cycles == cold.cycles

    def test_trials_do_not_depend_on_earlier_interning(self):
        """Memo keys are drawn in key-byte order, so a campaign run after
        other work (an unrelated simulation, and an intern of this
        matrix's patterns in reverse order) poisons the same rows and
        flips the same store bytes as a campaign run first."""
        coo = banded(96, 12, 0.5, seed=5)

        def fresh_epoch():
            PATTERNS.rebound(1)
            PATTERNS.rebound(DEFAULT_PATTERN_BOUND)

        def trials():
            campaign = run_campaign(coo, trials=12, seed=3,
                                    kinds=("cache_result", "cache_file"))
            return [(t.fault.kind, t.fault.site, t.outcome, t.detail)
                    for t in campaign.trials]

        try:
            fresh_epoch()
            alone = trials()
            engine.clear_cache()
            fresh_epoch()
            other = BBCMatrix.from_coo(random_uniform(96, 96, 0.1, seed=8))
            simulate_kernel("spgemm", other, UniSTC())
            clean = BBCMatrix.from_coo(coo)
            PATTERNS.intern(list(reversed(clean.block_patterns()[2])))
            (batch,) = kernel_task_batches("spmv", clean)
            keys = batch.cache_keys(UniSTC().cache_key())
            assert sorted(keys) != sorted(keys, key=PATTERNS.key_bytes)
            assert trials() == alone
        finally:
            PATTERNS.rebound(DEFAULT_PATTERN_BOUND)

    def test_store_segment_flips_are_never_silent(self):
        # A flipped segment byte is caught by the store's framing/CRC
        # checks (quarantine) or only costs misses: never a wrong row.
        campaign = run_campaign(
            banded(96, 12, 0.5, seed=5), trials=12, seed=7, kinds=("cache_file",)
        )
        totals = campaign.totals()
        assert totals["sdc"] == 0
        assert totals["detected"] >= 1

    def test_spmm_campaign_runs(self):
        campaign = run_campaign(
            random_uniform(64, 64, 0.1, seed=3), kernel="spmm", trials=6, seed=0,
            kinds=("lv1_bitflip", "value_bitflip"),
        )
        assert len(campaign.trials) == 6

    def test_rejects_bad_inputs(self):
        coo = banded(64, 8, 0.5, seed=1)
        with pytest.raises(ConfigError):
            run_campaign(coo, trials=0)
        with pytest.raises(ConfigError):
            run_campaign(coo, kinds=("sunspots",))
        with pytest.raises(ConfigError):
            run_campaign(coo, kernel="spgemm")
        with pytest.raises(ConfigError):
            run_campaign(COOMatrix((32, 32), [], [], []))


class TestFaultsCLI:
    def test_faults_command(self, capsys):
        assert main(["faults", "--matrix", "band:64:8:0.5",
                     "--trials", "11", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "detection coverage" in out
        assert "TOTAL" in out

    def test_faults_command_is_deterministic(self, capsys):
        args = ["faults", "--matrix", "band:64:8:0.5", "--trials", "11",
                "--seed", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        engine.clear_cache()
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_faults_kind_filter(self, capsys):
        assert main(["faults", "--matrix", "band:64:8:0.5", "--trials", "4",
                     "--kinds", "lv1_bitflip,lv2_bitflip"]) == 0
        out = capsys.readouterr().out
        assert "lv1_bitflip" in out
        assert "value_bitflip" not in out
