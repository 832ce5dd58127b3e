"""Tests for shard specs and case chunking (repro.exec.shard)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.dse.space import DesignPoint
from repro.errors import ConfigError, ReproError
from repro.exec import SHARD_SCHEMA, CampaignExecutor, ShardSpec, StcDef, shard_cases
from repro.exec.supervisor import _ShardState
from repro.sim.sweep import Sweep, SweepCase


def make_spec(tmp_path, **overrides):
    fields = dict(
        shard_id="s0",
        campaign="abc123",
        matrices=(("m0", "band:64:6:0.5"), ("m1", "band:64:8:0.5")),
        stcs=(StcDef.plain("uni-stc"), StcDef.plain("ds-stc")),
        kernels=("spmv",),
        cases=(("m0", "uni-stc", "spmv"), ("m1", "ds-stc", "spmv")),
        journal=str(tmp_path / "s0.journal"),
    )
    fields.update(overrides)
    return ShardSpec(**fields)


class TestStcDef:
    def test_plain_rejects_unknown_names(self):
        with pytest.raises(ReproError):
            StcDef.plain("banana-stc")

    def test_plain_factory_builds_registry_model(self):
        model = StcDef.plain("uni-stc").factory()()
        assert model.name == "uni-stc"

    def test_knobbed_factory_matches_design_point_config(self):
        knobs = {"tile": 4, "num_dpgs": 8}
        stc = StcDef.from_knobs("uni-stc[num_dpgs=8,tile=4]", knobs)
        model = stc.factory()()
        reference = DesignPoint(matrix="", kernel="",
                                knobs=tuple(sorted(knobs.items()))).config()
        assert model.config.num_dpgs == reference.num_dpgs
        assert model.config.tile == reference.tile

    def test_json_round_trip(self):
        for stc in (StcDef.plain("ds-stc"),
                    StcDef.from_knobs("uni-stc[tile=8]", {"tile": 8})):
            assert StcDef.from_json(stc.as_json()) == stc


class TestShardSpec:
    def test_round_trip_preserves_everything(self, tmp_path):
        spec = make_spec(tmp_path, seed=7, n_cores=2, timeout_s=2.5,
                         max_retries=3, store=str(tmp_path / "blockstore"))
        data = spec.as_json()
        assert data["schema"] == SHARD_SCHEMA == 3
        assert "heartbeat" not in data and "metrics" not in data
        assert "telemetry" not in data
        assert ShardSpec.from_json(data) == spec

    def test_write_read(self, tmp_path):
        spec = make_spec(tmp_path)
        path = spec.write(tmp_path / "s0.spec.json")
        assert ShardSpec.read(path) == spec

    def test_schema_mismatch_rejected(self, tmp_path):
        data = make_spec(tmp_path).as_json()
        data["schema"] = SHARD_SCHEMA + 1
        with pytest.raises(ConfigError, match="schema mismatch"):
            ShardSpec.from_json(data)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError, match="not a repro.exec shard"):
            ShardSpec.from_json({"kind": "something-else"})

    def test_case_referencing_missing_matrix_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no matrix-spec entry"):
            make_spec(tmp_path, cases=(("ghost", "uni-stc", "spmv"),))

    def test_case_referencing_missing_stc_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no STC definition"):
            make_spec(tmp_path, cases=(("m0", "rm-stc", "spmv"),))

    def test_empty_cases_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no cases"):
            make_spec(tmp_path, cases=())

    def test_missing_journal_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="journal"):
            make_spec(tmp_path, journal="")

    def test_schema_2_spec_with_a_telemetry_path_rejected(self, tmp_path):
        """Schema 3 dropped the telemetry path with no migration: the
        journal carries the telemetry, and the supervisor rewrites
        every spec on dispatch."""
        data = make_spec(tmp_path).as_json()
        data.update(schema=2, telemetry=str(tmp_path / "s0.telemetry.jsonl"))
        with pytest.raises(ConfigError, match="schema mismatch"):
            ShardSpec.from_json(data)

    def test_build_sweep_reproduces_direct_results(self, tmp_path):
        """A shard rebuilt from its spec simulates the same numbers."""
        from repro.registry import parse_matrix_spec

        spec = make_spec(tmp_path)
        sweep = spec.build_sweep()
        results = {(r.case.matrix_name, r.case.stc_name): r.report.cycles
                   for c in sweep.cases() for r in [sweep.run_case(c)]}
        direct = Sweep.from_names(
            {"m0": parse_matrix_spec("band:64:6:0.5"),
             "m1": parse_matrix_spec("band:64:8:0.5")},
            ["uni-stc", "ds-stc"], ["spmv"],
        )
        for case in direct.cases():
            key = (case.matrix_name, case.stc_name)
            if key in results:
                assert direct.run_case(case).report.cycles == results[key]

    def test_bisection_keeps_every_other_field(self, tmp_path):
        """Splitting a poisoned shard narrows its workload and nothing
        else: both halves of a cores-2 shard still run on 2 cores."""
        spec = make_spec(tmp_path, seed=7, n_cores=2, timeout_s=2.5,
                         max_retries=3, store=str(tmp_path / "blockstore"))
        executor = CampaignExecutor(matrices=dict(spec.matrices),
                                    stcs=list(spec.stcs),
                                    kernels=list(spec.kernels), n_cores=2)
        queue = []
        executor._exhaust(_ShardState(spec=spec, spec_path=tmp_path / "s.json",
                                      log_path=tmp_path / "s.log"),
                          queue, tmp_path)
        assert [child.shard_id for child in queue] == ["s0a", "s0b"]
        assert [child.n_cores for child in queue] == [2, 2]
        narrowed = {"shard_id", "matrices", "stcs", "cases", "journal"}
        for child in queue:
            for f in fields(ShardSpec):
                if f.name not in narrowed:
                    assert getattr(child, f.name) == getattr(spec, f.name), f.name

    def test_replace_cases_narrows_the_workload(self, tmp_path):
        spec = make_spec(tmp_path)
        child = spec.replace_cases(
            [SweepCase("m0", "uni-stc", "spmv")], shard_id="s0a",
            journal=str(tmp_path / "s0a.journal"))
        assert child.shard_id == "s0a"
        assert child.cases == (("m0", "uni-stc", "spmv"),)
        assert dict(child.matrices) == {"m0": "band:64:6:0.5"}
        assert [d.name for d in child.stcs] == ["uni-stc"]
        assert child.campaign == spec.campaign
        assert child.journal == str(tmp_path / "s0a.journal")


class TestShardCases:
    def cases(self, n):
        return [SweepCase(f"m{i}", "uni-stc", "spmv") for i in range(n)]

    def test_contiguous_and_balanced(self):
        shards = shard_cases(self.cases(10), 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        flat = [c for shard in shards for c in shard]
        assert flat == self.cases(10)  # order preserved, nothing lost

    def test_never_produces_empty_shards(self):
        shards = shard_cases(self.cases(2), 5)
        assert [len(s) for s in shards] == [1, 1]

    def test_single_shard_is_identity(self):
        assert shard_cases(self.cases(4), 1) == [self.cases(4)]

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError):
            shard_cases(self.cases(4), 0)
