"""Tests for the experiment runtime: RunSpec, Session, manifests."""

import json

import pytest

from repro import obs
from repro.errors import ConfigError, ReproError
from repro.runtime import (
    MANIFEST_SCHEMA,
    CachePolicy,
    ObsPolicy,
    ResiliencePolicy,
    RunSpec,
    Session,
)


class TestRunSpec:
    def test_fingerprint_is_stable_across_param_order(self):
        a = RunSpec("kernels", params={"x": 1, "y": 2})
        b = RunSpec("kernels", params={"y": 2, "x": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_ignores_artifact_paths(self):
        a = RunSpec("kernels", params={"x": 1},
                    obs=ObsPolicy(trace_path="/tmp/a.json"),
                    cache=CachePolicy(store_dir="/tmp/a-store"),
                    manifest_dir="/tmp/runs-a")
        b = RunSpec("kernels", params={"x": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_varies_with_command_params_seed(self):
        base = RunSpec("kernels", params={"x": 1}, seed=0)
        assert base.fingerprint() != RunSpec("corpus", params={"x": 1}).fingerprint()
        assert base.fingerprint() != RunSpec("kernels", params={"x": 2}).fingerprint()
        assert base.fingerprint() != RunSpec("kernels", params={"x": 1},
                                             seed=1).fingerprint()

    def test_needs_a_command(self):
        with pytest.raises(ConfigError):
            RunSpec("")

    def test_params_must_be_json_serialisable(self):
        with pytest.raises(ConfigError, match="JSON-serialisable"):
            RunSpec("kernels", params={"x": object()})

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ConfigError, match="--resume requires"):
            ResiliencePolicy(resume=True)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError):
            ResiliencePolicy(max_retries=-1)

    def test_timeout_zero_means_unlimited(self):
        assert ResiliencePolicy(timeout_s=0.0).timeout is None
        assert ResiliencePolicy(timeout_s=2.5).timeout == 2.5


class TestSession:
    def _spec(self, tmp_path, **kwargs):
        kwargs.setdefault("manifest_dir", str(tmp_path / "runs"))
        return RunSpec("test-cmd", params={"k": "v"}, **kwargs)

    def test_manifest_written_on_success(self, tmp_path):
        spec = self._spec(tmp_path)
        with Session(spec) as session:
            pass
        artifact = session.artifact
        assert artifact is not None and artifact.path is not None
        manifest = json.loads(artifact.path.read_text())
        assert manifest["kind"] == "repro.run"
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["command"] == "test-cmd"
        assert manifest["fingerprint"] == spec.fingerprint()
        assert manifest["seed"] == 0
        assert manifest["params"] == {"k": "v"}
        assert manifest["status"] == "ok"
        assert manifest["wall_s"] >= 0
        assert "cache" in manifest and "version" in manifest

    def test_manifest_written_on_error_and_exception_propagates(self, tmp_path):
        spec = self._spec(tmp_path)
        with pytest.raises(ReproError):
            with Session(spec) as session:
                raise ReproError("boom")
        manifest = session.artifact.manifest
        assert manifest["status"] == "error"
        assert "boom" in manifest["error"]

    def test_recorded_failure_marks_status(self, tmp_path):
        with Session(self._spec(tmp_path)) as session:
            session.fail("bad input")
            session.exit_code = 2
        manifest = session.artifact.manifest
        assert manifest["status"] == "error"
        assert manifest["exit_code"] == 2

    def test_empty_manifest_dir_disables_manifest(self, tmp_path):
        with Session(self._spec(tmp_path, manifest_dir="")) as session:
            pass
        assert session.artifact.path is None
        assert session.artifact.manifest["status"] == "ok"

    def test_rng_is_seeded_and_cached(self, tmp_path):
        with Session(self._spec(tmp_path, seed=42)) as session:
            rng = session.rng
            assert session.rng is rng
            first = rng.random()
        with Session(self._spec(tmp_path, seed=42)) as session:
            assert session.rng.random() == first

    def test_obs_enabled_for_run_then_restored(self, tmp_path):
        assert not obs.enabled()
        trace = tmp_path / "t.json"
        spec = self._spec(tmp_path, obs=ObsPolicy(trace_path=str(trace)))
        with Session(spec):
            assert obs.enabled()
        assert not obs.enabled()
        assert trace.exists()

    def test_store_unbound_even_when_artifact_writing_fails(self, tmp_path,
                                                            monkeypatch):
        from repro.sim import engine

        engine.unbind_store()
        spec = self._spec(
            tmp_path, cache=CachePolicy(store_dir=str(tmp_path / "store")))

        def boom(self, manifest):
            raise RuntimeError("manifest writing exploded")

        monkeypatch.setattr(Session, "_write_manifest", boom)
        with pytest.raises(RuntimeError, match="manifest writing"):
            with Session(spec):
                assert engine.bound_store() is not None
        # The binding and handle must not outlive the session even
        # when the artifact-writing half of __exit__ raises.
        assert engine.bound_store() is None

    def test_metrics_snapshot_in_manifest_when_obs_on(self, tmp_path):
        from repro.formats.bbc import BBCMatrix
        from repro.registry import create_stc
        from repro.sim.engine import simulate_kernel

        spec = self._spec(tmp_path, obs=ObsPolicy(force=True))
        with Session(spec) as session:
            bbc = BBCMatrix.from_coo(session.matrix("band:64:8:0.5"))
            simulate_kernel("spmv", bbc, create_stc("uni-stc"))
        assert "sim.cycles" in session.artifact.manifest["metrics"]["counters"]

    def test_executor_composes_through_registry(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        spec = self._spec(
            tmp_path, seed=3,
            resilience=ResiliencePolicy(timeout_s=30.0, max_retries=2,
                                        checkpoint=str(journal)),
        )
        with Session(spec) as session:
            executor = session.executor({"m": "band:64:8:0.5"},
                                        ["ds-stc", "uni-stc"], ["spmv"])
            assert executor.timeout_s == 30.0
            assert executor.max_retries == 2
            assert executor.seed == 3
            assert executor.journal_path == str(journal)
            summary = executor.run()
        assert summary.n_ok == 2
        assert journal.exists()

    def test_unwritable_manifest_dir_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        spec = self._spec(tmp_path, manifest_dir=str(blocker / "runs"))
        with Session(spec) as session:
            pass
        assert session.artifact.path is None
