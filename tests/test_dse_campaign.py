"""End-to-end tests for DSE campaigns: evaluation, resume, artifacts."""

import json

import pytest

from repro.analysis.regression import compare_runs
from repro.arch.config import UniSTCConfig
from repro.dse import (
    CachedEvaluator,
    Campaign,
    DesignPoint,
    DesignSpace,
    GridSearch,
    default_space,
    make_strategy,
    summarise,
    tile_cycle_scale,
)
from repro.dse.evaluate import campaign_fingerprint
from repro.errors import CheckpointError
from repro.exec import ExecPolicy

MATRIX = "band:64:8:0.5"


def tiny_space(kernels=("spmv",)) -> DesignSpace:
    return DesignSpace.build(
        config_axes={"num_dpgs": [4, 8], "tile": [4]},
        matrices=[MATRIX], kernels=list(kernels),
    )


class TestTileCycleScale:
    def test_native_tile_is_identity(self):
        assert tile_cycle_scale(UniSTCConfig()) == 1.0

    def test_small_tile_starves_the_array(self):
        # 2x2x2 needs 32+ DPGs at 64 MACs; with 8 the array starves.
        cfg = UniSTCConfig(tile=2, num_dpgs=8)
        assert tile_cycle_scale(cfg) > 1.0

    def test_large_tile_pays_timing(self):
        # 8x8x8 takes >= 2 cycles per T3 at 64 MACs.
        cfg = UniSTCConfig(tile=8, num_dpgs=8)
        assert tile_cycle_scale(cfg) >= 2.0

    def test_scale_responds_to_dpg_count(self):
        few = tile_cycle_scale(UniSTCConfig(tile=2, num_dpgs=4,
                                            tile_queue_depth=16))
        many = tile_cycle_scale(UniSTCConfig(tile=2, num_dpgs=16,
                                             tile_queue_depth=32))
        assert few > many


class TestCachedEvaluator:
    def test_baseline_hoisted_per_cell(self):
        space = tiny_space()
        evaluator = CachedEvaluator(fingerprint="test")
        results = evaluator.evaluate(space.points())
        assert all(e is not None for e in results.values())
        # 2 configs + exactly ONE shared baseline = 3 simulations.
        assert evaluator.n_simulated == 3
        assert len(evaluator._baselines) == 1

    def test_baseline_not_rerun_across_batches(self):
        space = tiny_space()
        points = space.points()
        evaluator = CachedEvaluator(fingerprint="test")
        evaluator.evaluate(points[:1])
        before = evaluator.n_simulated
        evaluator.evaluate(points[1:])
        # The second batch adds one config run and zero baseline runs.
        assert evaluator.n_simulated == before + 1

    def test_invalid_point_fails_alone(self):
        space = tiny_space()
        bad = DesignPoint(matrix=MATRIX, kernel="spmv",
                          knobs=(("num_dpgs", 8), ("tile", 5)))
        good = space.points()[0]
        evaluator = CachedEvaluator(fingerprint="test")
        results = evaluator.evaluate([bad, good])
        assert results[bad] is None
        assert results[good] is not None
        assert evaluator.n_failed == 1

    def test_evaluation_objectives_sane(self):
        space = tiny_space()
        evaluator = CachedEvaluator(fingerprint="test")
        e = evaluator.evaluate(space.points())[space.points()[0]]
        assert e.cycles > 0
        assert e.cycles == e.sim_cycles  # tile=4: no bridging
        assert e.energy_pj > 0
        assert e.area_mm2 > 0
        assert e.speedup > 0
        assert e.eed > 0
        assert not e.resumed

    def test_parallel_cores_fold_to_one_report(self):
        space = tiny_space()
        serial = CachedEvaluator(fingerprint="test")
        parallel = CachedEvaluator(fingerprint="test", n_cores=2)
        point = space.points()[0]
        es = serial.evaluate([point])[point]
        ep = parallel.evaluate([point])[point]
        assert ep is not None
        assert ep.cycles > 0
        assert ep.energy_pj == pytest.approx(es.energy_pj, rel=0.05)


class TestCampaignRun:
    def test_grid_campaign_summaries(self):
        result = Campaign(tiny_space(), GridSearch()).run()
        assert len(result.summaries) == 2
        assert not result.failed
        assert result.frontier  # something always survives
        assert 0 <= result.knee < len(result.summaries)
        assert result.n_simulated == 3  # 2 configs + 1 baseline
        assert result.n_resumed == 0

    def test_multi_cell_aggregation(self):
        space = tiny_space(kernels=("spmv", "spgemm"))
        result = Campaign(space, GridSearch()).run()
        for s in result.summaries:
            assert s.cells == 2
        per_point = {(e.point.knobs, e.point.kernel) for e in result.evaluations}
        assert len(per_point) == 4

    def test_random_campaign_deterministic(self):
        space = tiny_space()
        a = Campaign(space, make_strategy("random", seed=0, budget=2)).run()
        b = Campaign(space, make_strategy("random", seed=0, budget=2)).run()
        assert a.to_json() == b.to_json()

    def test_summarise_folds_cells(self):
        space = tiny_space(kernels=("spmv", "spgemm"))
        evaluator = CachedEvaluator(fingerprint="test")
        candidate = space.candidates()[0]
        points = space.expand(candidate)
        results = evaluator.evaluate(points)
        summary = summarise(candidate, [results[p] for p in points])
        assert summary.cells == 2
        assert summary.cycles == sum(results[p].cycles for p in points)
        assert summary.energy_pj == sum(results[p].energy_pj for p in points)


class TestResume:
    def test_cold_then_resume_byte_identical(self, tmp_path):
        space = tiny_space()
        journal = tmp_path / "dse.jsonl"
        cold_out = tmp_path / "cold.json"
        warm_out = tmp_path / "warm.json"

        cold = Campaign(space, GridSearch(), journal_path=journal).run()
        cold.write_json(cold_out)
        assert cold.n_simulated == 3
        assert cold.n_resumed == 0

        warm = Campaign(space, GridSearch(), journal_path=journal,
                        resume=True).run()
        warm.write_json(warm_out)
        assert warm.n_simulated == 0
        assert warm.n_resumed == 3
        assert cold_out.read_bytes() == warm_out.read_bytes()

    def test_interrupted_campaign_resumes_partial(self, tmp_path):
        space = tiny_space()
        journal = tmp_path / "dse.jsonl"
        # Simulate an interrupt: only the first candidate was journaled.
        partial = CachedEvaluator(fingerprint=campaign_fingerprint(
            space, GridSearch().signature()), journal_path=journal)
        partial.evaluate(space.expand(space.candidates()[0]))
        assert partial.n_simulated == 2  # baseline + first config

        result = Campaign(space, GridSearch(), journal_path=journal,
                          resume=True).run()
        assert result.n_resumed == 2
        assert result.n_simulated == 1  # only the second config
        assert len(result.summaries) == 2

    def test_resume_with_fresh_journal_is_cold(self, tmp_path):
        space = tiny_space()
        result = Campaign(space, GridSearch(),
                          journal_path=tmp_path / "missing.jsonl",
                          resume=True).run()
        assert result.n_simulated == 3
        assert result.n_resumed == 0


class TestFrontierArtifact:
    def test_shape(self, tmp_path):
        result = Campaign(tiny_space(), GridSearch()).run()
        blob = result.to_json()
        assert blob["schema"] == 1
        assert blob["kind"] == "repro.dse.frontier"
        assert blob["space"] == tiny_space().as_spec()
        assert blob["strategy"] == "grid:0"
        assert blob["objectives"]["eed"] == "max"
        assert len(blob["benchmarks"]) == 2
        for bench in blob["benchmarks"]:
            assert bench["name"].startswith("dse:")
            assert "cycles" in bench["extra_info"]
            assert bench["extra_info"]["on_frontier"] in (0, 1)
        assert blob["failed"] == []
        # Deterministic by construction: no wall-clock, no run counts.
        text = json.dumps(blob)
        assert "wall_s" not in text
        assert "n_simulated" not in text

    def test_compare_runs_compatible(self, tmp_path):
        result = Campaign(tiny_space(), GridSearch()).run()
        path = tmp_path / "frontier.json"
        result.write_json(path)
        report = compare_runs(path, path)
        assert report.clean

    def test_render_table_marks_frontier(self):
        result = Campaign(tiny_space(), GridSearch()).run()
        table = result.render_table()
        assert "cycles" in table
        assert "knee" in table

    def test_render_plot(self):
        result = Campaign(tiny_space(), GridSearch()).run()
        plot = result.render_plot()
        assert "cycles vs area" in plot
        assert "@" in plot  # the knee marker


class TestPaperSpaceFrontier:
    def test_paper_choice_on_frontier(self):
        # The acceptance criterion of the ported example, held as a
        # regression: on the paper's own design walk (Table IV tiles x
        # Fig. 22 DPG counts on 'cant' under SpMV + SpGEMM) the native
        # tile=4 dominates the bridged tiles and the paper's choice
        # {tile=4, num_dpgs=8} sits on the frontier.
        result = Campaign(default_space(), GridSearch()).run()
        frontier = result.frontier_knobs()
        assert {"tile": 4, "num_dpgs": 8} in frontier
        assert all(f["tile"] == 4 for f in frontier)


class TestCampaignFingerprint:
    def test_binds_space_and_strategy(self):
        a = campaign_fingerprint(tiny_space(), "grid:0")
        assert a == campaign_fingerprint(tiny_space(), "grid:0")
        assert a != campaign_fingerprint(tiny_space(), "random:0:8")
        assert a != campaign_fingerprint(tiny_space(kernels=("spgemm",)),
                                         "grid:0")

    def test_mismatched_journal_rejected(self, tmp_path):
        space = tiny_space()
        journal = tmp_path / "dse.jsonl"
        Campaign(space, GridSearch(), journal_path=journal).run()
        with pytest.raises(CheckpointError):
            Campaign(space, make_strategy("random", seed=1, budget=2),
                     journal_path=journal, resume=True).run()


class TestCores:
    """A core count means the same in-process, sharded and on resume."""

    def test_sharded_frontier_equals_in_process(self, tmp_path):
        space = tiny_space(kernels=("spmv", "spgemm"))
        paths = {}
        for name, policy in (("local", None), ("sharded", ExecPolicy(workers=2))):
            result = Campaign(space, GridSearch(), n_cores=2,
                              journal_path=tmp_path / f"{name}.jsonl",
                              exec_policy=policy).run()
            paths[name] = tmp_path / f"{name}.json"
            result.write_json(paths[name])
        assert paths["local"].read_bytes() == paths["sharded"].read_bytes()
        serial = Campaign(space, GridSearch()).run().to_json()
        assert json.loads(paths["local"].read_text())["points"] != serial["points"]

    def test_resume_at_another_core_count_refused(self, tmp_path):
        space = tiny_space()
        journal = tmp_path / "dse.jsonl"
        Campaign(space, GridSearch(), n_cores=2, journal_path=journal).run()
        with pytest.raises(CheckpointError, match="different sweep grid"):
            Campaign(space, GridSearch(), journal_path=journal,
                     resume=True).run()
        warm = Campaign(space, GridSearch(), n_cores=2, journal_path=journal,
                        resume=True).run()
        assert warm.n_simulated == 0
        assert warm.n_resumed == 3

    def test_one_core_fingerprint_unchanged(self):
        # The value from before the core count was bound: every one-core
        # journal keeps its fingerprint and still resumes.
        before = "5f37adbdc27ca27f"
        assert campaign_fingerprint(tiny_space(), "grid:0") == before
        assert campaign_fingerprint(tiny_space(), "grid:0", n_cores=1) == before
        assert campaign_fingerprint(tiny_space(), "grid:0", n_cores=2) != before
