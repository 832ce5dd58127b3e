"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_matrix_spec
from repro.errors import ReproError


class TestMatrixSpecs:
    def test_band(self):
        m = parse_matrix_spec("band:64:8:0.5")
        assert m.shape == (64, 64)
        assert m.nnz > 0

    def test_random(self):
        m = parse_matrix_spec("random:64:0.1")
        assert m.shape == (64, 64)

    def test_rmat(self):
        assert parse_matrix_spec("rmat:5").shape == (32, 32)

    def test_representative(self):
        m = parse_matrix_spec("rep:consph")
        assert m.shape == (256, 256)

    def test_mtx(self, tmp_path, small_coo):
        from repro.workloads.matrixmarket import write_mtx

        path = tmp_path / "m.mtx"
        write_mtx(path, small_coo)
        assert parse_matrix_spec(f"mtx:{path}") == small_coo

    def test_unknown_spec(self):
        with pytest.raises(ReproError):
            parse_matrix_spec("banana:1")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Uni-STC" in out
        assert "spgemm" in out

    def test_kernels(self, capsys):
        assert main(["kernels", "--matrix", "band:64:6:0.5",
                     "--kernel", "spmv", "--stc", "ds-stc,uni-stc"]) == 0
        out = capsys.readouterr().out
        assert "uni-stc" in out and "speedup" in out

    def test_kernels_spmspv(self, capsys):
        assert main(["kernels", "--matrix", "random:64:0.1",
                     "--kernel", "spmspv", "--stc", "uni-stc"]) == 0
        assert "spmspv" in capsys.readouterr().out

    def test_kernels_unknown_stc(self, capsys):
        assert main(["kernels", "--stc", "tpu"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_formats(self, capsys):
        assert main(["formats", "--matrix", "band:64:8:0.8"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out
        assert "bbc" in out

    def test_amg(self, capsys):
        assert main(["amg", "--grid", "10", "--stc", "ds-stc,uni-stc"]) == 0
        out = capsys.readouterr().out
        assert "V-cycles" in out
        assert "spgemm cycles" in out

    def test_amg_one_level_hierarchy_reports_zero_spgemm(self, capsys):
        # A grid this small is already at the coarse size: the solve
        # traces SpMVs only.
        assert main(["amg", "--grid", "4", "--stc", "uni-stc"]) == 0
        out = capsys.readouterr().out
        assert "levels [16]" in out
        row = next(l for l in out.splitlines() if l.lstrip().startswith("uni-stc"))
        assert row.split()[-1] == "0"

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_amg_rejects_an_empty_grid(self, capsys, grid):
        assert main(["amg", "--grid", grid, "--stc", "uni-stc"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "Total Overhead" in out
        assert "A100" in out

    def test_area_dpg_sweep(self, capsys):
        assert main(["area", "--dpgs", "4"]) == 0
        assert main(["area", "--dpgs", "16"]) == 0

    def test_trace(self, capsys):
        assert main(["trace", "--density", "0.3", "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycle 0" in out
        assert "intermediate products" in out

    def test_bad_matrix_spec_returns_error(self, capsys):
        assert main(["kernels", "--matrix", "nope:1"]) == 2

    def test_corpus(self, capsys):
        assert main(["corpus", "--limit", "3", "--kernel", "spmv",
                     "--stc", "ds-stc,uni-stc"]) == 0
        out = capsys.readouterr().out
        assert "Aver ExP" in out
        assert "vs ds-stc" in out

    def test_corpus_needs_two_stcs(self, capsys):
        assert main(["corpus", "--stc", "uni-stc"]) == 2


class TestDseCommand:
    SPEC = '{"config": {"num_dpgs": [4, 8]}, "matrices": ["rep:cant"], "kernels": ["spmv"]}'

    def _spec_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(self.SPEC, encoding="utf-8")
        return str(path)

    def test_grid_campaign(self, capsys, tmp_path):
        assert main(["dse", "--space", self._spec_file(tmp_path),
                     "--matrix", "band:64:8:0.5"]) == 0
        out = capsys.readouterr().out
        assert "dse campaign [grid:0]" in out
        assert "2 candidate config(s)" in out
        assert "frontier:" in out
        assert "knee point:" in out

    def test_out_writes_frontier_json(self, capsys, tmp_path):
        out_path = tmp_path / "frontier.json"
        assert main(["dse", "--space", self._spec_file(tmp_path),
                     "--matrix", "band:64:8:0.5",
                     "--out", str(out_path)]) == 0
        import json

        blob = json.loads(out_path.read_text())
        assert blob["kind"] == "repro.dse.frontier"
        assert blob["benchmarks"]

    def test_plot_flag(self, capsys, tmp_path):
        assert main(["dse", "--space", self._spec_file(tmp_path),
                     "--matrix", "band:64:8:0.5", "--plot"]) == 0
        assert "cycles vs area" in capsys.readouterr().out

    def test_resume_replays_journal(self, capsys, tmp_path):
        journal = str(tmp_path / "dse.jsonl")
        spec = self._spec_file(tmp_path)
        base = ["dse", "--space", spec, "--matrix", "band:64:8:0.5",
                "--checkpoint", journal]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "3 point(s) simulated, 0 replayed" in cold
        assert main(base + ["--resume"]) == 0
        warm = capsys.readouterr().out
        assert "0 point(s) simulated, 3 replayed" in warm

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["dse", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_random_strategy_needs_valid_name(self):
        with pytest.raises(SystemExit):
            main(["dse", "--strategy", "anneal"])

    def test_bad_space_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "space.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["dse", "--space", str(bad)]) == 2
        assert "cannot read space spec" in capsys.readouterr().err

    def test_seeded_random_deterministic(self, capsys, tmp_path):
        args = ["dse", "--space", self._spec_file(tmp_path),
                "--matrix", "band:64:8:0.5",
                "--strategy", "random", "--seed", "0", "--budget", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestInfer:
    BASE = ["infer", "--model", "resnet50", "--scale", "0.05",
            "--stc", "uni-stc"]

    def test_prints_schedule_and_summary(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "resnet50 on uni-stc" in out
        assert "e2e latency:" in out and "DRAM" in out
        assert "spgemm" in out and "spmm" in out

    def test_out_writes_model_report(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        assert main(self.BASE + ["--batch", "2", "--out", str(path)]) == 0
        import json

        doc = json.loads(path.read_text())
        assert doc["kind"] == "repro.model_report"
        assert doc["batch"] == 2
        assert doc["e2e_latency"] > 0
        assert len(doc["nodes"]) == 2 * 6     # 6 layers x 2 requests

    def test_multi_stc_writes_report_set(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        assert main(["infer", "--model", "transformer", "--scale", "0.125",
                     "--stc", "uni-stc,ds-stc", "--out", str(path)]) == 0
        import json

        doc = json.loads(path.read_text())
        assert doc["kind"] == "repro.model_report_set"
        assert set(doc["reports"]) == {"uni-stc", "ds-stc"}

    def test_buffer_budget_flag_reaches_the_plan(self, capsys, tmp_path):
        path = tmp_path / "nobuf.json"
        assert main(self.BASE + ["--buffer-kib", "0",
                                 "--out", str(path)]) == 0
        import json

        doc = json.loads(path.read_text())
        assert doc["buffer"]["budget_bytes"] == 0
        assert doc["buffer"]["resident"] == []

    def test_unknown_stc_is_a_domain_error(self, capsys):
        assert main(["infer", "--stc", "tpu"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBenchExitStatus:
    """``repro bench`` fails on any identity check, naming the section."""

    @staticmethod
    def _report(section=None):
        report = {
            "corpus_sweep": {"reports_identical": True, "report_mismatches": []},
            "store": {"reports_identical": True, "report_mismatches": []},
            "infer": {"totals_match": True},
        }
        if section == "infer":
            report["infer"]["totals_match"] = False
        elif section is not None:
            report[section] = {"reports_identical": False,
                               "report_mismatches": ["spmv:band"]}
        return report

    @pytest.fixture
    def bench(self, monkeypatch):
        from repro.perf import bench

        monkeypatch.setattr(bench, "render_summary", lambda report: "summary")

        def use(report):
            monkeypatch.setattr(bench, "run_bench", lambda **_: report)
        return use

    def test_clean_report_exits_zero(self, bench, capsys):
        bench(self._report())
        assert main(["bench", "--smoke"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("section", ["corpus_sweep", "store", "infer"])
    def test_failed_check_exits_one(self, bench, capsys, section):
        bench(self._report(section))
        assert main(["bench", "--smoke"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}: ")
        if section != "infer":
            assert "spmv:band" in err
