"""Tests for AMG cycle/smoother variants, BBC transpose and the
benchmark-regression comparator."""

import json

import numpy as np
import pytest

from repro.apps.amg import AMGSolver
from repro.analysis.regression import compare_runs, render_report
from repro.arch.unistc import UniSTC
from repro.errors import FormatError, ShapeError
from repro.formats import BBCMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.transpose import transpose_bbc
from repro.sim.engine import simulate_kernel
from repro.workloads.synthetic import banded, poisson2d


@pytest.fixture(scope="module")
def poisson():
    return CSRMatrix.from_coo(poisson2d(14))


class TestAMGVariants:
    def test_gauss_seidel_converges(self, poisson):
        solver = AMGSolver(poisson, smoother="gauss-seidel")
        b = np.ones(poisson.shape[0])
        result = solver.solve(b)
        assert result.converged

    def test_gauss_seidel_fewer_iterations_than_jacobi(self, poisson):
        b = np.ones(poisson.shape[0])
        jac = AMGSolver(poisson, smoother="jacobi").solve(b)
        gs = AMGSolver(poisson, smoother="gauss-seidel").solve(b)
        assert gs.iterations <= jac.iterations

    def test_wcycle_converges_in_fewer_iterations(self, poisson):
        b = np.ones(poisson.shape[0])
        v = AMGSolver(poisson, gamma=1).solve(b)
        w = AMGSolver(poisson, gamma=2).solve(b)
        assert w.converged
        assert w.iterations <= v.iterations

    def test_extra_sweeps_help(self, poisson):
        b = np.ones(poisson.shape[0])
        light = AMGSolver(poisson, pre_sweeps=1, post_sweeps=1).solve(b)
        heavy = AMGSolver(poisson, pre_sweeps=3, post_sweeps=3).solve(b)
        assert heavy.iterations <= light.iterations

    def test_rejects_unknown_smoother(self, poisson):
        with pytest.raises(ShapeError):
            AMGSolver(poisson, smoother="sor")

    def test_rejects_bad_gamma(self, poisson):
        with pytest.raises(ShapeError):
            AMGSolver(poisson, gamma=3)

    def test_wcycle_traces_more_coarse_work(self, poisson):
        b = np.ones(poisson.shape[0])
        v_solver = AMGSolver(poisson, gamma=1)
        v_solver.solve(b, max_iterations=3, tol=1e-300)
        w_solver = AMGSolver(poisson, gamma=2)
        w_solver.solve(b, max_iterations=3, tol=1e-300)
        assert (w_solver.trace.kernel_counts()["spmv"]
                > v_solver.trace.kernel_counts()["spmv"])


class TestBBCTranspose:
    def test_matches_dense(self, rng):
        for trial in range(5):
            m, n = rng.integers(1, 80, size=2)
            dense = rng.random((m, n)) * (rng.random((m, n)) < 0.2)
            t = transpose_bbc(BBCMatrix.from_dense(dense))
            assert t.shape == (n, m)
            assert np.allclose(t.to_dense(), dense.T)

    def test_involution(self, rng):
        dense = rng.random((48, 32)) * (rng.random((48, 32)) < 0.3)
        bbc = BBCMatrix.from_dense(dense)
        back = transpose_bbc(transpose_bbc(bbc))
        assert np.allclose(back.to_dense(), dense)

    def test_empty_matrix(self):
        from repro.formats.coo import COOMatrix

        t = transpose_bbc(BBCMatrix.from_coo(COOMatrix((5, 9), [], [], [])))
        assert t.shape == (9, 5)
        assert t.nnz == 0

    def test_structure_validates(self, rng):
        dense = rng.random((40, 40)) * (rng.random((40, 40)) < 0.3)
        t = transpose_bbc(BBCMatrix.from_dense(dense))
        # Reconstruction through the validated constructor succeeded,
        # and block columns are sorted within rows.
        for brow in range(t.block_rows):
            cols, _ = t.block_row(brow)
            assert np.all(np.diff(cols) > 0)

    def test_transpose_feeds_simulator(self, rng):
        dense = rng.random((48, 48)) * (rng.random((48, 48)) < 0.25)
        bbc = BBCMatrix.from_dense(dense)
        report = simulate_kernel("spgemm", transpose_bbc(bbc), UniSTC(), b=bbc)
        assert report.products == int(
            ((dense.T != 0).sum(axis=0) * (dense != 0).sum(axis=1)).sum()
        )


class TestRegressionCompare:
    def _write_run(self, path, metrics):
        payload = {"benchmarks": [
            {"name": name, "extra_info": info} for name, info in metrics.items()
        ]}
        path.write_text(json.dumps(payload))

    def test_identical_runs_clean(self, tmp_path):
        self._write_run(tmp_path / "a.json", {"bench": {"speedup": 2.0}})
        self._write_run(tmp_path / "b.json", {"bench": {"speedup": 2.0}})
        report = compare_runs(tmp_path / "a.json", tmp_path / "b.json")
        assert report.clean
        assert render_report(report) == "benchmark metrics identical"

    def test_detects_changes(self, tmp_path):
        self._write_run(tmp_path / "a.json", {"bench": {"speedup": 2.0, "energy": 3.0}})
        self._write_run(tmp_path / "b.json", {"bench": {"speedup": 2.5, "energy": 3.0}})
        report = compare_runs(tmp_path / "a.json", tmp_path / "b.json")
        assert len(report.changed) == 1
        delta = report.changed[0]
        assert delta.metric == "speedup"
        assert delta.percent_change == pytest.approx(25.0)
        assert report.significant(0.05) == [delta]
        assert report.significant(0.5) == []

    def test_detects_added_removed(self, tmp_path):
        self._write_run(tmp_path / "a.json", {"old": {"x": 1.0}})
        self._write_run(tmp_path / "b.json", {"new": {"x": 1.0}})
        report = compare_runs(tmp_path / "a.json", tmp_path / "b.json")
        assert report.added == ["new"]
        assert report.removed == ["old"]
        assert "added: new" in render_report(report)

    def test_rejects_non_benchmark_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{}")
        with pytest.raises(FormatError):
            compare_runs(tmp_path / "bad.json", tmp_path / "bad.json")
