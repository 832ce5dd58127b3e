"""Tests for the AMG solver."""

import numpy as np
import pytest

from repro.apps.amg import AMGSolver, aggregate, strength_graph, tentative_prolongator
from repro.errors import ConvergenceError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.workloads.synthetic import poisson2d


@pytest.fixture(scope="module")
def poisson():
    return CSRMatrix.from_coo(poisson2d(16))


@pytest.fixture(scope="module")
def solver(poisson):
    return AMGSolver(poisson)


class TestComponents:
    def test_strength_graph_keeps_diagonal(self, poisson):
        s = strength_graph(poisson, theta=0.9)
        assert np.all(s.diagonal() != 0)

    def test_strength_graph_filters(self, poisson):
        loose = strength_graph(poisson, theta=0.01)
        tight = strength_graph(poisson, theta=0.9)
        assert tight.nnz <= loose.nnz

    def test_aggregate_covers_all_nodes(self, poisson):
        s = strength_graph(poisson)
        agg, count = aggregate(s)
        assert (agg >= 0).all()
        assert agg.max() == count - 1
        assert count < poisson.shape[0]

    def test_tentative_prolongator_partition(self, poisson):
        s = strength_graph(poisson)
        agg, count = aggregate(s)
        p = tentative_prolongator(agg, count)
        assert p.shape == (poisson.shape[0], count)
        assert (p.row_nnz() == 1).all()  # each fine node in one aggregate


class TestHierarchy:
    def test_levels_shrink(self, solver):
        sizes = [level.a.shape[0] for level in solver.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) >= 2

    def test_grid_complexity_reasonable(self, solver):
        assert 1.0 < solver.grid_complexity() < 3.0

    def test_prolongators_link_levels(self, solver):
        for fine, coarse in zip(solver.levels, solver.levels[1:]):
            assert fine.p.shape == (fine.a.shape[0], coarse.a.shape[0])
            assert fine.r.shape == (coarse.a.shape[0], fine.a.shape[0])

    def test_galerkin_product_correct(self, solver):
        """A_c must equal P^T A P exactly."""
        fine = solver.levels[0]
        coarse = solver.levels[1]
        expected = fine.r.to_dense() @ fine.a.to_dense() @ fine.p.to_dense()
        assert np.allclose(coarse.a.to_dense(), expected)

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            AMGSolver(CSRMatrix.empty((4, 5)))

    def test_rejects_zero_diagonal(self):
        bad = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ConvergenceError):
            AMGSolver(bad)

    def test_unsmoothed_variant(self, poisson):
        plain = AMGSolver(poisson, smooth_prolongator=False)
        b = np.ones(poisson.shape[0])
        result = plain.solve(b, max_iterations=120)
        assert result.residuals[-1] < result.residuals[0]


class TestSolve:
    def test_converges_on_poisson(self, solver, poisson):
        rng = np.random.default_rng(0)
        b = rng.random(poisson.shape[0])
        result = solver.solve(b)
        assert result.converged
        assert np.allclose(poisson.to_dense() @ result.solution, b, atol=1e-6)

    def test_residuals_monotone_overall(self, solver, poisson):
        b = np.ones(poisson.shape[0])
        result = solver.solve(b)
        assert result.residuals[-1] < 1e-6 * result.residuals[0]

    def test_zero_rhs(self, solver, poisson):
        result = solver.solve(np.zeros(poisson.shape[0]))
        assert np.allclose(result.solution, 0.0)
        assert result.iterations == 0

    def test_warm_start(self, solver, poisson):
        b = np.ones(poisson.shape[0])
        exact = np.linalg.solve(poisson.to_dense(), b)
        result = solver.solve(b, x0=exact)
        assert result.iterations <= 1

    def test_rhs_shape_checked(self, solver):
        with pytest.raises(ShapeError):
            solver.solve(np.ones(3))

    def test_iteration_budget_respected(self, solver, poisson):
        b = np.ones(poisson.shape[0])
        result = solver.solve(b, tol=1e-300, max_iterations=3)
        assert result.iterations == 3


class TestTrace:
    def test_trace_records_both_kernels(self, poisson):
        fresh = AMGSolver(poisson)
        fresh.solve(np.ones(poisson.shape[0]), max_iterations=5)
        counts = fresh.trace.kernel_counts()
        assert counts.get("spgemm", 0) >= 3   # smoothing + 2 Galerkin per level
        assert counts.get("spmv", 0) > 10     # V-cycle smoothing/residuals

    def test_trace_replay_orders_stcs(self, poisson):
        """Fig. 21 premise: Uni-STC accelerates the AMG trace most."""
        from repro.arch.unistc import UniSTC
        from repro.baselines import DsSTC
        from repro.graph import GraphRunner

        fresh = AMGSolver(poisson)
        fresh.solve(np.ones(poisson.shape[0]), max_iterations=2)
        graph = fresh.trace.graph("amg")
        ds = GraphRunner(graph, DsSTC()).run().e2e_compute_cycles
        uni = GraphRunner(graph, UniSTC()).run().e2e_compute_cycles
        assert uni < ds
