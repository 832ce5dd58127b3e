"""Tests for the CG solver and the dataflow trace."""

import numpy as np
import pytest

from repro.apps.amg import AMGSolver
from repro.apps.cg import conjugate_gradient
from repro.apps.trace import KernelTrace
from repro.arch.dataflow_trace import trace_block
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.errors import ConvergenceError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.workloads.synthetic import poisson2d

from tests.conftest import make_block_task
from tests.stepped_models import simulate_block


@pytest.fixture(scope="module")
def poisson():
    return CSRMatrix.from_coo(poisson2d(12))


class TestCG:
    def test_converges_on_poisson(self, poisson):
        rng = np.random.default_rng(0)
        b = rng.random(poisson.shape[0])
        result = conjugate_gradient(poisson, b)
        assert result.converged
        assert np.allclose(poisson.to_dense() @ result.solution, b, atol=1e-6)

    def test_residuals_decrease(self, poisson):
        b = np.ones(poisson.shape[0])
        result = conjugate_gradient(poisson, b)
        assert result.residuals[-1] < 1e-8 * result.residuals[0]

    def test_preconditioned_fewer_iterations(self, poisson):
        b = np.ones(poisson.shape[0])
        plain = conjugate_gradient(poisson, b)
        amg = AMGSolver(poisson)
        pcg = conjugate_gradient(poisson, b, preconditioner=amg)
        assert pcg.converged
        assert pcg.iterations < plain.iterations

    def test_traces_spmv(self, poisson):
        trace = KernelTrace()
        conjugate_gradient(poisson, np.ones(poisson.shape[0]), trace=trace)
        counts = trace.kernel_counts()
        assert counts["spmv"] >= 2

    def test_zero_rhs(self, poisson):
        result = conjugate_gradient(poisson, np.zeros(poisson.shape[0]))
        assert result.converged
        assert result.iterations == 0

    def test_warm_start(self, poisson):
        b = np.ones(poisson.shape[0])
        exact = np.linalg.solve(poisson.to_dense(), b)
        result = conjugate_gradient(poisson, b, x0=exact)
        assert result.iterations <= 1

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeError):
            conjugate_gradient(CSRMatrix.empty((3, 4)), np.ones(4))

    def test_rejects_bad_rhs(self, poisson):
        with pytest.raises(ShapeError):
            conjugate_gradient(poisson, np.ones(3))

    def test_rejects_indefinite(self):
        indefinite = CSRMatrix.from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(ConvergenceError):
            conjugate_gradient(indefinite, np.array([0.0, 1.0]))

    def test_iteration_budget(self, poisson):
        b = np.ones(poisson.shape[0])
        result = conjugate_gradient(poisson, b, tol=1e-300, max_iterations=3)
        assert result.iterations == 3
        assert not result.converged


class TestDataflowTrace:
    def test_lanes_match_simulator(self):
        for seed in range(4):
            task = make_block_task(0.3, 0.3, seed)
            trace = trace_block(task)
            result = simulate_block(UniSTC(), task)
            assert len(trace.cycles) == result.cycles
            assert sum(c.lanes_used for c in trace.cycles) == result.products

    def test_t4_codes_decode(self):
        task = make_block_task(0.4, 0.4, 1)
        trace = trace_block(task)
        for cyc in trace.cycles:
            for d in cyc.dispatches:
                for t4 in d.t4_tasks:
                    assert t4.code == (t4.target << 4) | t4.pattern
                    assert "C[" in t4.describe()

    def test_dispatch_counts_match(self):
        task = make_block_task(0.25, 0.25, 2)
        trace = trace_block(task)
        t3_total = sum(len(c.dispatches) for c in trace.cycles)
        assert t3_total >= 1
        for cyc in trace.cycles:
            assert len(cyc.dispatches) <= 8  # DPG count

    def test_empty_task_single_idle_cycle(self):
        task = T1Task.from_bitmaps(
            np.zeros((16, 16), bool), np.ones((16, 16), bool)
        )
        trace = trace_block(task)
        assert len(trace.cycles) == 1
        assert trace.cycles[0].lanes_used == 0

    def test_render_output(self):
        task = make_block_task(0.3, 0.3, 3)
        text = trace_block(task).render(max_cycles=2)
        assert "cycle 0" in text
        assert "DPG0" in text

    def test_vector_task(self):
        task = make_block_task(0.5, 0.8, 4, n=1)
        trace = trace_block(task)
        result = simulate_block(UniSTC(), task)
        assert sum(c.lanes_used for c in trace.cycles) == result.products
