"""End-to-end integration scenarios across multiple subsystems."""

import numpy as np
import pytest

from repro.apps.amg import AMGSolver
from repro.apps.cg import conjugate_gradient
from repro.apps.trace import KernelTrace
from repro.arch.unistc import UniSTC
from tests.warp import WarpLog, warp_spgemm, warp_spmv
from repro.baselines import DsSTC, RmSTC
from repro.formats.bbc import BBCMatrix
from repro.formats.csr import CSRMatrix
from repro.graph import GraphRunner
from repro.kernels import bbc_kernels, reference
from repro.sim.engine import simulate_kernel
from repro.workloads.representative import build_matrix
from repro.workloads.synthetic import poisson2d


class TestPreconditionedSolveReplay:
    """AMG-preconditioned CG, traced end to end and replayed on STCs."""

    @pytest.fixture(scope="class")
    def solve(self):
        a = CSRMatrix.from_coo(poisson2d(14))
        amg = AMGSolver(a)
        trace = KernelTrace()
        rng = np.random.default_rng(0)
        b = rng.random(a.shape[0])
        result = conjugate_gradient(a, b, preconditioner=amg, trace=trace)
        return a, amg, trace, result, b

    def test_solution_correct(self, solve):
        a, _, _, result, b = solve
        assert result.converged
        assert np.allclose(a.to_dense() @ result.solution, b, atol=1e-6)

    def test_combined_trace_replay_ordering(self, solve):
        """Uni-STC clearly beats DS-STC on the whole solve and stays
        within a whisker of RM-STC even on this degenerate workload
        (<=5 nnz per row: every block sits at the one-cycle floor where
        the row-merge design is equally at home)."""
        _, amg, cg_trace, _, _ = solve
        graph = KernelTrace(amg.trace.ops + cg_trace.ops).graph("pcg")
        ds, rm, uni = (GraphRunner(graph, stc).run().e2e_compute_cycles
                       for stc in (DsSTC(), RmSTC(), UniSTC()))
        assert uni < ds / 3
        assert uni < rm * 1.1

    def test_trace_contains_both_kernels(self, solve):
        _, amg, cg_trace, _, _ = solve
        assert "spgemm" in amg.trace.kernel_counts()
        assert cg_trace.kernel_counts()["spmv"] >= 2

    def test_preconditioner_traces_no_residual_checks(self, solve):
        """Each PCG iteration applies one bare V-cycle: the AMG trace
        after setup holds only the cycle's own SpMVs, none of
        ``solve``'s residual bookkeeping."""
        _, amg, _, _, _ = solve
        labels = {op.label for op in amg.trace.ops}
        assert "jacobi" in labels     # the preconditioner's cycles ran
        assert not labels & {"residual0", "check"}


class TestNumericsAgreeAcrossLayers:
    """The three software layers (reference CSR, BBC blocks, warp
    executor) must agree bit-for-bit-close on real workloads."""

    @pytest.fixture(scope="class")
    def matrix(self):
        coo = build_matrix("cant", n=128)
        return coo, CSRMatrix.from_coo(coo), BBCMatrix.from_coo(coo)

    def test_spmv_three_ways(self, matrix, rng):
        coo, csr, bbc = matrix
        x = rng.random(coo.shape[1])
        expected = coo.to_dense() @ x
        assert np.allclose(reference.spmv(csr, x), expected)
        assert np.allclose(bbc_kernels.spmv(bbc, x), expected)
        assert np.allclose(warp_spmv(bbc, x), expected)

    def test_spgemm_three_ways(self, matrix):
        coo, csr, bbc = matrix
        expected = coo.to_dense() @ coo.to_dense()
        assert np.allclose(reference.spgemm(csr, csr).to_dense(), expected)
        assert np.allclose(bbc_kernels.spgemm(bbc, bbc).to_dense(), expected)
        assert np.allclose(warp_spgemm(bbc, bbc).to_dense(), expected)

    def test_warp_log_consistent_with_simulated_tasks(self, matrix):
        coo, _, bbc = matrix
        log = WarpLog()
        warp_spgemm(bbc, bbc, log=log)
        report = simulate_kernel("spgemm", bbc, UniSTC())
        assert log.opcode_counts["stc.numeric.mm"] == report.t1_tasks


class TestSaveLoadSimulateRoundtrip:
    def test_simulation_identical_after_reload(self, tmp_path):
        coo = build_matrix("consph", n=128)
        bbc = BBCMatrix.from_coo(coo)
        bbc.save(tmp_path / "m.npz")
        reloaded = BBCMatrix.load(tmp_path / "m.npz")
        uni = UniSTC()
        original = simulate_kernel("spgemm", bbc, uni)
        again = simulate_kernel("spgemm", reloaded, uni)
        assert original.cycles == again.cycles
        assert original.energy_pj == pytest.approx(again.energy_pj)


class TestAdvisorMatchesSimulatedBenefit:
    def test_bbc_recommended_where_uni_shines(self):
        """On a block-dense matrix both the format advisor and the
        simulator point the same way: BBC + Uni-STC."""
        from repro.formats.advisor import recommend
        from repro.workloads.synthetic import block_dense

        coo = block_dense(96, block_density=0.05, fill=0.85, seed=3)
        assert recommend(coo) == "bbc"
        bbc = BBCMatrix.from_coo(coo)
        uni = simulate_kernel("spgemm", bbc, UniSTC())
        ds = simulate_kernel("spgemm", bbc, DsSTC())
        assert uni.cycles < ds.cycles
