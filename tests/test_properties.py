"""Cross-module metamorphic and property-based tests.

These pin invariants no single-module test covers: permutation
invariance of simulated totals, agreement between analytic cycle
formulas and the dataflow models, conservation across format chains,
and monotonicity of the energy model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.counters import Counters
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC
from repro.energy.model import DEFAULT_MODEL
from repro.formats import BBCMatrix, COOMatrix, CSRMatrix
from repro.kernels import bbc_kernels, reference
from repro.sim.engine import simulate_kernel
from repro.workloads.matrixmarket import read_mtx, write_mtx

from tests.conftest import make_block_task, task_batch
from tests.stepped_models import simulate_block


class TestPermutationInvariance:
    """Reordering whole block rows permutes the T1 stream but must not
    change any aggregate the simulators report."""

    @pytest.mark.parametrize("stc_cls", [UniSTC, DsSTC, RmSTC])
    def test_block_row_permutation(self, stc_cls, rng):
        dense = rng.random((64, 64)) * (rng.random((64, 64)) < 0.2)
        # Permute rows in whole 16-blocks.
        perm_blocks = rng.permutation(4)
        permuted = np.concatenate([dense[16 * b : 16 * (b + 1)] for b in perm_blocks])
        a = BBCMatrix.from_dense(dense)
        b = BBCMatrix.from_dense(permuted)
        stc = stc_cls()
        ra = simulate_kernel("spmv", a, stc)
        rb = simulate_kernel("spmv", b, stc)
        assert ra.cycles == rb.cycles
        assert ra.products == rb.products
        assert ra.energy_pj == pytest.approx(rb.energy_pj)


class TestAnalyticCrossChecks:
    """Closed-form cycle counts the dataflow models must reproduce."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ds_stc_cycle_formula(self, seed):
        """DS-STC cycles = sum over live K of chunk products."""
        task = make_block_task(0.3, 0.3, seed)
        a, b = task.a_bitmap(), task.b_bitmap()
        expected = 0
        for k in range(16):
            na, nb = int(a[:, k].sum()), int(b[k].sum())
            if na and nb:
                expected += -(-na // 8) * (-(-nb // 8))
        result = simulate_block(DsSTC(), task)
        assert result.cycles == max(1, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_uni_products_formula(self, seed):
        task = make_block_task(0.35, 0.35, seed)
        a, b = task.a_bitmap().astype(int), task.b_bitmap().astype(int)
        assert simulate_block(UniSTC(), task).products == int((a.sum(0) * b.sum(1)).sum())

    @pytest.mark.parametrize("seed", range(4))
    def test_uni_c_outputs_formula(self, seed):
        task = make_block_task(0.3, 0.3, seed)
        a, b = task.a_bitmap().astype(int), task.b_bitmap().astype(int)
        expected = int(np.count_nonzero(a @ b))
        result = simulate_block(UniSTC(), task)
        assert result.counters.get("c_elem_writes") == expected


class TestFormatChains:
    """Values survive arbitrary chains of format conversions."""

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_coo_csr_bbc_chain(self, m, n, seed):
        gen = np.random.default_rng(seed)
        dense = gen.random((m, n)) * (gen.random((m, n)) < 0.3)
        coo = COOMatrix.from_dense(dense)
        chained = BBCMatrix.from_csr(CSRMatrix.from_coo(coo)).to_csr().to_coo()
        assert chained == coo

    def test_mtx_bbc_save_chain(self, tmp_path, rng):
        dense = rng.random((30, 30)) * (rng.random((30, 30)) < 0.25)
        coo = COOMatrix.from_dense(dense)
        write_mtx(tmp_path / "m.mtx", coo)
        bbc = BBCMatrix.from_coo(read_mtx(tmp_path / "m.mtx"))
        bbc.save(tmp_path / "m.npz")
        assert np.allclose(BBCMatrix.load(tmp_path / "m.npz").to_dense(), dense)


class TestKernelAlgebra:
    """Algebraic identities the numeric kernels must satisfy."""

    def test_spmv_linearity(self, rng):
        dense = rng.random((32, 32)) * (rng.random((32, 32)) < 0.3)
        bbc = BBCMatrix.from_dense(dense)
        x, y = rng.random(32), rng.random(32)
        lhs = bbc_kernels.spmv(bbc, 2 * x + y)
        rhs = 2 * bbc_kernels.spmv(bbc, x) + bbc_kernels.spmv(bbc, y)
        assert np.allclose(lhs, rhs)

    def test_spgemm_associativity(self, rng):
        ds = [rng.random((20, 20)) * (rng.random((20, 20)) < 0.3) for _ in range(3)]
        ms = [CSRMatrix.from_dense(d) for d in ds]
        left = reference.spgemm(reference.spgemm(ms[0], ms[1]), ms[2])
        right = reference.spgemm(ms[0], reference.spgemm(ms[1], ms[2]))
        assert np.allclose(left.to_dense(), right.to_dense())

    def test_transpose_product_identity(self, rng):
        dense = rng.random((24, 18)) * (rng.random((24, 18)) < 0.3)
        a = CSRMatrix.from_dense(dense)
        ata = reference.spgemm(a.transpose(), a)
        assert np.allclose(ata.to_dense(), dense.T @ dense)
        assert np.allclose(ata.to_dense(), ata.to_dense().T)

    def test_spmm_column_consistency(self, rng):
        dense = rng.random((20, 20)) * (rng.random((20, 20)) < 0.3)
        bbc = BBCMatrix.from_dense(dense)
        b = rng.random((20, 5))
        full = bbc_kernels.spmm(bbc, b)
        for j in range(5):
            assert np.allclose(full[:, j], bbc_kernels.spmv(bbc, b[:, j]))


class TestEnergyProperties:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_energy_monotone_in_counts(self, low, extra):
        base = Counters({"mac_ops": low, "a_elem_reads": low})
        more = Counters({"mac_ops": low + extra, "a_elem_reads": low})
        assert (DEFAULT_MODEL.energy_pj(more, "uni-stc")
                >= DEFAULT_MODEL.energy_pj(base, "uni-stc"))

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_energy_scales_linearly(self, factor):
        counters = Counters({"mac_ops": 100, "c_net_transfers": 50, "queue_ops": 10})
        scaled = counters.scaled(factor)
        assert DEFAULT_MODEL.energy_pj(scaled, "rm-stc") == pytest.approx(
            factor * DEFAULT_MODEL.energy_pj(counters, "rm-stc")
        )


class TestSimulatorStability:
    @pytest.mark.parametrize("density", [0.05, 0.2, 0.5, 1.0])
    def test_task_weight_equivalence(self, density):
        """One weighted task equals repeating the unweighted task."""
        from repro.sim.engine import clear_cache, simulate_batches

        base = make_block_task(density, density, 3)
        repeated = [task_batch(base, [1])] * 5
        weighted = [task_batch(base, [5])]
        uni = UniSTC()
        clear_cache()
        a = simulate_batches(uni, repeated)
        clear_cache()
        b = simulate_batches(uni, weighted)
        assert a.cycles == b.cycles
        assert a.energy_pj == pytest.approx(b.energy_pj)
        assert np.array_equal(a.util_hist.bins, b.util_hist.bins)

    def test_cache_does_not_change_results(self, banded_bbc):
        from repro.sim.engine import clear_cache

        uni = UniSTC()
        clear_cache()
        cold = simulate_kernel("spgemm", banded_bbc, uni)
        warm = simulate_kernel("spgemm", banded_bbc, uni)
        assert cold.cycles == warm.cycles
        assert cold.energy_pj == pytest.approx(warm.energy_pj)
        assert cold.counters == warm.counters
