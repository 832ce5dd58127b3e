"""Closed-form cycle cross-checks for GAMMA, SIGMA and the new workloads."""

import numpy as np
import pytest

from repro.apps.amg import AMGSolver
from repro.baselines import Gamma, Sigma
from repro.formats.csr import CSRMatrix
from repro.workloads.synthetic import poisson2d, poisson3d

from tests.conftest import make_block_task
from tests.stepped_models import simulate_block


class TestGammaFormula:
    @pytest.mark.parametrize("seed", range(6))
    def test_cycle_formula(self, seed):
        """GAMMA cycles = sum over live K of ceil(live B cols / 4)."""
        task = make_block_task(0.3, 0.3, seed)
        a, b = task.a_bitmap(), task.b_bitmap()
        expected = 0
        for k in range(16):
            if not a[:, k].any():
                continue
            live = int(b[k].sum())
            if live:
                expected += -(-live // 4)
        result = simulate_block(Gamma(), task)
        assert result.cycles == max(1, expected)

    def test_empty_rows_do_not_reduce_cycles(self):
        """Two tasks with the same B and different A row occupancy (but
        the same live K set) cost GAMMA the same cycles — it cannot
        bypass empty rows."""
        b = np.ones((16, 16), dtype=bool)
        a_thin = np.zeros((16, 16), dtype=bool)
        a_thin[0, :] = True
        a_fat = np.ones((16, 16), dtype=bool)
        thin = simulate_block(Gamma(), make_task(a_thin, b))
        fat = simulate_block(Gamma(), make_task(a_fat, b))
        assert thin.cycles == fat.cycles
        assert thin.products < fat.products


def make_task(a, b):
    from repro.arch.tasks import T1Task

    return T1Task.from_bitmaps(a, b)


class TestSigmaFormula:
    @pytest.mark.parametrize("seed", range(6))
    def test_cycle_upper_bound(self, seed):
        """SIGMA cycles <= nonzero rows x ceil(live cols / 4)."""
        task = make_block_task(0.3, 0.3, seed)
        a, b = task.a_bitmap(), task.b_bitmap()
        live_cols = int(b.any(axis=0).sum())
        nz_rows = int(a.any(axis=1).sum())
        bound = max(1, nz_rows * (-(-live_cols // 4) if live_cols else 0))
        assert simulate_block(Sigma(), task).cycles <= bound

    def test_row_serial(self):
        """One dense row costs as many cycles as its column chunks."""
        a = np.zeros((16, 16), dtype=bool)
        a[3, :] = True
        b = np.ones((16, 16), dtype=bool)
        result = simulate_block(Sigma(), make_task(a, b))
        assert result.cycles == 4  # 16 live cols / 4-wide groups


class TestPoissonGenerators:
    def test_poisson3d_structure(self):
        m = poisson3d(3)
        dense = m.to_dense()
        assert dense.shape == (27, 27)
        assert np.allclose(dense, dense.T)
        assert np.all(np.diag(dense) == 6.0)
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_poisson3d_corner_degree(self):
        m = poisson3d(3)
        row_nnz = CSRMatrix.from_coo(m).row_nnz()
        assert row_nnz.min() == 4   # corner: diagonal + 3 neighbours
        assert row_nnz.max() == 7   # interior: diagonal + 6 neighbours

    def test_anisotropic_poisson_spd(self):
        m = poisson2d(8, epsilon=0.01)
        dense = m.to_dense()
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_amg_solves_3d(self):
        a = CSRMatrix.from_coo(poisson3d(5))
        solver = AMGSolver(a)
        rng = np.random.default_rng(0)
        b = rng.random(a.shape[0])
        result = solver.solve(b, max_iterations=80)
        assert result.residuals[-1] < 1e-6 * result.residuals[0]

    def test_amg_handles_anisotropy(self):
        a = CSRMatrix.from_coo(poisson2d(12, epsilon=0.05))
        solver = AMGSolver(a, theta=0.25)
        b = np.ones(a.shape[0])
        result = solver.solve(b, max_iterations=150, tol=1e-6)
        assert result.residuals[-1] < 1e-4 * result.residuals[0]
