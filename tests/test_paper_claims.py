"""Expected-shape assertions: the paper's headline claims must hold.

These tests pin the *qualitative* results of the evaluation section —
who wins, ordering, and rough factors — so a regression in any model
that would silently flip a paper conclusion fails loudly.  Exact
factors live in EXPERIMENTS.md; the tolerances here are deliberately
wide.
"""

import numpy as np
import pytest

from repro.arch.config import UniSTCConfig
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, Gamma, NvDTC, RmSTC, Sigma, Trapezoid
from repro.energy.model import DEFAULT_MODEL
from repro.formats import BBCMatrix
from repro.sim.engine import simulate_kernel
from repro.sim.results import geomean
from repro.workloads.representative import build_matrix
from repro.workloads.synthetic import random_uniform

from tests.stepped_models import simulate_block


@pytest.fixture(scope="module")
def rep_matrices():
    return {
        name: BBCMatrix.from_coo(build_matrix(name, n=256))
        for name in ("consph", "cant", "gupta3")
    }


@pytest.fixture(scope="module")
def stcs():
    return {
        "nv-dtc": NvDTC(), "gamma": Gamma(), "sigma": Sigma(),
        "trapezoid": Trapezoid(), "ds-stc": DsSTC(), "rm-stc": RmSTC(),
        "uni-stc": UniSTC(),
    }


def _speedups(kernel, matrices, stcs, baseline="ds-stc"):
    per_stc = {name: [] for name in stcs}
    for bbc in matrices.values():
        base = simulate_kernel(kernel, bbc, stcs[baseline]).cycles
        for name, stc in stcs.items():
            per_stc[name].append(base / simulate_kernel(kernel, bbc, stc).cycles)
    return {name: geomean(vals) for name, vals in per_stc.items()}


class TestHeadline:
    def test_spgemm_uni_beats_all(self, rep_matrices, stcs):
        s = _speedups("spgemm", rep_matrices, stcs)
        assert all(s["uni-stc"] >= v for v in s.values())

    def test_spgemm_factors_near_paper(self, rep_matrices, stcs):
        """Paper: ~2.4x over DS-STC, ~1.45x over RM-STC at kernel level."""
        s = _speedups("spgemm", rep_matrices, stcs)
        assert 1.5 <= s["uni-stc"] <= 4.5
        assert 1.1 <= s["uni-stc"] / s["rm-stc"] <= 2.5

    def test_spmv_factors_near_paper(self, rep_matrices, stcs):
        """Paper: ~3.8x over DS-STC, ~1.4x over RM-STC."""
        s = _speedups("spmv", rep_matrices, stcs)
        assert 2.5 <= s["uni-stc"] <= 6.5
        assert 1.0 <= s["uni-stc"] / s["rm-stc"] <= 2.2

    def test_rm_is_sota_baseline(self, rep_matrices, stcs):
        """RM-STC beats DS-STC (it is the state of the art Uni-STC targets)."""
        for kernel in ("spgemm", "spmv", "spmm"):
            s = _speedups(kernel, rep_matrices, stcs)
            assert s["rm-stc"] > 1.0, kernel

    def test_uni_wins_every_kernel(self, rep_matrices, stcs):
        for kernel in ("spmv", "spmm", "spgemm"):
            s = _speedups(kernel, rep_matrices, stcs)
            best_baseline = max(v for k, v in s.items() if k != "uni-stc")
            assert s["uni-stc"] >= 0.95 * best_baseline, kernel


class TestEnergyClaims:
    def test_uni_lowest_energy_spgemm(self, rep_matrices):
        """Fig. 18: Uni-STC has the lowest total energy on SpGEMM."""
        for bbc in rep_matrices.values():
            uni = simulate_kernel("spgemm", bbc, UniSTC()).energy_pj
            ds = simulate_kernel("spgemm", bbc, DsSTC()).energy_pj
            rm = simulate_kernel("spgemm", bbc, RmSTC()).energy_pj
            assert uni < rm < ds

    def test_c_write_energy_gap(self, rep_matrices):
        """Fig. 18/19: DS-STC pays several times Uni-STC's write-C energy."""
        ratios = []
        for bbc in rep_matrices.values():
            uni = simulate_kernel("spgemm", bbc, UniSTC()).energy_breakdown["write_c"]
            ds = simulate_kernel("spgemm", bbc, DsSTC()).energy_breakdown["write_c"]
            ratios.append(ds / uni)
        assert geomean(ratios) > 3.0  # paper reports 6.5x

    def test_c_write_traffic_ordering(self, rep_matrices):
        """Fig. 19: Uni-STC writes the fewest elements towards C."""
        for bbc in rep_matrices.values():
            uni = simulate_kernel("spgemm", bbc, UniSTC()).c_write_traffic
            rm = simulate_kernel("spgemm", bbc, RmSTC()).c_write_traffic
            ds = simulate_kernel("spgemm", bbc, DsSTC()).c_write_traffic
            assert uni < rm <= ds

    def test_dense_energy_close_to_nv(self):
        """§VI-C: in dense workloads Uni-STC's energy stays near NV-DTC
        while DS-STC and RM-STC pay reuse/transfer overheads."""
        dense = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
        energies = {}
        for stc in (NvDTC(), DsSTC(), RmSTC(), UniSTC()):
            result = simulate_block(stc, dense)
            energies[stc.name] = DEFAULT_MODEL.energy_pj(result.counters, stc.name)
        assert energies["uni-stc"] <= 1.3 * energies["nv-dtc"]
        assert energies["uni-stc"] < energies["rm-stc"] < energies["ds-stc"]


class TestUtilisationClaims:
    def test_fig5_low_util_ordering(self, rep_matrices, stcs):
        """Fig. 5: Uni-STC has by far the fewest low-utilisation cycles."""
        for bbc in rep_matrices.values():
            uni = simulate_kernel("spgemm", bbc, stcs["uni-stc"]).util_hist.low_util_fraction()
            ds = simulate_kernel("spgemm", bbc, stcs["ds-stc"]).util_hist.low_util_fraction()
            rm = simulate_kernel("spgemm", bbc, stcs["rm-stc"]).util_hist.low_util_fraction()
            nv = simulate_kernel("spgemm", bbc, stcs["nv-dtc"]).util_hist.low_util_fraction()
            assert uni < ds and uni < rm and uni < nv

    def test_fig16_random_matrix_util_ordering(self, stcs):
        """Fig. 16: across the sparsity sweep Uni-STC's MAC utilisation
        leads on (geometric) average and NV-DTC trails everything."""
        utils = {name: [] for name in stcs}
        for density in (0.02, 0.1, 0.3, 0.5):
            bbc = BBCMatrix.from_coo(random_uniform(128, 128, density, seed=0))
            for name, stc in stcs.items():
                utils[name].append(simulate_kernel("spgemm", bbc, stc).mean_utilisation)
        means = {name: geomean(vals) for name, vals in utils.items()}
        assert means["uni-stc"] == max(means.values())
        assert means["nv-dtc"] == min(means.values())
        # Paper: 1.39x over RM-STC, 1.89x over DS-STC on average.
        assert means["uni-stc"] / means["rm-stc"] > 1.1
        assert means["uni-stc"] / means["ds-stc"] > 1.4

    def test_dynamic_dpg_activation(self):
        """§VI-C/Fig. 20: sparse blocks activate few DPGs, dense more."""
        uni = UniSTC()
        sparse = simulate_block(uni,
            T1Task.from_bitmaps(
                np.eye(16, dtype=bool), np.eye(16, dtype=bool)
            )
        )
        dense = simulate_block(uni,
            T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
        )
        sparse_active = sparse.counters.get("dpg_active_cycles") / sparse.cycles
        dense_active = dense.counters.get("dpg_active_cycles") / dense.cycles
        assert sparse_active <= 8
        assert dense_active <= 2.0  # dense: ~1 full T3 per cycle at FP64


class TestDPGSweep:
    def test_fig22_direction(self):
        """Fig. 22: more DPGs help SpMM/SpGEMM cycles, with diminishing
        returns; SpMV gains little beyond 4."""
        bbc = BBCMatrix.from_coo(build_matrix("cant", n=256))
        cfgs = {
            4: UniSTC(UniSTCConfig(num_dpgs=4, tile_queue_depth=8)),
            8: UniSTC(),
            16: UniSTC(UniSTCConfig(num_dpgs=16)),
        }
        gemm = {d: simulate_kernel("spgemm", bbc, stc).cycles for d, stc in cfgs.items()}
        assert gemm[8] <= gemm[4]
        assert gemm[16] <= gemm[8]
        spmv = {d: simulate_kernel("spmv", bbc, stc).cycles for d, stc in cfgs.items()}
        spmv_gain = spmv[4] / spmv[16] if spmv[16] else 1.0
        gemm_gain = gemm[4] / gemm[16]
        assert gemm_gain >= spmv_gain * 0.95
