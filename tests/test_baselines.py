"""Shared invariants plus per-architecture behaviour of every baseline."""

import numpy as np
import pytest

from repro.arch.config import FP32, FP64
from repro.arch.tasks import T1Task
from repro.baselines import DsSTC, Gamma, NvDTC, RmSTC, Sigma, Trapezoid

from tests.conftest import make_block_task

DENSE = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
DENSE_VEC = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 1), bool))
EMPTY = T1Task.from_bitmaps(np.zeros((16, 16), bool), np.zeros((16, 16), bool))


def both_paths(stc, task):
    """``task``'s result through ``simulate_block`` and ``simulate_blocks``."""
    return stc.simulate_block(task), stc.simulate_blocks([task])[0]


class TestSharedInvariants:
    """The cross-model contract, for every registered architecture (the
    any_stc fixture) through both the stepped and the batched path."""

    def test_dense_block_full_throughput(self, any_stc):
        for result in both_paths(any_stc, DENSE):
            assert result.cycles == 4096 // any_stc.macs
            assert result.products == 4096
            assert result.util_hist.fractions()[3] == 1.0

    def test_empty_block_one_cycle(self, any_stc):
        for result in both_paths(any_stc, EMPTY):
            assert result.cycles == 1
            assert result.products == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_products_conserved(self, any_stc, seed):
        task = make_block_task(0.3, 0.3, seed)
        for result in both_paths(any_stc, task):
            assert result.products == task.intermediate_products()

    @pytest.mark.parametrize("seed", range(5))
    def test_mac_ops_equal_products(self, any_stc, seed):
        task = make_block_task(0.3, 0.5, seed)
        for result in both_paths(any_stc, task):
            assert result.counters.get("mac_ops") == result.products

    @pytest.mark.parametrize("seed", range(5))
    def test_cycles_at_least_ideal(self, any_stc, seed):
        task = make_block_task(0.4, 0.4, seed)
        for result in both_paths(any_stc, task):
            assert result.cycles >= -(-task.intermediate_products() // any_stc.macs)

    @pytest.mark.parametrize("seed", range(5))
    def test_histogram_covers_cycles(self, any_stc, seed):
        task = make_block_task(0.25, 0.4, seed)
        for result in both_paths(any_stc, task):
            assert result.util_hist.cycles == result.cycles

    @pytest.mark.parametrize("seed", range(3))
    def test_lane_cycles_recorded(self, any_stc, seed):
        task = make_block_task(0.3, 0.3, seed)
        for result in both_paths(any_stc, task):
            assert result.counters.get("lane_cycles") == any_stc.macs * result.cycles

    @pytest.mark.parametrize("seed", range(3))
    def test_vector_task_supported(self, any_stc, seed):
        task = make_block_task(0.4, 0.7, seed, n=1)
        for result in both_paths(any_stc, task):
            assert result.products == task.intermediate_products()
            assert result.cycles >= 1

    def test_deterministic(self, any_stc):
        task = make_block_task(0.3, 0.3, 42)
        r1, r2 = both_paths(any_stc, task)
        r3 = any_stc.simulate_block(task)
        assert r1.cycles == r2.cycles == r3.cycles
        assert r1.counters == r2.counters == r3.counters


class TestStructuralCaps:
    """The paper's published per-dataflow utilisation ceilings (§VI-C)."""

    def test_ds_stc_spmv_cap_12_5_percent(self):
        """K=1 outer product with a vector: at most 8 of 64 lanes busy."""
        ds = DsSTC()
        for seed in range(6):
            task = make_block_task(0.8, 1.0, seed, n=1)
            result = ds.simulate_block(task)
            assert result.products / (result.cycles * 64) <= 0.125 + 1e-9

    def test_rm_stc_spmv_cap_25_percent(self):
        """8 lanes x 2 scalars x 1 column: at most 16 of 64 lanes busy."""
        rm = RmSTC()
        for seed in range(6):
            task = make_block_task(0.8, 1.0, seed, n=1)
            result = rm.simulate_block(task)
            assert result.products / (result.cycles * 64) <= 0.25 + 1e-9

    def test_uni_stc_beats_both_caps_on_dense_vector(self, uni):
        result = uni.simulate_block(DENSE_VEC)
        assert result.products / (result.cycles * 64) > 0.25

    def test_ds_dense_spmv_32_cycles(self):
        assert DsSTC().simulate_block(DENSE_VEC).cycles == 32

    def test_rm_dense_spmv_16_cycles(self):
        assert RmSTC().simulate_block(DENSE_VEC).cycles == 16


class TestDsSTC:
    def test_dead_k_layers_skipped(self):
        a = np.zeros((16, 16), bool)
        b = np.zeros((16, 16), bool)
        a[:, 3] = True
        b[3, :] = True
        result = DsSTC().simulate_block(T1Task.from_bitmaps(a, b))
        # One live K layer: 2 chunks x 2 chunks = 4 cycles.
        assert result.cycles == 4
        assert result.products == 256

    def test_k_layers_never_share_cycles(self):
        """Fig. 6: DS-STC cannot concatenate along K."""
        a = np.zeros((16, 16), bool)
        b = np.zeros((16, 16), bool)
        a[0, :] = True   # one nonzero per K layer
        b[:, 0] = True
        result = DsSTC().simulate_block(T1Task.from_bitmaps(a, b))
        assert result.cycles == 16  # 16 rank-1 updates, one each

    def test_outer_product_writes_all_partials(self):
        task = make_block_task(0.3, 0.3, 7)
        result = DsSTC().simulate_block(task)
        assert result.counters.get("c_elem_writes") == result.products

    def test_fp32_widens_b_chunk(self):
        ds = DsSTC(FP32)
        result = ds.simulate_block(DENSE)
        assert result.cycles == 32


class TestRmSTC:
    def test_merge_factor_at_most_two(self):
        task = make_block_task(0.4, 0.4, 3)
        result = RmSTC().simulate_block(task)
        writes = result.counters.get("c_elem_writes")
        assert result.products / 2 <= writes <= result.products

    def test_row_gathering_beats_ds_on_sparse_a(self):
        """Row-merge gathers scalar pairs; DS pays one cycle per K."""
        ds, rm = DsSTC(), RmSTC()
        slower = faster = 0
        for seed in range(8):
            task = make_block_task(0.15, 0.5, seed)
            if rm.simulate_block(task).cycles <= ds.simulate_block(task).cycles:
                faster += 1
            else:
                slower += 1
        assert faster > slower

    def test_b_fetched_once_per_block(self):
        """Shared row-merge buffer: B traffic bounded by nnz(B) x live K."""
        task = make_block_task(0.5, 0.5, 11)
        result = RmSTC().simulate_block(task)
        b_nnz = int(task.b_bitmap().sum())
        assert result.counters.get("b_elem_reads") <= b_nnz


class TestNvDTC:
    def test_no_sparsity_adaptation_within_t2(self):
        """A single nonzero pays the full T2 region's T3 grid."""
        a = np.zeros((16, 16), bool)
        b = np.zeros((16, 16), bool)
        a[0, 0] = True
        b[0, 0] = True
        result = NvDTC().simulate_block(T1Task.from_bitmaps(a, b))
        assert result.cycles == 4  # one live 8x8x4 T2 -> 4 dense T3 tasks
        assert result.products == 1

    def test_t2_skipping(self):
        """Fully dead T2 regions are skipped by the front-end."""
        a = np.zeros((16, 16), bool)
        b = np.ones((16, 16), bool)
        a[0:8, 0:4] = True  # only T2 (0, *, 0) regions live
        result = NvDTC().simulate_block(T1Task.from_bitmaps(a, b))
        dense_cycles = NvDTC().simulate_block(DENSE).cycles
        assert result.cycles < dense_cycles

    def test_dense_reads_include_zeros(self):
        task = make_block_task(0.1, 0.1, 5)
        result = NvDTC().simulate_block(task)
        nnz_a = int(task.a_bitmap().sum())
        assert result.counters.get("a_elem_reads") >= nnz_a


class TestGammaSigmaTrapezoid:
    def test_gamma_occupies_full_row_window(self):
        """GAMMA cannot bypass empty rows: one nonzero still costs a cycle."""
        a = np.zeros((16, 16), bool)
        b = np.ones((16, 16), bool)
        a[0, 0] = True
        result = Gamma().simulate_block(T1Task.from_bitmaps(a, b))
        assert result.cycles == 4  # 16 B columns / 4-wide chunks
        assert result.util_hist.fractions()[0] == 1.0  # all low-util

    def test_sigma_single_sided(self):
        """SIGMA reads B densely within a live column group."""
        task = make_block_task(0.5, 0.2, 9)
        result = Sigma().simulate_block(task)
        assert result.counters.get("b_elem_reads") >= result.products / 4

    def test_trapezoid_row_imbalance(self):
        """One heavy row dominates completion (max-over-lanes rule)."""
        a = np.zeros((16, 16), bool)
        b = np.ones((16, 16), bool)
        a[0, :] = True   # one dense row
        heavy = Trapezoid().simulate_block(T1Task.from_bitmaps(a, b))
        a2 = np.zeros((16, 16), bool)
        for i in range(16):
            a2[i, i] = True  # same nnz spread over all rows
        balanced = Trapezoid().simulate_block(T1Task.from_bitmaps(a2, b))
        assert heavy.cycles > balanced.cycles

    def test_trapezoid_strong_on_vector(self):
        """TrIP dot-product acceleration: dense SpMV in 8 cycles."""
        assert Trapezoid().simulate_block(DENSE_VEC).cycles == 8

    def test_cache_keys_distinct(self):
        names = {m().cache_key() for m in (DsSTC, Gamma, NvDTC, RmSTC, Sigma, Trapezoid)}
        assert len(names) == 6

    def test_fp32_cache_keys_distinct(self):
        assert DsSTC(FP64).cache_key() != DsSTC(FP32).cache_key()
