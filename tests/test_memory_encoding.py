"""Tests for the memory/roofline model and the encoding-cost model."""

import numpy as np
import pytest

from repro.arch.unistc import UniSTC
from repro.errors import ConfigError, ShapeError
from repro.formats import BBCMatrix
from repro.formats.encoding_cost import (
    amortised_speedup,
    break_even_invocations,
    encoding_cost,
)
from repro.kernels.vector import SparseVector
from repro.registry import create_stc, registered_stcs
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.formats import COOMatrix
from repro.sim import memory
from repro.sim.memory import (
    BLOCK_PATH_MIN_FLOPS_PER_TRIPLE,
    MemoryConfig,
    _block_output_nnz,
    _expanded_output_nnz,
    _structural_flops,
    kernel_traffic_bytes,
    memory_cycles,
    roofline,
    spgemm_output_nnz,
)
from repro.workloads.suitesparse import corpus
from repro.workloads.synthetic import banded, block_dense, long_rows, random_uniform


@pytest.fixture(scope="module")
def bbc():
    return BBCMatrix.from_coo(banded(160, 16, 0.4, seed=1))


class TestTraffic:
    def test_spmv_traffic_components(self, bbc):
        traffic = kernel_traffic_bytes("spmv", bbc, c_writes=100)
        assert traffic["read_a"] == bbc.storage_bytes()
        assert traffic["read_b"] == bbc.shape[1] * 8
        assert traffic["write_c"] == 100 * 12

    def test_spmm_traffic_scales_with_b_cols(self, bbc):
        t32 = kernel_traffic_bytes("spmm", bbc, b_cols=32)
        t64 = kernel_traffic_bytes("spmm", bbc, b_cols=64)
        assert t64["read_b"] == 2 * t32["read_b"]

    def test_spgemm_reads_both_encodings(self, bbc):
        traffic = kernel_traffic_bytes("spgemm", bbc)
        assert traffic["read_b"] == bbc.storage_bytes()  # B defaults to A

    def test_spmspv_reads_only_nonzeros(self, bbc):
        x = SparseVector(bbc.shape[1], [0, 1], [1.0, 1.0])
        traffic = kernel_traffic_bytes("spmspv", bbc, x=x)
        assert traffic["read_b"] == 2 * 12

    def test_spmspv_requires_x(self, bbc):
        with pytest.raises(ShapeError):
            kernel_traffic_bytes("spmspv", bbc)

    def test_unknown_kernel(self, bbc):
        with pytest.raises(ShapeError):
            kernel_traffic_bytes("gemm", bbc)


class TestMemoryCycles:
    def test_bandwidth_division(self):
        assert memory_cycles({"read_a": 100.0}, MemoryConfig(bytes_per_cycle=10)) == 10

    def test_zero_traffic_costs_zero_cycles(self):
        assert memory_cycles({"read_a": 0.0}) == 0
        assert memory_cycles({}) == 0

    def test_positive_traffic_costs_at_least_one_cycle(self):
        assert memory_cycles({"read_a": 0.5}) == 1

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            MemoryConfig(bytes_per_cycle=0)


class TestRoofline:
    def test_spmv_is_memory_bound(self, bbc):
        """Classic result: SpMV streams the matrix once per use."""
        report = simulate_kernel("spmv", bbc, UniSTC())
        roof = roofline(report, bbc)
        assert roof.bound == "memory"
        assert roof.effective_cycles >= report.cycles

    def test_dense_spgemm_compute_bound_at_high_bandwidth(self):
        """SpGEMM's arithmetic intensity grows with density; with a
        bandwidth-rich configuration a dense product is compute-bound
        (small problems at the default 2.5 B/cycle stay memory-bound —
        the classic roofline crossover)."""
        dense = BBCMatrix.from_coo(random_uniform(96, 96, 0.9, seed=2))
        report = simulate_kernel("spgemm", dense, UniSTC())
        roof = roofline(report, dense, config=MemoryConfig(bytes_per_cycle=32))
        assert roof.bound == "compute"
        default_roof = roofline(report, dense)
        assert default_roof.memory_cycles > roof.memory_cycles

    def test_higher_bandwidth_shifts_bound(self, bbc):
        report = simulate_kernel("spgemm", bbc, UniSTC())
        slow = roofline(report, bbc, config=MemoryConfig(bytes_per_cycle=0.01))
        fast = roofline(report, bbc, config=MemoryConfig(bytes_per_cycle=1e9))
        assert slow.bound == "memory"
        assert fast.bound == "compute"
        assert fast.effective_cycles == report.cycles

    def test_arithmetic_intensity_positive(self, bbc):
        report = simulate_kernel("spmv", bbc, UniSTC())
        assert roofline(report, bbc).arithmetic_intensity > 0

    def test_arithmetic_intensity_is_products_per_byte(self, bbc):
        """AI must measure the workload, not the architecture's speed:
        useful MACs over bytes moved, independent of compute cycles."""
        report = simulate_kernel("spmv", bbc, UniSTC())
        roof = roofline(report, bbc)
        assert roof.products == report.products
        assert roof.arithmetic_intensity == pytest.approx(
            report.products / roof.traffic_bytes
        )
        slower = roofline(report, bbc, config=MemoryConfig(bytes_per_cycle=0.1))
        assert slower.arithmetic_intensity == roof.arithmetic_intensity


class TestSpGEMMOutputNnz:
    """The sparse boolean product against the dense reference."""

    def _dense_nnz(self, a, b):
        return int(np.count_nonzero(
            (a.to_dense() != 0).astype(np.int64) @ (b.to_dense() != 0).astype(np.int64)
        ))

    def test_matches_dense_on_small_matrices(self):
        cases = [
            (random_uniform(64, 80, 0.05, seed=1), random_uniform(80, 48, 0.08, seed=2)),
            (banded(96, 8, 0.6, seed=3), banded(96, 12, 0.4, seed=4)),
            (long_rows(64, heavy_rows=2, seed=5), random_uniform(64, 64, 0.02, seed=6)),
        ]
        for a_coo, b_coo in cases:
            a, b = BBCMatrix.from_coo(a_coo), BBCMatrix.from_coo(b_coo)
            assert spgemm_output_nnz(a, b) == self._dense_nnz(a, b)

    def test_defaults_to_a_squared(self):
        a = BBCMatrix.from_coo(banded(64, 8, 0.5, seed=7))
        assert spgemm_output_nnz(a) == self._dense_nnz(a, a)

    def test_empty_operand_yields_zero(self):
        a = BBCMatrix.from_coo(random_uniform(64, 64, 0.0, seed=1))
        dense = BBCMatrix.from_coo(random_uniform(64, 64, 0.2, seed=2))
        assert spgemm_output_nnz(a, dense) == 0
        assert spgemm_output_nnz(dense, a) == 0

    @pytest.mark.parametrize("stc", registered_stcs())
    def test_spgemm_reports_hold_the_structural_flops(self, stc):
        """Pricing passes an SpGEMM report's products as the output
        count's flops: every registered model's report over the n=128
        corpus holds A @ A's structural flops and one T1 task per block
        triple."""
        model, cache = create_stc(stc), BlockCache()
        for spec in corpus(sizes=(128,)):
            a = BBCMatrix.from_coo(spec.matrix())
            report = simulate_kernel("spgemm", a, model, cache=cache)
            assert report.products == _structural_flops(a, a), spec.name
            assert report.t1_tasks == int(np.diff(a.row_ptr)[a.col_idx].sum()), spec.name

    def test_rejects_inner_mismatch(self):
        a = BBCMatrix.from_coo(random_uniform(64, 80, 0.1, seed=1))
        with pytest.raises(ShapeError):
            spgemm_output_nnz(a, a)

    def test_structural_coords_match_dense(self):
        for coo in (random_uniform(80, 112, 0.06, seed=8), banded(96, 16, 0.5, seed=9)):
            m = BBCMatrix.from_coo(coo)
            rows, cols = m.structural_coords()
            got = set(zip(rows.tolist(), cols.tolist()))
            r, c = np.nonzero(m.to_dense())
            assert got == set(zip(r.tolist(), c.tolist()))



def _dense_nnz(a, b):
    return int(np.count_nonzero(
        (a.to_dense() != 0).astype(np.int64) @ (b.to_dense() != 0).astype(np.int64)
    ))


def _empty_block_rows(m, n, seed):
    """Random entries confined to alternating 16-row bands."""
    coo = random_uniform(m, n, 0.3, seed=seed)
    keep = (coo.rows // 16) % 2 == 0
    return COOMatrix(coo.shape, coo.rows[keep], coo.cols[keep], coo.vals[keep])


#: (A, B) pairs; ``None`` for B means A @ A.
OUTPUT_NNZ_CASES = {
    "rectangular": (random_uniform(48, 80, 0.1, seed=11),
                    random_uniform(80, 112, 0.12, seed=12)),
    "ragged-shapes": (random_uniform(37, 53, 0.15, seed=13),
                      random_uniform(53, 29, 0.2, seed=14)),
    "empty-block-rows": (_empty_block_rows(96, 64, seed=15),
                         _empty_block_rows(64, 80, seed=16)),
    "hypersparse": (random_uniform(256, 256, 0.002, seed=17), None),
    "hypersparse-rect": (random_uniform(160, 300, 0.003, seed=18),
                         random_uniform(300, 90, 0.003, seed=19)),
    # flops per triple about 6.5 and 10: either side of the threshold.
    "near-threshold-below": (random_uniform(144, 144, 0.04, seed=24), None),
    "near-threshold-above": (random_uniform(144, 144, 0.05, seed=24), None),
    "block-dense": (block_dense(128, block_density=0.05, fill=0.9, seed=20), None),
    "banded": (banded(100, 12, 0.5, seed=21), banded(100, 6, 0.6, seed=22)),
    "long-rows": (long_rows(80, heavy_rows=3, seed=23), None),
}


def _operands(name):
    a_coo, b_coo = OUTPUT_NNZ_CASES[name]
    a = BBCMatrix.from_coo(a_coo)
    return a, (a if b_coo is None else BBCMatrix.from_coo(b_coo))


def _flops_per_triple(a, b):
    triples = int(np.diff(b.row_ptr)[a.col_idx].sum())
    return _structural_flops(a, b) / triples


class TestOutputNnzPaths:
    """Both output-nnz paths, called directly, against the dense product."""

    @pytest.mark.parametrize("name", sorted(OUTPUT_NNZ_CASES))
    @pytest.mark.parametrize("path", [_expanded_output_nnz, _block_output_nnz],
                             ids=["expanded", "block"])
    def test_path_matches_dense(self, name, path):
        a, b = _operands(name)
        assert path(a, b) == _dense_nnz(a, b)

    def test_cases_straddle_the_threshold(self):
        ratios = [_flops_per_triple(*_operands(n)) for n in OUTPUT_NNZ_CASES]
        below = [r for r in ratios if r < BLOCK_PATH_MIN_FLOPS_PER_TRIPLE]
        assert min(ratios) < 1 and max(below) > BLOCK_PATH_MIN_FLOPS_PER_TRIPLE / 2
        above = [r for r in ratios if r >= BLOCK_PATH_MIN_FLOPS_PER_TRIPLE]
        assert min(above) < 2 * BLOCK_PATH_MIN_FLOPS_PER_TRIPLE and max(above) > 1000

    @pytest.mark.parametrize("name", sorted(OUTPUT_NNZ_CASES))
    def test_structural_flops_match_expansion(self, name):
        a, b = _operands(name)
        rows, cols = a.structural_coords()
        b_rows, _ = b.structural_coords()
        row_nnz = np.bincount(b_rows, minlength=b.shape[0])
        assert _structural_flops(a, b) == int(row_nnz[cols].sum())

    @pytest.mark.parametrize("name", sorted(OUTPUT_NNZ_CASES))
    def test_selection_follows_the_threshold(self, name, monkeypatch):
        """The path follows the flops, counted or the caller's hint (an
        SpGEMM report's products); a hint that forces either path
        leaves the count exact."""
        a, b = _operands(name)
        taken = []
        for path in ("_expanded_output_nnz", "_block_output_nnz"):
            real = getattr(memory, path)
            monkeypatch.setattr(memory, path, lambda x, y, real=real, path=path:
                                taken.append(path) or real(x, y))
        blockwise = _flops_per_triple(a, b) >= BLOCK_PATH_MIN_FLOPS_PER_TRIPLE
        for flops, block_path in ((None, blockwise), (_structural_flops(a, b), blockwise),
                                  (0, False), (1 << 60, True)):
            taken.clear()
            assert spgemm_output_nnz(a, b, flops=flops) == _dense_nnz(a, b)
            assert taken == ["_block_output_nnz" if block_path else "_expanded_output_nnz"]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("name", ["rectangular", "block-dense", "banded"])
    def test_block_path_carries_across_chunks(self, name, chunk, monkeypatch):
        # Tiny chunks split output blocks across chunk boundaries.
        monkeypatch.setattr(memory, "_TRIPLE_CHUNK", chunk)
        a, b = _operands(name)
        assert _block_output_nnz(a, b) == _dense_nnz(a, b)

    @pytest.mark.parametrize("path", [_expanded_output_nnz, _block_output_nnz],
                             ids=["expanded", "block"])
    def test_empty_operands(self, path):
        empty = BBCMatrix.from_coo(random_uniform(64, 64, 0.0, seed=1))
        full = BBCMatrix.from_coo(random_uniform(64, 64, 0.2, seed=2))
        assert path(empty, full) == path(full, empty) == path(empty, empty) == 0

class TestEncodingCost:
    def test_spmv_equivalents_order_of_magnitude(self, bbc):
        """The paper: conversion ~ a few hundred SpMV operations... our
        model lands in the single-to-tens range per the op-count ratio
        (their figure includes memory-system effects)."""
        cost = encoding_cost(BBCMatrix.from_coo(banded(256, 24, 0.3, seed=3)).to_coo())
        assert 2 < cost.spmv_equivalents < 50

    def test_cost_scales_superlinearly(self):
        small = encoding_cost(banded(64, 8, 0.5, seed=1))
        large = encoding_cost(banded(512, 8, 0.5, seed=1))
        assert large.encode_ops > 8 * small.encode_ops

    def test_break_even_finite_when_saving(self):
        cost = encoding_cost(banded(128, 8, 0.5, seed=1))
        invocations = break_even_invocations(cost, 1000.0, 400.0)
        assert 0 < invocations < float("inf")

    def test_break_even_infinite_without_saving(self):
        cost = encoding_cost(banded(128, 8, 0.5, seed=1))
        assert break_even_invocations(cost, 400.0, 400.0) == float("inf")

    def test_amortised_speedup_approaches_raw(self):
        """With many invocations the encoding cost vanishes (§VI-B)."""
        cost = encoding_cost(banded(128, 8, 0.5, seed=1))
        few = amortised_speedup(cost, 1000.0, 400.0, invocations=2)
        many = amortised_speedup(cost, 1000.0, 400.0, invocations=10_000)
        assert few < many
        assert many == pytest.approx(1000.0 / 400.0, rel=0.01)

    def test_rejects_bad_inputs(self):
        cost = encoding_cost(banded(64, 8, 0.5, seed=1))
        with pytest.raises(ConfigError):
            break_even_invocations(cost, 0.0, 1.0)
        with pytest.raises(ConfigError):
            amortised_speedup(cost, 10.0, 5.0, invocations=0)
