"""Tests for N:M structured workloads and the NV-DTC 2:4 sparse mode."""

import numpy as np
import pytest

from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.baselines import NvDTC, NvDTCSparse
from repro.errors import ShapeError
from repro.formats import BBCMatrix
from repro.formats.csr import CSRMatrix
from repro.sim.engine import simulate_kernel
from repro.workloads.structured import nm_pruned_weight, rmat, verify_nm_pattern

from tests.stepped_models import block_satisfies_2to4, simulate_block


class TestNMPruning:
    def test_2to4_pattern_holds(self):
        w = nm_pruned_weight(64, 128, n=2, group=4, seed=0)
        assert verify_nm_pattern(w, 2, 4)

    def test_exact_density(self):
        w = nm_pruned_weight(32, 64, n=2, group=4, seed=1)
        assert w.nnz == 32 * 64 // 2  # exactly half kept

    def test_1to4_pattern(self):
        w = nm_pruned_weight(16, 32, n=1, group=4, seed=2)
        assert verify_nm_pattern(w, 1, 4)
        assert w.nnz == 16 * 32 // 4

    def test_rejects_bad_ratio(self):
        with pytest.raises(ShapeError):
            nm_pruned_weight(8, 16, n=5, group=4)

    def test_rejects_unaligned_k(self):
        with pytest.raises(ShapeError):
            nm_pruned_weight(8, 17, n=2, group=4)

    def test_unstructured_fails_verification(self, rng):
        dense = (rng.random((16, 16)) < 0.5) * 1.0
        from repro.formats.coo import COOMatrix

        assert not verify_nm_pattern(COOMatrix.from_dense(dense), 1, 4)


class TestNvDTCSparseMode:
    def test_detects_structured_block(self):
        w = nm_pruned_weight(16, 16, seed=3)
        a = w.to_dense() != 0
        assert block_satisfies_2to4(a)
        assert not block_satisfies_2to4(np.ones((16, 16), dtype=bool))

    def test_structured_block_twice_as_fast(self):
        w = nm_pruned_weight(16, 16, seed=4)
        a = w.to_dense() != 0
        task = T1Task.from_bitmaps(a, np.ones((16, 16), bool))
        dense_tc = simulate_block(NvDTC(), task)
        sparse_tc = simulate_block(NvDTCSparse(), task)
        assert sparse_tc.cycles * 2 == dense_tc.cycles
        assert sparse_tc.products == dense_tc.products

    def test_unstructured_block_no_speedup(self, rng):
        a = rng.random((16, 16)) < 0.5
        task = T1Task.from_bitmaps(a, np.ones((16, 16), bool))
        assert (simulate_block(NvDTCSparse(), task).cycles
                == simulate_block(NvDTC(), task).cycles)

    def test_dense_block_unchanged(self):
        task = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
        result = simulate_block(NvDTCSparse(), task)
        assert result.cycles == 64
        assert result.products == 4096

    def test_uni_still_wins_on_structured_weights(self):
        """Even with its real 2x, the dense TC trails Uni-STC on 2:4
        weights (which are only 50% sparse but unexploited on B)."""
        w = nm_pruned_weight(64, 64, seed=5)
        bbc = BBCMatrix.from_coo(w)
        uni = simulate_kernel("spmm", bbc, UniSTC(), b_cols=64)
        nv24 = simulate_kernel("spmm", bbc, NvDTCSparse(), b_cols=64)
        assert uni.cycles <= nv24.cycles

    def test_structured_reads_compressed_a(self):
        w = nm_pruned_weight(16, 16, seed=6)
        task = T1Task.from_bitmaps(w.to_dense() != 0, np.ones((16, 16), bool))
        sparse_tc = simulate_block(NvDTCSparse(), task)
        dense_tc = simulate_block(NvDTC(), task)
        assert (sparse_tc.counters.get("a_elem_reads")
                < dense_tc.counters.get("a_elem_reads"))


class TestRMAT:
    def test_shape_and_bounds(self):
        g = rmat(6, edge_factor=4, seed=0)
        assert g.shape == (64, 64)
        assert g.rows.max() < 64 and g.cols.max() < 64

    def test_deterministic(self):
        assert rmat(5, seed=3) == rmat(5, seed=3)

    def test_skewed_degrees(self):
        g = rmat(9, edge_factor=8, seed=1)
        row_nnz = CSRMatrix.from_coo(g).row_nnz()
        assert row_nnz.max() > 5 * max(1.0, np.median(row_nnz))

    def test_duplicates_collapsed(self):
        g = rmat(4, edge_factor=16, seed=2)
        # COO canonicalisation leaves at most n*n entries.
        assert g.nnz <= 16 * 16

    def test_rejects_bad_scale(self):
        with pytest.raises(ShapeError):
            rmat(0)
        with pytest.raises(ShapeError):
            rmat(25)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ShapeError):
            rmat(4, a=0.8, b=0.2, c=0.2)

    def test_usable_by_bfs(self):
        from repro.apps.bfs import bfs, reference_bfs
        from repro.kernels import reference

        g = CSRMatrix.from_coo(rmat(7, seed=4))
        sym = reference.add(g, g.transpose())
        result = bfs(sym, 0)
        assert np.array_equal(result.levels, reference_bfs(sym, 0))
