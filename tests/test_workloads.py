"""Tests for the workload generators (SuiteSparse/DLMC substitutes)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.formats import BBCMatrix
from repro.workloads import representative, suitesparse, synthetic
from repro.workloads.dlmc import SPARSITIES, dlmc_corpus, pruned_weight
from repro.workloads.dnn import RESNET50_LAYERS, TRANSFORMER_LAYERS, resnet50_layers


class TestSynthetic:
    def test_random_uniform_density(self):
        m = synthetic.random_uniform(200, 200, 0.05, seed=1)
        assert m.nnz == pytest.approx(2000, rel=0.02)

    def test_random_uniform_deterministic(self):
        a = synthetic.random_uniform(64, 64, 0.1, seed=9)
        b = synthetic.random_uniform(64, 64, 0.1, seed=9)
        assert a == b

    def test_random_uniform_zero_density(self):
        assert synthetic.random_uniform(16, 16, 0.0).nnz == 0

    def test_random_uniform_full_density(self):
        assert synthetic.random_uniform(8, 8, 1.0, seed=0).nnz == 64

    def test_random_uniform_rejects_bad_density(self):
        with pytest.raises(ShapeError):
            synthetic.random_uniform(8, 8, 1.5)

    def test_banded_within_band(self):
        m = synthetic.banded(50, 3, 1.0, seed=0)
        assert np.all(np.abs(m.rows - m.cols) <= 3)

    def test_banded_diagonal_always_present(self):
        m = synthetic.banded(40, 5, 0.1, seed=2)
        dense = m.to_dense()
        assert np.all(np.diag(dense) != 0)

    def test_power_law_has_heavy_rows(self):
        m = synthetic.power_law(256, avg_row_nnz=6.0, seed=3)
        from repro.formats.csr import CSRMatrix

        row_nnz = CSRMatrix.from_coo(m).row_nnz()
        assert row_nnz.max() > 4 * max(1.0, np.median(row_nnz))

    def test_block_dense_blocks_filled(self):
        m = synthetic.block_dense(64, block=16, block_density=0.05, fill=0.9, seed=4)
        bbc = BBCMatrix.from_coo(m)
        assert bbc.nnz_per_block().mean() > 30

    def test_long_rows_heavy(self):
        m = synthetic.long_rows(128, heavy_rows=2, heavy_density=0.9,
                                background_density=0.005, seed=5)
        from repro.formats.csr import CSRMatrix

        row_nnz = CSRMatrix.from_coo(m).row_nnz()
        assert (row_nnz > 64).sum() >= 2

    def test_diagonal_stencil_offsets(self):
        m = synthetic.diagonal_stencil(32, offsets=(-1, 0, 1), seed=6)
        assert set(np.unique(m.cols - m.rows)) == {-1, 0, 1}

    def test_poisson2d_structure(self):
        m = synthetic.poisson2d(4)
        dense = m.to_dense()
        assert dense.shape == (16, 16)
        assert np.allclose(dense, dense.T)
        assert np.all(np.diag(dense) == 4.0)
        # Diagonally dominant and singular-free interior stencil.
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    @pytest.mark.parametrize("build", [synthetic.poisson2d, synthetic.poisson3d])
    @pytest.mark.parametrize("grid", [0, -3])
    def test_poisson_rejects_an_empty_grid(self, build, grid):
        with pytest.raises(ShapeError, match="grid must be >= 1"):
            build(grid)


class TestSuiteSparseCorpus:
    def test_specs_deterministic(self):
        a = [s.name for s in suitesparse.corpus(sizes=(128,))]
        b = [s.name for s in suitesparse.corpus(sizes=(128,))]
        assert a == b

    def test_unique_names(self):
        names = [s.name for s in suitesparse.corpus()]
        assert len(names) == len(set(names))

    def test_family_filter(self):
        specs = suitesparse.corpus(families=("banded",))
        assert specs and all(s.family == "banded" for s in specs)

    def test_limit(self):
        assert len(suitesparse.corpus(limit=5)) == 5

    def test_small_corpus_materialises(self):
        for name, matrix in suitesparse.iter_matrices(suitesparse.small_corpus(limit=4)):
            assert matrix.nnz > 0, name
            assert matrix.shape[0] == matrix.shape[1] == 128

    def test_density_axis_spans_paper_range(self):
        """The corpus must cover the Fig. 20 density axis broadly."""
        densities = []
        for spec in suitesparse.small_corpus(limit=14):
            bbc = BBCMatrix.from_coo(spec.matrix())
            densities.append(representative.mean_products_per_task(bbc))
        assert min(densities) < 32
        assert max(densities) > 512


class TestRepresentative:
    def test_table_vii_catalogue(self):
        assert [i.name for i in representative.TABLE_VII] == [
            "consph", "shipsec1", "crankseg_2", "cant",
            "opt1", "pdb1HYS", "pwtk", "gupta3",
        ]
        densities = [i.paper_inter_prod_per_block for i in representative.TABLE_VII]
        assert densities == sorted(densities)
        assert densities[0] == 164.9 and densities[-1] == 1154.1

    @pytest.mark.parametrize("name", ["consph", "cant", "gupta3"])
    def test_calibration_hits_target(self, name):
        info = representative.INFO_BY_NAME[name]
        matrix = representative.build_matrix(name, n=256)
        measured = representative.mean_products_per_task(BBCMatrix.from_coo(matrix))
        assert measured == pytest.approx(info.paper_inter_prod_per_block, rel=0.35)

    def test_mean_products_per_task_equals_stepped_sum(self):
        """The array expression equals the per-task sum of the stepped
        generators, to the last bit."""
        from tests.stepped import spgemm_tasks

        for spec in suitesparse.corpus(sizes=(128,), limit=6):
            bbc = BBCMatrix.from_coo(spec.matrix())
            tasks = list(spgemm_tasks(bbc, bbc))
            expected = (sum(t.intermediate_products() * t.weight for t in tasks)
                        / sum(t.weight for t in tasks))
            assert representative.mean_products_per_task(bbc) == expected
        empty = BBCMatrix.from_dense(np.zeros((32, 32)))
        assert representative.mean_products_per_task(empty) == 0.0

    def test_all_eight_buildable(self):
        mats = representative.representative_matrices(n=128)
        assert len(mats) == 8
        assert all(m.nnz > 0 for m in mats.values())

    def test_uncalibrated_build(self):
        m = representative.build_matrix("consph", n=128, calibrate=False)
        assert m.nnz > 0


class TestDLMC:
    def test_sparsity_levels(self):
        assert SPARSITIES == (0.70, 0.98)

    @pytest.mark.parametrize("sparsity", [0.7, 0.98])
    def test_pruned_weight_sparsity(self, sparsity):
        w = pruned_weight(128, 256, sparsity, seed=0)
        assert w.density() == pytest.approx(1 - sparsity, abs=0.02)

    def test_structured_exact_per_row(self):
        w = pruned_weight(64, 100, 0.9, structured=True, seed=1)
        from repro.formats.csr import CSRMatrix

        row_nnz = CSRMatrix.from_coo(w).row_nnz()
        assert (row_nnz == 10).all()

    def test_unstructured_imbalanced(self):
        w = pruned_weight(128, 256, 0.9, seed=2)
        from repro.formats.csr import CSRMatrix

        row_nnz = CSRMatrix.from_coo(w).row_nnz()
        assert row_nnz.max() > 2 * max(1.0, np.median(row_nnz))

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ShapeError):
            pruned_weight(8, 8, 1.0)

    def test_corpus_matches_layers(self):
        corpus = dlmc_corpus("transformer", 0.7)
        assert len(corpus) == len(TRANSFORMER_LAYERS)
        for layer, weight in corpus:
            assert weight.shape == (layer.m, layer.k)

    def test_corpus_rejects_unknown_model(self):
        with pytest.raises(ShapeError):
            dlmc_corpus("vgg")


class TestDNNCatalogues:
    def test_resnet_scaling_preserves_block_multiple(self):
        for layer in resnet50_layers(0.1):
            assert layer.m % 16 == 0 and layer.k % 16 == 0 and layer.n % 16 == 0

    def test_full_catalogues_nonempty(self):
        assert len(RESNET50_LAYERS) >= 5
        assert len(TRANSFORMER_LAYERS) == 4

    def test_kinds(self):
        kinds = {l.kind for l in RESNET50_LAYERS}
        assert kinds == {"conv", "linear"}
        assert all(l.kind == "linear" for l in TRANSFORMER_LAYERS)
