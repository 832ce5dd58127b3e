"""Tests for the sparse DNN inference application."""

import numpy as np
import pytest

from repro.apps.dnn import compare_models, forward_layer, simulate_inference
from repro.arch.config import FP32
from repro.arch.unistc import UniSTC
from repro.arch.config import UniSTCConfig
from repro.baselines import DsSTC, RmSTC
from repro.errors import ShapeError
from repro.formats import BBCMatrix
from repro.workloads.dlmc import pruned_weight
from repro.workloads.dnn import transformer_layers


class TestSimulateInference:
    @pytest.fixture(scope="class")
    def uni32(self):
        return UniSTC(UniSTCConfig(precision=FP32))

    def test_transformer_layers_covered(self, uni32):
        report = simulate_inference(uni32, "transformer", 0.70, scale=0.125)
        assert len(report.per_layer(0)) == len(transformer_layers(0.125))
        assert report.e2e_compute_cycles > 0
        assert report.e2e_compute_energy_pj > 0

    def test_higher_sparsity_fewer_cycles(self, uni32):
        dense_ish = simulate_inference(uni32, "transformer", 0.70, scale=0.125)
        sparse = simulate_inference(uni32, "transformer", 0.98, scale=0.125)
        assert sparse.e2e_compute_cycles < dense_ish.e2e_compute_cycles

    def test_resnet_uses_spgemm_for_conv(self, uni32):
        report = simulate_inference(uni32, "resnet50", 0.70, scale=0.05)
        kernels = {n.report.kernel for n in report.per_layer(0)}
        assert "spgemm" in kernels      # conv layers
        assert "spmm" in kernels        # the fc layer

    def test_compare_models_keys(self):
        cfg = UniSTCConfig(precision=FP32)
        reports = compare_models([UniSTC(cfg), DsSTC(FP32)], "transformer", 0.98, scale=0.125)
        assert set(reports) == {"uni-stc", "ds-stc"}

    def test_compare_models_threads_the_seed(self):
        # The seed used to be silently pinned to 11, so comparisons
        # could never vary their inputs.
        cfg = UniSTCConfig(precision=FP32)
        default = compare_models([UniSTC(cfg)], "transformer", 0.70, scale=0.125)
        pinned = compare_models([UniSTC(cfg)], "transformer", 0.70, scale=0.125, seed=11)
        varied = compare_models([UniSTC(cfg)], "transformer", 0.70, scale=0.125, seed=99)
        assert default["uni-stc"].e2e_compute_cycles == pinned["uni-stc"].e2e_compute_cycles
        assert varied["uni-stc"].e2e_compute_cycles != pinned["uni-stc"].e2e_compute_cycles

    def test_total_cycles_aggregates_in_integer_domain(self):
        # A corpus-scale total must not round through float64: two
        # layers at 2^62 cycles each sum exactly, and the result is a
        # Python int even when per-layer cycles arrive as np.int64.
        from repro.graph import BufferPlan, ModelReport, NodeResult
        from repro.sim.results import SimReport

        big = np.int64(2 ** 62)
        report = ModelReport(model="m", stc="uni-stc", batch=1,
                             buffer_bytes=0, plan=BufferPlan(budget_bytes=0))
        for i in range(2):
            report.nodes.append(NodeResult(
                node=f"huge{i}", kernel="spmm", request=0,
                report=SimReport("uni-stc", "spmm", cycles=big)))
        for total in (report.e2e_compute_cycles,
                      report.kernel_cycles()["spmm"]):
            assert total == 2 ** 63
            assert isinstance(total, int)
            assert not isinstance(total, np.integer)

    def test_uni_beats_baselines_on_sparse_weights(self):
        cfg = UniSTCConfig(precision=FP32)
        reports = compare_models(
            [UniSTC(cfg), DsSTC(FP32), RmSTC(FP32)], "transformer", 0.98, scale=0.125
        )
        assert reports["uni-stc"].e2e_compute_cycles <= reports["rm-stc"].e2e_compute_cycles
        assert reports["uni-stc"].e2e_compute_cycles < reports["ds-stc"].e2e_compute_cycles


class TestForwardLayer:
    def test_matches_dense(self, rng):
        weight = pruned_weight(32, 48, 0.8, seed=0)
        bbc = BBCMatrix.from_coo(weight)
        acts = rng.standard_normal((48, 8))
        expected = np.maximum(weight.to_dense() @ acts, 0.0)
        assert np.allclose(forward_layer(bbc, acts), expected)

    def test_no_relu(self, rng):
        weight = pruned_weight(16, 16, 0.5, seed=1)
        bbc = BBCMatrix.from_coo(weight)
        acts = rng.standard_normal((16, 4))
        assert np.allclose(forward_layer(bbc, acts, relu=False), weight.to_dense() @ acts)

    def test_shape_checked(self):
        bbc = BBCMatrix.from_coo(pruned_weight(16, 16, 0.5, seed=2))
        with pytest.raises(ShapeError):
            forward_layer(bbc, np.ones((8, 4)))
