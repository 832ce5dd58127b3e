"""FP32/FP16 behaviour of every architecture (the Table VI scaling)."""

import numpy as np
import pytest

from repro.arch.config import FP16, FP32, FP64, Precision, UniSTCConfig
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC, Trapezoid
from repro.errors import ConfigError
from repro.registry import create_stc, registered_stcs

from tests.conftest import make_block_task, stc_at

DENSE = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
DENSE_VEC = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 1), bool))

#: Every registered architecture; tests index it so each keeps its id.
MODELS = registered_stcs()
#: Models whose shape scales to the FP16 budget; Table VI defines the
#: others at FP64/FP32 only.
FP16_MODELS = ("trapezoid", "uni-stc")


class TestFP32:
    @pytest.mark.parametrize("model_idx", range(len(MODELS)))
    def test_dense_block_halves_cycles(self, model_idx):
        stc = stc_at(MODELS[model_idx], FP32)
        result = stc.simulate_block(DENSE)
        assert result.cycles == 32
        assert result.products == 4096
        assert result.util_hist.fractions()[3] == 1.0

    @pytest.mark.parametrize("model_idx", range(len(MODELS)))
    @pytest.mark.parametrize("seed", range(3))
    def test_products_conserved(self, model_idx, seed):
        stc = stc_at(MODELS[model_idx], FP32)
        task = make_block_task(0.3, 0.3, seed)
        assert stc.simulate_block(task).products == task.intermediate_products()

    @pytest.mark.parametrize("model_idx", range(len(MODELS)))
    def test_fp32_never_slower_than_fp64(self, model_idx):
        fp32 = stc_at(MODELS[model_idx], FP32)
        fp64 = stc_at(MODELS[model_idx], FP64)
        for seed in range(4):
            task = make_block_task(0.4, 0.4, seed)
            assert fp32.simulate_block(task).cycles <= fp64.simulate_block(task).cycles

    def test_ds_stc_spmv_cap_shrinks(self):
        """At FP32 the outer product's vector cap drops to 8/128."""
        ds = DsSTC(FP32)
        result = ds.simulate_block(DENSE_VEC)
        assert result.products / (result.cycles * 128) <= 8 / 128 + 1e-9

    def test_rm_stc_spmv_cap_constant(self):
        """RM-STC's 16x4x2 at FP32 keeps the 25% vector cap (32/128)."""
        rm = RmSTC(FP32)
        result = rm.simulate_block(DENSE_VEC)
        assert result.products / (result.cycles * 128) <= 0.25 + 1e-9

    def test_uni_dense_vec_fp32(self):
        """A vector task has only 4 distinct output tiles, so the
        accumulator-conflict rule (one writer per tile per cycle) keeps
        the dense SpMV block at 4 cycles even with 128 MACs."""
        uni = UniSTC(UniSTCConfig(precision=FP32))
        result = uni.simulate_block(DENSE_VEC)
        assert result.cycles == 4
        no_stall = UniSTC(UniSTCConfig(precision=FP32, conflict_stall=False))
        assert no_stall.simulate_block(DENSE_VEC).cycles == 2


class TestFP16:
    def test_uni_dense_block(self):
        uni = UniSTC(UniSTCConfig(precision=FP16))
        result = uni.simulate_block(DENSE)
        assert result.cycles == 16
        assert result.util_hist.fractions()[3] == 1.0

    def test_mac_budget_ladder(self):
        """The §IV-A scaling: 64 -> 128 -> 256 MACs."""
        cycles = {}
        for precision in (FP64, FP32, FP16):
            uni = UniSTC(UniSTCConfig(precision=precision))
            cycles[precision.macs] = uni.simulate_block(DENSE).cycles
        assert cycles[64] == 2 * cycles[128] == 4 * cycles[256]

    @pytest.mark.parametrize(
        "name", [name for name in MODELS if name not in FP16_MODELS]
    )
    def test_model_without_fp16_shape_is_rejected(self, name):
        """Table VI has no FP16 shape for these: building one must fail
        instead of running the FP32 shape on half of a 256-MAC array."""
        with pytest.raises(ConfigError, match="fp16"):
            create_stc(name, FP16)

    @pytest.mark.parametrize("name", FP16_MODELS)
    def test_fp16_models_fill_the_wider_array(self, name):
        stc = stc_at(name, FP16)
        for result in (stc.simulate_block(DENSE), stc.simulate_blocks([DENSE])[0]):
            assert result.cycles == 16
            assert result.util_hist.fractions()[3] == 1.0
            assert result.counters.get("lane_cycles") == 256 * 16

    def test_trapezoid_rejects_budget_without_row_lanes(self):
        with pytest.raises(ConfigError, match="row lanes"):
            Trapezoid(Precision("odd", 64, 40))


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_main_module_importable(self):
        import importlib.util

        spec = importlib.util.find_spec("repro.__main__")
        assert spec is not None
