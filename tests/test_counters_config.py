"""Tests for the action counters and architecture configuration."""

import numpy as np
import pytest

from repro.arch.config import FP16, FP32, FP64, PRECISIONS, UniSTCConfig
from repro.arch.counters import ACTIONS, Counters
from repro.errors import ConfigError

from tests.stepped_models import StepCounters


class TestCounters:
    def test_starts_empty(self):
        c = Counters()
        assert c.as_dict() == {}
        assert c.get("mac_ops") == 0.0

    def test_add_and_get(self):
        c = StepCounters()
        c.add("mac_ops", 10)
        c.add("mac_ops", 5)
        assert c.get("mac_ops") == 15

    def test_zero_add_not_stored(self):
        c = StepCounters()
        c.add("mac_ops", 0)
        assert c.as_dict() == {}

    def test_unknown_action_rejected(self):
        with pytest.raises(KeyError):
            StepCounters().add("flux_capacitor", 1)
        with pytest.raises(KeyError):
            Counters({"flux_capacitor": 1})
        with pytest.raises(KeyError):
            Counters().get("flux_capacitor")

    def test_initial_mapping(self):
        c = Counters({"mac_ops": 3, "queue_ops": 2.0})
        assert c.get("mac_ops") == 3
        assert c.get("queue_ops") == 2
        assert c.counts.dtype == np.int64
        # Floats, nonzero only, in ACTIONS order whatever the mapping's.
        assert list(c.as_dict().items()) == [("mac_ops", 3.0), ("queue_ops", 2.0)]
        assert all(type(v) is float for v in c.as_dict().values())

    @pytest.mark.parametrize("bad", [4.5, -1, float("nan"), float("inf"), 2.0 ** 63,
                                     1 << 63, "4", True])
    def test_non_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="mac_ops"):
            Counters({"mac_ops": bad})

    def test_equality(self):
        assert Counters({"mac_ops": 1}) == Counters({"mac_ops": 1})
        assert Counters({"mac_ops": 1}) != Counters({"mac_ops": 2})

    def test_actions_vocabulary_stable(self):
        # The energy model prices exactly these actions.
        assert "mac_ops" in ACTIONS
        assert "dpg_active_cycles" in ACTIONS
        assert len(ACTIONS) == len(set(ACTIONS))


class TestPrecision:
    def test_mac_budgets(self):
        """The paper's scaling: 64@FP64, 128@FP32, 256@FP16 (§IV-A)."""
        assert FP64.macs == 64
        assert FP32.macs == 128
        assert FP16.macs == 256

    def test_value_bytes(self):
        assert FP64.value_bytes == 8
        assert FP32.value_bytes == 4
        assert FP16.value_bytes == 2

    def test_registry(self):
        assert PRECISIONS["fp64"] is FP64


class TestUniSTCConfig:
    def test_defaults_match_paper(self):
        cfg = UniSTCConfig()
        assert cfg.num_dpgs == 8
        assert cfg.tile == 4
        assert cfg.block == 16
        assert cfg.frequency_ghz == 1.5
        assert cfg.meta_buffer_bytes == 144
        assert cfg.matrix_a_buffer_bytes == 2048
        assert cfg.accumulator_buffer_bytes == 1024

    def test_derived_quantities(self):
        cfg = UniSTCConfig()
        assert cfg.macs == 64
        assert cfg.tiles_per_side == 4
        assert cfg.max_products_per_t3 == 64

    def test_with_dpgs(self):
        cfg = UniSTCConfig().with_dpgs(16)
        assert cfg.num_dpgs == 16
        assert UniSTCConfig().num_dpgs == 8  # original untouched

    def test_with_precision(self):
        cfg = UniSTCConfig().with_precision(FP32)
        assert cfg.macs == 128

    def test_rejects_zero_dpgs(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(num_dpgs=0)

    def test_rejects_indivisible_tile(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(tile=5)

    def test_rejects_shallow_tile_queue(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(num_dpgs=8, tile_queue_depth=4)


class TestUniSTCConfigDSEValidation:
    """Every knob a design-space sweep can set must reject bad values."""

    def test_rejects_negative_dpgs(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(num_dpgs=-4)

    def test_rejects_non_positive_tile(self):
        for tile in (0, -2):
            with pytest.raises(ConfigError):
                UniSTCConfig(tile=tile)

    def test_rejects_non_positive_block(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(block=0)

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(frequency_ghz=0.0)

    def test_rejects_non_positive_queue_depths(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(dot_queue_depth=0)
        with pytest.raises(ConfigError):
            UniSTCConfig(num_dpgs=1, tile_queue_depth=0)

    def test_rejects_negative_wakeup_and_lookahead(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(dpg_wakeup_cycles=-1)
        with pytest.raises(ConfigError):
            UniSTCConfig(lookahead_cycles=-1)

    def test_rejects_negative_buffer_bytes(self):
        with pytest.raises(ConfigError):
            UniSTCConfig(meta_buffer_bytes=-1)
        with pytest.raises(ConfigError):
            UniSTCConfig(matrix_a_buffer_bytes=-1)
        with pytest.raises(ConfigError):
            UniSTCConfig(accumulator_buffer_bytes=-1)

    def test_rejects_precision_by_bare_name(self):
        """A CLI/space string must go through parse_precision first."""
        with pytest.raises(ConfigError):
            UniSTCConfig(precision="fp64")


class TestParsePrecision:
    def test_known_names(self):
        from repro.arch.config import parse_precision

        assert parse_precision("fp64") is PRECISIONS["fp64"]
        assert parse_precision("FP32").macs == 128
        assert parse_precision(" fp16 ").bits == 16

    def test_unknown_name_rejected(self):
        from repro.arch.config import parse_precision

        with pytest.raises(ConfigError):
            parse_precision("bf16")
        with pytest.raises(ConfigError):
            parse_precision("")
