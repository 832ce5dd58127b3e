"""Tests for the STC and workload registries."""

import pytest

from repro.arch.config import UniSTCConfig
from repro.energy.area import stc_area_mm2, total_area_mm2
from repro.energy.model import (
    DENSE_PROFILE,
    MONOLITHIC_PROFILE,
    UNI_PROFILE,
    profile_for,
)
from repro.errors import ConfigError, ReproError
from repro.registry import (
    STCEntry,
    WorkloadKind,
    canonical_stc_name,
    create_stc,
    entry_for,
    parse_matrix_spec,
    register_stc,
    register_workload,
    registered_stcs,
    registered_workloads,
    stc_factory,
    stc_family,
    unregister_stc,
    unregister_workload,
)


class TestSTCRegistry:
    def test_all_builtins_registered(self):
        assert registered_stcs() == [
            "ds-stc", "gamma", "nv-dtc", "nv-dtc-2:4", "rm-stc",
            "sigma", "trapezoid", "uni-stc",
        ]

    def test_every_choice_resolves_to_a_model(self):
        for name in registered_stcs():
            model = create_stc(name)
            assert hasattr(model, "name")

    def test_names_round_trip_registry_model_pricing(self):
        """registry name -> model .name -> energy/area lookup."""
        for name in registered_stcs():
            model = create_stc(name)
            entry = entry_for(model.name)
            assert entry.name == name
            assert stc_family(model.name) == entry.family
            # the energy model resolves the instance name too
            assert profile_for(model.name) is profile_for(name)
            if entry.area_model != "none":
                assert stc_area_mm2(model.name) > 0

    def test_duplicate_registration_rejected(self):
        entry = entry_for("uni-stc")
        with pytest.raises(ConfigError, match="already registered"):
            register_stc(entry)

    def test_register_unregister_custom(self):
        entry = STCEntry("my-stc", family="uni-stc", network="hierarchical",
                         factory=lambda: create_stc("uni-stc"))
        register_stc(entry)
        try:
            assert "my-stc" in registered_stcs()
            assert stc_family("my-stc") == "uni-stc"
            assert profile_for("my-stc") is UNI_PROFILE
        finally:
            unregister_stc("my-stc")
        assert "my-stc" not in registered_stcs()

    def test_unregister_unknown_is_an_error(self):
        with pytest.raises(ConfigError):
            unregister_stc("no-such-stc")

    def test_entry_validation(self):
        with pytest.raises(ConfigError, match="non-empty name"):
            STCEntry("", family="x", factory=lambda: None)
        with pytest.raises(ConfigError, match="network"):
            STCEntry("x", family="x", factory=lambda: None, network="mesh")
        with pytest.raises(ConfigError, match="area model"):
            STCEntry("x", family="x", factory=lambda: None, area_model="rtl")
        with pytest.raises(ConfigError, match="positive area_mm2"):
            STCEntry("x", family="x", factory=lambda: None, area_model="fixed")


class TestVariantNames:
    def test_canonical_passthrough(self):
        assert canonical_stc_name("uni-stc") == "uni-stc"

    def test_paren_variant(self):
        assert canonical_stc_name("uni-stc(4dpg)") == "uni-stc"

    def test_bracket_variant(self):
        assert canonical_stc_name("uni-stc[num_dpgs=4,tile=8]") == "uni-stc"

    def test_unknown_name_raises_with_vocabulary(self):
        with pytest.raises(ConfigError, match="choose from"):
            canonical_stc_name("tpu")

    def test_variant_of_unknown_base_raises(self):
        with pytest.raises(ConfigError):
            canonical_stc_name("tpu(v4)")

    def test_configured_instance_prices_as_its_family(self):
        model = create_stc("uni-stc", UniSTCConfig(num_dpgs=4,
                                                   tile_queue_depth=8))
        assert model.name == "uni-stc(4dpg)"
        assert stc_family(model) == "uni-stc"
        assert profile_for(model) is UNI_PROFILE


class TestFactoriesAndFamilies:
    def test_factory_builds_fresh_instances(self):
        build = stc_factory("uni-stc")
        assert build() is not build()

    def test_factory_with_bound_config(self):
        config = UniSTCConfig(num_dpgs=4, tile_queue_depth=8)
        build = stc_factory("uni-stc", config)
        model = build()
        assert model.config.num_dpgs == 4

    def test_bad_config_type_rejected_up_front(self):
        with pytest.raises(ConfigError, match="expects a"):
            stc_factory("uni-stc", object())

    def test_network_families(self):
        assert profile_for("nv-dtc") is DENSE_PROFILE
        assert profile_for("nv-dtc-2:4") is DENSE_PROFILE
        assert profile_for("uni-stc") is UNI_PROFILE
        assert profile_for("gamma") is MONOLITHIC_PROFILE

    def test_unknown_stc_has_no_silent_network_profile(self):
        with pytest.raises(ConfigError):
            profile_for("tpu")

    def test_area_models(self):
        assert stc_area_mm2("uni-stc") == total_area_mm2(UniSTCConfig())
        assert stc_area_mm2("rm-stc") == entry_for("rm-stc").area_mm2
        assert stc_area_mm2("ds-stc") == entry_for("ds-stc").area_mm2

    def test_no_area_model_is_an_error_not_a_default(self):
        with pytest.raises(ConfigError, match="no area model"):
            stc_area_mm2("gamma")


class TestWorkloadRegistry:
    def test_builtin_kinds(self):
        assert registered_workloads() == [
            "band", "corpus", "model", "mtx", "poisson", "random", "rep",
            "rmat",
        ]

    def test_every_synthetic_kind_builds(self):
        assert parse_matrix_spec("band:64:8:0.5").shape == (64, 64)
        assert parse_matrix_spec("random:32:0.2").shape == (32, 32)
        assert parse_matrix_spec("rmat:5").shape == (32, 32)
        assert parse_matrix_spec("poisson:6").shape == (36, 36)
        assert parse_matrix_spec("rep:consph").shape == (256, 256)

    def test_poisson_rejects_an_empty_grid(self):
        with pytest.raises(ReproError, match="grid must be >= 1"):
            parse_matrix_spec("poisson:0")

    def test_model_kind_builds_block_diagonal_weights(self):
        from repro.workloads.dnn import resnet50_layers

        m = parse_matrix_spec("model:resnet50:0.7:0.05")
        layers = resnet50_layers(0.05)
        assert m.shape == (sum(l.m for l in layers),
                           sum(l.k for l in layers))
        assert m.nnz > 0

    def test_model_kind_defaults(self):
        assert parse_matrix_spec("model:transformer").nnz > 0

    def test_model_kind_bad_args_name_the_grammar(self):
        with pytest.raises(ReproError, match="model:NAME"):
            parse_matrix_spec("model:resnet50:dense")

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown matrix spec"):
            parse_matrix_spec("banana:1")

    def test_bad_args_name_the_grammar(self):
        with pytest.raises(ReproError, match="band:N:BW:D"):
            parse_matrix_spec("band:64")

    def test_duplicate_workload_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_workload(
                WorkloadKind("band", "banded",
                             lambda parts: parse_matrix_spec("band:8:2:0.5")))

    def test_register_unregister_custom(self):
        kind = WorkloadKind(
            "eye", "diagonal",
            lambda parts: parse_matrix_spec(f"band:{parts[0]}:1:1.0"),
            grammar="eye:N")
        register_workload(kind)
        try:
            assert parse_matrix_spec("eye:16").shape == (16, 16)
        finally:
            unregister_workload("eye")
        with pytest.raises(ReproError):
            parse_matrix_spec("eye:16")
