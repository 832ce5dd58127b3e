"""Tests for the network geometry and the energy model."""

import numpy as np
import pytest

from repro.arch.counters import ACTIONS, Counters
from repro.arch.network import (
    MONOLITHIC_PATH,
    UNI_A_PATH,
    UNI_B_PATH,
    UNI_C_PATH,
    NetworkPath,
    average_enabled_scale,
    crossbar_transfer_pj,
    uni_network_reductions,
)
from repro.energy.model import (
    DEFAULT_MODEL,
    DEFAULT_TABLE,
    BREAKDOWN_KEYS,
    DENSE_PROFILE,
    MONOLITHIC_PROFILE,
    UNI_PROFILE,
    EnergyModel,
    EnergyTable,
    profile_for,
)
from repro.registry import registered_stcs


class TestCrossbar:
    def test_scales_with_size(self):
        assert crossbar_transfer_pj(64, 256) > crossbar_transfer_pj(16, 16)

    def test_sqrt_rule(self):
        assert crossbar_transfer_pj(4, 16) == pytest.approx(2 * crossbar_transfer_pj(4, 4))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            crossbar_transfer_pj(0, 4)

    def test_path_sums_stages(self):
        path = NetworkPath(((4, 8), (64, 5)))
        expected = crossbar_transfer_pj(4, 8) + crossbar_transfer_pj(64, 5)
        assert path.transfer_pj() == pytest.approx(expected)


class TestUniNetworkReductions:
    def test_all_paths_cheaper_than_monolithic(self):
        mono = MONOLITHIC_PATH.transfer_pj()
        for path in (UNI_A_PATH, UNI_B_PATH, UNI_C_PATH):
            assert path.transfer_pj() < mono

    def test_reductions_ordering_matches_paper(self):
        """Paper §IV-C: A saves most (7.16x), then B (5.33x), then C (2.83x).

        The sqrt-crosspoint model must reproduce the ordering A > B and
        substantial (>2x) reductions for all three.
        """
        red_a, red_b, red_c = uni_network_reductions()
        assert red_a > red_b
        assert min(red_a, red_b, red_c) > 2.0

    def test_enabled_scale(self):
        # 2 active of 8 DPGs over 10 cycles -> 25% of the C network on.
        assert average_enabled_scale(20, 10, 8) == pytest.approx(0.25)
        assert average_enabled_scale(0, 0, 8) == 0.0


class TestProfiles:
    def test_profile_lookup(self):
        assert profile_for("uni-stc") is UNI_PROFILE
        assert profile_for("uni-stc(4dpg)") is UNI_PROFILE
        assert profile_for("nv-dtc") is DENSE_PROFILE
        assert profile_for("ds-stc") is MONOLITHIC_PROFILE
        assert profile_for("rm-stc") is MONOLITHIC_PROFILE

    def test_uni_cheaper_per_element(self):
        assert UNI_PROFILE.c_transfer_pj < MONOLITHIC_PROFILE.c_transfer_pj
        assert UNI_PROFILE.a_transfer_pj < MONOLITHIC_PROFILE.a_transfer_pj


class TestEnergyModel:
    def test_empty_counters_zero_energy(self):
        assert DEFAULT_MODEL.energy_pj(Counters(), "uni-stc") == 0.0

    def test_breakdown_keys(self):
        bd = DEFAULT_MODEL.breakdown(Counters({"mac_ops": 10}), "uni-stc")
        assert set(bd) == set(BREAKDOWN_KEYS)

    def test_mac_energy_in_compute(self):
        bd = DEFAULT_MODEL.breakdown(Counters({"mac_ops": 10}), "uni-stc")
        assert bd["compute"] == pytest.approx(10 * DEFAULT_MODEL.table.mac_op)
        assert bd["read_a"] == 0.0

    def test_c_writes_priced_by_architecture(self):
        counters = Counters({"c_net_transfers": 100})
        uni = DEFAULT_MODEL.energy_pj(counters, "uni-stc")
        mono = DEFAULT_MODEL.energy_pj(counters, "ds-stc")
        assert mono > uni

    def test_total_is_breakdown_sum(self):
        counters = Counters({"mac_ops": 5, "a_elem_reads": 3, "queue_ops": 7})
        bd = DEFAULT_MODEL.breakdown(counters, "rm-stc")
        assert DEFAULT_MODEL.energy_pj(counters, "rm-stc") == pytest.approx(sum(bd.values()))

    def test_gated_cheaper_than_active(self):
        active = DEFAULT_MODEL.energy_pj(Counters({"dpg_active_cycles": 10}), "uni-stc")
        gated = DEFAULT_MODEL.energy_pj(Counters({"dpg_gated_cycles": 10}), "uni-stc")
        assert gated < active / 5

    def test_energy_additive_in_counters(self):
        c1 = Counters({"mac_ops": 5})
        c2 = Counters({"b_elem_reads": 7})
        both = Counters({"mac_ops": 5, "b_elem_reads": 7})
        assert DEFAULT_MODEL.energy_pj(both, "uni-stc") == pytest.approx(
            DEFAULT_MODEL.energy_pj(c1, "uni-stc") + DEFAULT_MODEL.energy_pj(c2, "uni-stc")
        )

    def test_scaled_table(self):
        table = EnergyTable().scaled(2.0)
        assert table.mac_op == pytest.approx(2 * EnergyTable().mac_op)
        model = EnergyModel(table)
        c = Counters({"mac_ops": 3})
        assert model.energy_pj(c, "uni-stc") == pytest.approx(
            2 * DEFAULT_MODEL.energy_pj(c, "uni-stc")
        )

    def test_every_action_priced(self):
        """No counter may fall through the breakdown unpriced."""
        from repro.arch.counters import ACTIONS

        counters = Counters({a: 1 for a in ACTIONS})
        assert DEFAULT_MODEL.energy_pj(counters, "uni-stc") > 0


def chain_breakdown(table, net, counts):
    """The pricing oracle: the 17-branch chain ``EnergyModel.breakdown``
    walked on every call before it priced from a cached row, over the
    float counts reports then held (``0.0 + count``, nonzero only)."""
    t = table
    out = dict.fromkeys(BREAKDOWN_KEYS, 0.0)
    data = {action: 0.0 + count for action, count in zip(ACTIONS, counts) if count}
    for action in ACTIONS:
        count = data.get(action)
        if count is None:
            continue
        if action == "a_elem_reads":
            out["read_a"] += count * t.elem_read
        elif action == "a_net_transfers":
            out["read_a"] += count * net.a_transfer_pj
        elif action == "a_broadcasts":
            out["read_a"] += count * t.broadcast_hop
        elif action == "b_elem_reads":
            out["read_b"] += count * t.elem_read
        elif action == "b_net_transfers":
            out["read_b"] += count * net.b_transfer_pj
        elif action == "b_broadcasts":
            out["read_b"] += count * t.broadcast_hop
        elif action == "c_elem_writes":
            out["write_c"] += count * t.elem_write
        elif action == "c_net_transfers":
            out["write_c"] += count * net.c_transfer_pj
        elif action == "accum_accesses":
            out["write_c"] += count * t.accum_access
        elif action == "tile_fetches":
            out["read_a"] += count * net.tile_transfer_pj
        elif action == "meta_reads":
            out["schedule"] += count * t.meta_read
        elif action == "queue_ops":
            out["schedule"] += count * t.queue_op
        elif action == "dpg_active_cycles":
            out["schedule"] += count * t.dpg_active_cycle
        elif action == "dpg_gated_cycles":
            out["schedule"] += count * t.dpg_gated_cycle
        elif action == "sched_cycles":
            out["schedule"] += count * t.sched_cycle
        elif action == "mac_ops":
            out["compute"] += count * t.mac_op
        elif action == "lane_cycles":
            out["compute"] += count * t.lane_cycle
        else:
            raise KeyError(f"unpriced action {action!r}")
    return out


def _bits(breakdown):
    return [(key, value.hex()) for key, value in breakdown.items()]


class TestPriceRow:
    """``breakdown`` prices from a row cached per (table, profile), with
    the same float operations as the chain: bit-identical energy."""

    @pytest.mark.parametrize("table", [DEFAULT_TABLE, DEFAULT_TABLE.scaled(1.37)],
                             ids=["default", "scaled"])
    def test_every_stc_prices_as_the_chain(self, table):
        model = EnergyModel(table)
        rng = np.random.default_rng(34)
        for name in registered_stcs():
            net = profile_for(name)
            for _ in range(40):
                # Magnitudes from 1 to past 2^53, about a third of them zero.
                counts = rng.integers(0, 1 << 62, len(ACTIONS)) >> rng.integers(0, 62, len(ACTIONS))
                counts *= rng.random(len(ACTIONS)) < 0.65
                counts[rng.integers(len(ACTIONS))] = (1 << 53) + 1 + rng.integers(1 << 20)
                got = model.breakdown(Counters(counts=counts), name)
                want = chain_breakdown(table, net, counts.tolist())
                assert _bits(got) == _bits(want), name
                assert sum(got.values()).hex() == sum(want.values()).hex()

    def test_a_reassigned_table_reprices(self):
        model = EnergyModel()
        counters = Counters({"mac_ops": 3, "c_net_transfers": 5, "queue_ops": 7})
        before = model.breakdown(counters, "uni-stc")
        model.table = DEFAULT_TABLE.scaled(2.0)
        after = model.breakdown(counters, "uni-stc")
        assert _bits(after) == _bits(chain_breakdown(model.table, UNI_PROFILE,
                                                     counters.counts.tolist()))
        assert after["compute"] == 2 * before["compute"]
        model.table = DEFAULT_TABLE
        assert _bits(model.breakdown(counters, "uni-stc")) == _bits(before)
