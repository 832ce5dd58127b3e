"""Tests for buffer capacity accounting, the Benes router and wake-up."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.benes import apply_routing, benes_stage_count, route
from repro.arch.buffers import (
    assert_fits,
    minimum_config_bytes,
    task_demand,
    verify_paper_sizing,
)
from repro.arch.config import FP32, UniSTCConfig
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.errors import ConfigError

from tests.conftest import make_block_task
from tests.stepped_models import simulate_block

DENSE = T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))


class TestBufferSizing:
    def test_paper_sizes_cover_worst_case(self):
        """The 144B/2KB/1KB buffers fit a dense FP64 T1 task (§IV-C)."""
        assert all(verify_paper_sizing().values())

    def test_matrix_a_buffer_is_exact(self):
        """2 KB / 8 B = exactly one dense 16x16 FP64 block."""
        demand = task_demand(DENSE)
        assert demand.matrix_a_bytes == 2048
        assert demand.matrix_a_bytes == UniSTCConfig().matrix_a_buffer_bytes

    def test_fp32_halves_value_demand(self):
        demand = task_demand(DENSE, UniSTCConfig(precision=FP32))
        assert demand.matrix_a_bytes == 1024

    def test_sparse_task_low_occupancy(self):
        task = make_block_task(0.05, 0.05, 1)
        occ = task_demand(task).occupancy(UniSTCConfig())
        assert occ["matrix_a"] < 0.3

    def test_minimum_config_matches_paper(self):
        minimum = minimum_config_bytes()
        cfg = UniSTCConfig()
        assert minimum["matrix_a"] <= cfg.matrix_a_buffer_bytes
        assert minimum["meta"] <= cfg.meta_buffer_bytes
        assert minimum["accumulator"] <= cfg.accumulator_buffer_bytes

    def test_assert_fits_raises_on_tiny_buffers(self):
        tiny = UniSTCConfig(matrix_a_buffer_bytes=64)
        with pytest.raises(ConfigError):
            assert_fits(DENSE, tiny)

    def test_assert_fits_returns_demand(self):
        demand = assert_fits(make_block_task(0.2, 0.2, 2))
        assert demand.meta_bytes > 0


class TestBenes:
    def test_stage_counts(self):
        assert benes_stage_count(2) == 1
        assert benes_stage_count(4) == 3
        assert benes_stage_count(8) == 5
        assert benes_stage_count(16) == 7

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            benes_stage_count(6)
        with pytest.raises(ConfigError):
            route([0, 2, 1])

    def test_rejects_non_permutation(self):
        with pytest.raises(ConfigError):
            route([0, 0, 1, 1])

    def test_identity_route(self):
        routing = route(list(range(8)))
        assert apply_routing(routing, list(range(8))) == list(range(8))

    def test_reversal_route(self):
        perm = list(reversed(range(16)))
        routing = route(perm)
        assert apply_routing(routing, list(range(16))) == perm

    @given(st.integers(0, 10_000), st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_any_permutation_routable(self, seed, n):
        """Rearrangeable non-blocking: every permutation routes."""
        perm = list(np.random.default_rng(seed).permutation(n))
        routing = route(perm)
        assert apply_routing(routing, list(range(n))) == perm
        assert routing.stage_count == benes_stage_count(n)

    def test_switch_count_formula(self):
        routing = route(list(range(16)))
        # N/2 switches per stage x (2 log2 N - 1) stages.
        assert routing.switch_count == 8 * 7

    def test_crossed_switches_bounded(self):
        routing = route(list(reversed(range(8))))
        assert 0 < routing.crossed_switches <= routing.switch_count


class TestWakeupModel:
    def test_default_lookahead_hides_wakeup(self):
        """With lookahead >= wakeup (the paper's assumption) cycle
        counts match the no-gating configuration exactly."""
        hidden = UniSTC(UniSTCConfig(dpg_wakeup_cycles=1, lookahead_cycles=1))
        ungated = UniSTC(UniSTCConfig(dynamic_gating=False))
        for seed in range(5):
            task = make_block_task(0.3, 0.3, seed)
            assert simulate_block(hidden, task).cycles == simulate_block(ungated, task).cycles

    def test_no_lookahead_exposes_stalls(self):
        exposed = UniSTC(UniSTCConfig(dpg_wakeup_cycles=2, lookahead_cycles=0))
        hidden = UniSTC()
        slower = 0
        for seed in range(6):
            task = make_block_task(0.25, 0.4, seed)
            if simulate_block(exposed, task).cycles > simulate_block(hidden, task).cycles:
                slower += 1
        assert slower >= 3  # demand fluctuates, so stalls appear often

    def test_stall_cycles_counted_in_histogram(self):
        exposed = UniSTC(UniSTCConfig(dpg_wakeup_cycles=3, lookahead_cycles=0))
        task = make_block_task(0.25, 0.4, 1)
        result = simulate_block(exposed, task)
        assert result.util_hist.cycles == result.cycles

    def test_dpg_cycle_partition_preserved(self):
        exposed = UniSTC(UniSTCConfig(dpg_wakeup_cycles=2, lookahead_cycles=0))
        task = make_block_task(0.3, 0.3, 2)
        result = simulate_block(exposed, task)
        total = (result.counters.get("dpg_active_cycles")
                 + result.counters.get("dpg_gated_cycles"))
        assert total == exposed.config.num_dpgs * result.cycles

    def test_cache_key_distinguishes_wakeup(self):
        assert (UniSTC(UniSTCConfig(lookahead_cycles=0)).cache_key()
                != UniSTC().cache_key())
