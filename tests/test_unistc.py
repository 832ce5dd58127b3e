"""Tests for the assembled Uni-STC simulator."""

import numpy as np
import pytest

from repro.arch.config import FP32, UniSTCConfig
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.errors import SimulationError

from tests.conftest import make_block_task
from tests.stepped_models import decode_a_operand, decode_b_operand, simulate_block


class TestDecode:
    def test_a_decode_dense(self):
        tiles, cols = decode_a_operand(np.ones((16, 16), dtype=bool))
        assert (tiles == 0xFFFF).all()
        assert (cols == 4).all()

    def test_a_decode_positions(self):
        a = np.zeros((16, 16), dtype=bool)
        a[5, 9] = True  # tile (1, 2), element (1, 1)
        tiles, cols = decode_a_operand(a)
        assert tiles[1, 2] == 1 << (1 * 4 + 1)
        assert cols[1, 2, 1] == 1

    def test_b_decode_matrix(self):
        tiles, rows, n_cols = decode_b_operand(np.ones((16, 16), dtype=bool))
        assert n_cols == 4
        assert (rows == 4).all()

    def test_b_decode_vector(self):
        b = np.zeros((16, 1), dtype=bool)
        b[6, 0] = True  # segment 1, offset 2
        tiles, rows, n_cols = decode_b_operand(b)
        assert n_cols == 1
        assert tiles.shape == (4, 1)
        assert tiles[1, 0] == 1 << 2
        assert rows[1, 0, 2] == 1

    def test_b_decode_rejects_other_shapes(self):
        with pytest.raises(SimulationError):
            decode_b_operand(np.ones((16, 4), dtype=bool))


class TestDenseBehaviour:
    def test_dense_block_cycles_and_util(self, uni):
        result = simulate_block(uni,
            T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
        )
        assert result.cycles == 64
        assert result.products == 4096
        assert result.util_hist.fractions()[3] == 1.0

    def test_dense_fp32_halves_cycles(self):
        uni32 = UniSTC(UniSTCConfig(precision=FP32))
        result = simulate_block(uni32,
            T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool))
        )
        assert result.cycles == 32

    def test_dense_spmv_block(self, uni):
        result = simulate_block(uni,
            T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 1), bool))
        )
        assert result.products == 256
        assert result.cycles == 4


class TestEmptyAndEdge:
    def test_empty_block_single_cycle(self, uni):
        result = simulate_block(uni,
            T1Task.from_bitmaps(np.zeros((16, 16), bool), np.ones((16, 16), bool))
        )
        assert result.cycles == 1
        assert result.products == 0
        assert result.counters.get("mac_ops") == 0

    def test_disjoint_structure_single_cycle(self, uni):
        """A and B nonzero but never index-matching: no products."""
        a = np.zeros((16, 16), bool)
        b = np.zeros((16, 16), bool)
        a[:, 0] = True
        b[1, :] = True
        result = simulate_block(uni, T1Task.from_bitmaps(a, b))
        assert result.products == 0
        assert result.cycles == 1

    def test_single_product(self, uni):
        a = np.zeros((16, 16), bool)
        b = np.zeros((16, 16), bool)
        a[0, 0] = True
        b[0, 0] = True
        result = simulate_block(uni, T1Task.from_bitmaps(a, b))
        assert result.products == 1
        assert result.cycles == 1
        assert result.counters.get("c_elem_writes") == 1


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_products_conserved(self, uni, seed):
        task = make_block_task(0.3, 0.3, seed)
        result = simulate_block(uni, task)
        assert result.products == task.intermediate_products()

    @pytest.mark.parametrize("seed", range(8))
    def test_cycles_at_least_ideal(self, uni, seed):
        task = make_block_task(0.4, 0.4, seed)
        result = simulate_block(uni, task)
        assert result.cycles >= -(-task.intermediate_products() // 64)

    @pytest.mark.parametrize("seed", range(8))
    def test_histogram_covers_all_cycles(self, uni, seed):
        task = make_block_task(0.2, 0.5, seed)
        result = simulate_block(uni, task)
        assert result.util_hist.cycles == result.cycles

    @pytest.mark.parametrize("seed", range(8))
    def test_c_writes_are_distinct_outputs(self, uni, seed):
        """C crosses the output network once per distinct output element
        (the accumulator buffer absorbs T4 partial writes, §IV-C)."""
        task = make_block_task(0.3, 0.3, seed)
        result = simulate_block(uni, task)
        writes = result.counters.get("c_elem_writes")
        expected = int(np.count_nonzero(
            task.a_bitmap().astype(int) @ task.b_bitmap().astype(int)
        ))
        assert writes == expected
        assert writes <= result.products
        # Accumulator RMWs record the pre-merged T4 writes instead.
        accum = result.counters.get("accum_accesses")
        assert accum >= result.products / 4

    @pytest.mark.parametrize("seed", range(4))
    def test_dpg_cycles_partition(self, uni, seed):
        """Active + gated DPG-cycles = num_dpgs x cycles (gating on)."""
        task = make_block_task(0.3, 0.3, seed)
        result = simulate_block(uni, task)
        total = (result.counters.get("dpg_active_cycles")
                 + result.counters.get("dpg_gated_cycles"))
        assert total == uni.config.num_dpgs * result.cycles

    def test_gating_disabled_keeps_all_active(self):
        uni = UniSTC(UniSTCConfig(dynamic_gating=False))
        task = make_block_task(0.2, 0.2, 1)
        result = simulate_block(uni, task)
        assert result.counters.get("dpg_gated_cycles") == 0
        assert result.counters.get("dpg_active_cycles") == uni.config.num_dpgs * result.cycles

    def test_vector_task_invariants(self, uni):
        task = make_block_task(0.4, 0.6, 3, n=1)
        result = simulate_block(uni, task)
        assert result.products == task.intermediate_products()
        assert result.cycles >= 1


class TestConfigurations:
    def test_more_dpgs_never_slower(self):
        """Monotonicity: DPG count can only help cycle counts."""
        uni4 = UniSTC(UniSTCConfig(num_dpgs=4, tile_queue_depth=8))
        uni16 = UniSTC(UniSTCConfig(num_dpgs=16))
        for seed in range(6):
            task = make_block_task(0.25, 0.25, seed)
            assert simulate_block(uni16, task).cycles <= simulate_block(uni4, task).cycles

    def test_cache_keys_distinguish_configs(self):
        assert UniSTC().cache_key() != UniSTC(UniSTCConfig(num_dpgs=4, tile_queue_depth=8)).cache_key()
        assert UniSTC().cache_key() != UniSTC(ordering="dot").cache_key()
        assert UniSTC().cache_key() != UniSTC(fill_order="n").cache_key()

    def test_name_includes_nonstandard_dpgs(self):
        assert UniSTC().name == "uni-stc"
        assert "4dpg" in UniSTC(UniSTCConfig(num_dpgs=4, tile_queue_depth=8)).name

    def test_n_fill_same_cycles(self):
        """Fill order affects operand locality, not cycle counts."""
        z, n = UniSTC(fill_order="z"), UniSTC(fill_order="n")
        for seed in range(4):
            task = make_block_task(0.3, 0.3, seed)
            assert simulate_block(z, task).cycles == simulate_block(n, task).cycles
