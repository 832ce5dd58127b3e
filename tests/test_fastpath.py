"""Parity and unit tests for the batched/analytic evaluation fast path.

``repro.arch.fastpath.simulate_blocks`` claims exact equality with the
stepped ``UniSTC.simulate_block`` reference — not "close", *equal*,
because the engine inserts its rows into the same block cache the
stepped path's rows land in.  These tests enforce that claim row for row
over every kernel's block population and over the model configurations
the experiments actually sweep, plus the closed-form DPG statistics
against the queue-walking decomposition they replace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.base import VECTOR_WIDTH
from repro.arch.config import Precision, UniSTCConfig, parse_precision
from repro.arch.dpg import DotProductGenerator, dpg_stats
from repro.arch.fastpath import (
    _dpg_stats_batch,
    decode_a_operands,
    decode_b_operands,
)
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC, decode_a_operand, decode_b_operand
from repro.errors import SimulationError
from repro.registry import create_stc

from tests.blocks import assert_results_equal, handmade_tasks, kernel_tasks


MODEL_VARIANTS = {
    "default": lambda: UniSTC(),
    "4dpg": lambda: UniSTC(UniSTCConfig(num_dpgs=4)),
    "16dpg": lambda: UniSTC(UniSTCConfig(num_dpgs=16)),
    "no-gating": lambda: UniSTC(UniSTCConfig(dynamic_gating=False)),
    "no-conflict": lambda: UniSTC(UniSTCConfig(conflict_stall=False)),
    "no-adaptive": lambda: UniSTC(UniSTCConfig(adaptive_ordering=False)),
    "fp32": lambda: UniSTC(UniSTCConfig(precision=parse_precision("fp32"))),
    "dot": lambda: UniSTC(ordering="dot"),
    "rowrow": lambda: UniSTC(ordering="rowrow"),
    "n-fill": lambda: UniSTC(fill_order="n"),
}


class TestBatchedParity:
    @pytest.fixture(scope="class")
    def corpus_tasks(self):
        return kernel_tasks()

    @pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
    def test_kernel_blocks_match_stepped(self, corpus_tasks, variant):
        stc = MODEL_VARIANTS[variant]()
        batch = stc.simulate_blocks(corpus_tasks)
        stepped = [stc.simulate_block(t) for t in corpus_tasks]
        assert_results_equal(batch, stepped, variant)

    def test_handmade_blocks_match_stepped(self):
        tasks = handmade_tasks()
        for variant, build in MODEL_VARIANTS.items():
            stc = build()
            batch = stc.simulate_blocks(tasks)
            stepped = [stc.simulate_block(t) for t in tasks]
            assert_results_equal(batch, stepped, f"handmade/{variant}")

    def test_mixed_width_group_order_preserved(self):
        """Matrix-B and vector-B tasks interleaved keep their slots."""
        tasks = handmade_tasks()
        rng = np.random.default_rng(3)
        order = rng.permutation(len(tasks))
        shuffled = [tasks[i] for i in order]
        stc = UniSTC()
        batch = stc.simulate_blocks(shuffled)
        stepped = [stc.simulate_block(t) for t in shuffled]
        assert_results_equal(batch, stepped, "mixed-width")

    def test_baseline_models_honour_block_api(self, corpus_tasks):
        """Baselines answer the same batched API (their array evaluators
        are pinned in depth by test_baseline_batched.py)."""
        some = corpus_tasks[:20]
        for name in ("ds-stc", "rm-stc"):
            stc = create_stc(name)
            batch = stc.simulate_blocks(some)
            stepped = [stc.simulate_block(t) for t in some]
            assert_results_equal(batch, stepped, name)

    def test_empty_task_list(self):
        rows = UniSTC().simulate_blocks([])
        assert rows.shape == (0, VECTOR_WIDTH) and rows.dtype == np.int64


class TestFallbackRouting:
    def test_regular_and_conflicted_blocks_never_step(self):
        """Conflict replay is analytic — no simulate_block calls."""
        stc = UniSTC()
        calls = []
        original = stc.simulate_block
        stc.simulate_block = lambda task: (calls.append(task), original(task))[1]
        stc.simulate_blocks(handmade_tasks())
        assert calls == []

    def test_over_budget_block_routes_to_stepping(self):
        """A T3 task over the MAC budget must behave like the stepped
        path — which raises — rather than being silently mis-scheduled."""
        tiny = UniSTC(UniSTCConfig(precision=Precision("tiny", 64, 32)))
        dense = T1Task.from_bitmaps(
            np.ones((16, 16), bool), np.ones((16, 16), bool)
        )
        with pytest.raises(SimulationError):
            tiny.simulate_block(dense)
        with pytest.raises(SimulationError):
            tiny.simulate_blocks([dense])

    def test_unknown_ordering_matches_stepped_error(self):
        odd = UniSTC(ordering="spiral")
        task = T1Task.from_bitmaps(
            np.eye(16, dtype=bool), np.eye(16, dtype=bool)
        )
        with pytest.raises(SimulationError):
            odd.simulate_block(task)
        with pytest.raises(SimulationError):
            odd.simulate_blocks([task])


class TestBatchedDecode:
    def test_decode_a_matches_scalar(self):
        rng = np.random.default_rng(5)
        stack = rng.random((40, 16, 16)) < 0.35
        tiles, cols = decode_a_operands(stack)
        for p in range(stack.shape[0]):
            ref_tiles, ref_cols = decode_a_operand(stack[p])
            assert np.array_equal(tiles[p], ref_tiles)
            assert np.array_equal(cols[p], ref_cols)

    @pytest.mark.parametrize("width", [16, 1])
    def test_decode_b_matches_scalar(self, width):
        rng = np.random.default_rng(6)
        stack = rng.random((40, 16, width)) < 0.4
        tiles, rows, n_cols = decode_b_operands(stack)
        for p in range(stack.shape[0]):
            ref_tiles, ref_rows, ref_n = decode_b_operand(stack[p])
            assert n_cols == ref_n
            assert np.array_equal(tiles[p], ref_tiles)
            assert np.array_equal(rows[p], ref_rows)

    def test_decode_b_rejects_unknown_width(self):
        with pytest.raises(SimulationError):
            decode_b_operands(np.zeros((3, 16, 7), dtype=bool))


class TestDpgStatsBatch:
    @pytest.mark.parametrize("n_cols,mask", [(4, 0xFFFF), (1, 0xF)])
    def test_matches_decompose(self, n_cols, mask):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 1 << 16, size=3000, dtype=np.int64)
        b = rng.integers(0, mask + 1, size=3000, dtype=np.int64)
        a[:4] = [0, 0xFFFF, 0x8001, 0x00F0]
        b[:4] = [0, mask, mask, 0]
        got = _dpg_stats_batch(a, b, n_cols)
        # The six summary stats are unions/popcounts, insensitive to
        # the queue-fill order — both fills must agree with the batch.
        for fill in ("z", "n"):
            gen = DotProductGenerator(fill)
            for i in range(200):
                out = gen.decompose(int(a[i]), int(b[i]), n_cols)
                assert tuple(got[i]) == (
                    len(out.t4_tasks),
                    out.a_elem_fetches,
                    out.b_elem_fetches,
                    out.a_broadcasts,
                    out.b_broadcasts,
                    out.c_writes,
                ), (n_cols, fill, int(a[i]), int(b[i]))

    def test_matches_memoised_stepping_helper(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        b = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        got = _dpg_stats_batch(a, b, 4)
        for i in range(a.size):
            assert tuple(got[i]) == dpg_stats(int(a[i]), int(b[i]), 4, "z")
