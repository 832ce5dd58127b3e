"""Parity tests for the baseline models' array evaluators.

Every registered baseline's ``simulate_blocks`` claims exact equality
with its stepped oracle (``tests/stepped_models.py``), because the
memo, the result store and every report are built from its rows.
These tests enforce that claim row for row — cycles, products, utilisation
bins and every action count — at FP64 and FP32 over every kernel's
block population, the edge cases a corpus draw may miss,
2:4-structured A blocks, shuffled mixed-width task lists, engine-shaped
batches and batches past the chunk bound, each fed as packed task
batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.base import ACTION_COL, VECTOR_WIDTH, STCModel
from repro.arch.batch import CHUNK_BLOCKS
from repro.arch.config import FP32, FP64
from repro.arch.tasks import T1Task
from repro.registry import registered_stcs

from tests.blocks import (
    BINS,
    CYCLES,
    PRODUCTS,
    assert_results_equal,
    engine_batch,
    handmade_tasks,
    kernel_tasks,
    simulate_blocks,
)
from tests.conftest import stc_at
from tests.stepped_models import stepped_block

BASELINES = [name for name in registered_stcs() if name != "uni-stc"]


def _structured_tasks(count: int = 60) -> list:
    """A blocks satisfying 2:4 along K, against matrix and vector B."""
    rng = np.random.default_rng(24)
    tasks = []
    for index in range(count):
        a = np.zeros((16, 16), bool)
        for row in range(16):
            for group in range(4):
                kept = rng.choice(4, size=rng.integers(0, 3), replace=False)
                a[row, 4 * group + kept] = True
        width = 1 if index % 4 == 0 else 16
        tasks.append(T1Task.from_bitmaps(a, rng.random((16, width)) < rng.random()))
    # Exactly two nonzeros in every window: the densest 2:4 block.
    a = np.zeros((16, 16), bool)
    a[:, 0::2] = True
    tasks.append(T1Task.from_bitmaps(a, np.ones((16, 16), bool)))
    return tasks


def _edge_tasks() -> list:
    """Empty, dense, single-row/column and single-element blocks."""
    empty, dense = np.zeros((16, 16), bool), np.ones((16, 16), bool)
    one_row, one_col, one = empty.copy(), empty.copy(), empty.copy()
    one_row[5] = True
    one_col[:, 9] = True
    one[3, 7] = True
    b_one = empty.copy()
    b_one[7, 2] = True
    tasks = []
    for a in (empty, dense, one_row, one_col, one):
        for b in (empty, dense, one_row, one_col, b_one):
            tasks.append(T1Task.from_bitmaps(a, b))
        for vec in (np.zeros((16, 1), bool), np.ones((16, 1), bool)):
            tasks.append(T1Task.from_bitmaps(a, vec))
    # Trapezoid cycles whose utilisation sits exactly on a bin edge: the
    # rows' work / row_cycles terms land in the stepped bins only when
    # added in row order (a pairwise sum flips some of them).
    row_masks = np.array([
        0xDECC, 0x2188, 0x6385, 0xA393, 0x1882, 0xA0CB, 0x3651, 0x1E89,
        0x102C, 0x3875, 0x3311, 0x28B0, 0x4928, 0x9070, 0x8B12, 0x6252,
    ])
    on_edge = ((row_masks[:, None] >> np.arange(16)) & 1).astype(bool)
    tasks.append(T1Task.from_bitmaps(on_edge, dense))
    return tasks


@pytest.fixture(scope="module")
def corpus_tasks():
    return kernel_tasks()


@pytest.mark.parametrize("precision", [FP64, FP32], ids=lambda p: p.name)
@pytest.mark.parametrize("name", BASELINES)
class TestBaselineParity:
    def test_kernel_blocks_match_stepped(self, corpus_tasks, name, precision):
        stc = stc_at(name, precision)
        batch = simulate_blocks(stc, corpus_tasks)
        stepped = [stepped_block(stc, t) for t in corpus_tasks]
        assert_results_equal(batch, stepped, f"{name}/{precision.name}")

    def test_edge_blocks_match_stepped(self, name, precision):
        stc = stc_at(name, precision)
        tasks = handmade_tasks() + _edge_tasks()
        batch = simulate_blocks(stc, tasks)
        stepped = [stepped_block(stc, t) for t in tasks]
        assert_results_equal(batch, stepped, f"edge/{name}/{precision.name}")

    def test_structured_blocks_match_stepped(self, name, precision):
        stc = stc_at(name, precision)
        tasks = _structured_tasks()
        batch = simulate_blocks(stc, tasks)
        stepped = [stepped_block(stc, t) for t in tasks]
        assert_results_equal(batch, stepped, f"2:4/{name}/{precision.name}")

    def test_engine_shaped_batch_matches_stepped(self, corpus_tasks, name, precision):
        """Pattern tables with unreferenced rows and out-of-order
        indexes, as the engine's miss batches have them."""
        stc = stc_at(name, precision)
        tasks = corpus_tasks + handmade_tasks()
        batch = simulate_blocks(stc, tasks, make_batch=engine_batch)
        stepped = [stepped_block(stc, t) for t in tasks]
        assert_results_equal(batch, stepped, f"engine/{name}/{precision.name}")

    def test_mixed_width_batch_keeps_task_order(self, corpus_tasks, name, precision):
        """n=1 and n=16 tasks interleaved keep their slots: each width's
        batch indexes its patterns out of order."""
        widths = {task.n for task in corpus_tasks}
        assert widths == {1, 16}
        order = np.random.default_rng(3).permutation(len(corpus_tasks))
        shuffled = [corpus_tasks[i] for i in order]
        stc = stc_at(name, precision)
        batch = simulate_blocks(stc, shuffled)
        stepped = [stepped_block(stc, t) for t in shuffled]
        assert_results_equal(batch, stepped, f"mixed/{name}/{precision.name}")

    def test_batch_past_the_chunk_bound(self, corpus_tasks, name, precision):
        """A batch spanning several evaluation chunks; distinct tasks
        are stepped once and their results compared at every slot."""
        distinct = corpus_tasks[:40]
        reps = CHUNK_BLOCKS // len(distinct) + 2
        tasks = distinct * reps
        assert len(tasks) > CHUNK_BLOCKS
        stc = stc_at(name, precision)
        batch = simulate_blocks(stc, tasks)
        stepped = [stepped_block(stc, t) for t in distinct] * reps
        assert_results_equal(batch, stepped, f"chunked/{name}/{precision.name}")

    def test_batched_path_never_steps(self, corpus_tasks, name, precision):
        """The model has no stepped ``simulate_block`` to fall back to:
        ``simulate_blocks`` is the one abstract evaluator."""
        assert STCModel.__abstractmethods__ == {"simulate_blocks", "macs"}
        stc = stc_at(name, precision)
        assert not hasattr(stc, "simulate_block")
        rows = simulate_blocks(stc, corpus_tasks)
        assert rows.shape == (len(corpus_tasks), VECTOR_WIDTH)

    def test_empty_task_list(self, name, precision):
        rows = simulate_blocks(stc_at(name, precision), [])
        assert rows.shape == (0, VECTOR_WIDTH) and rows.dtype == np.int64


@pytest.mark.parametrize("precision", [FP64, FP32], ids=lambda p: p.name)
@pytest.mark.parametrize("name", registered_stcs())
def test_contract_holds_on_kernel_blocks(corpus_tasks, name, precision):
    """The five cross-model invariants over real kernel blocks, batched."""
    stc = stc_at(name, precision)
    for task, row in zip(corpus_tasks, simulate_blocks(stc, corpus_tasks)):
        products = task.intermediate_products()
        assert row[PRODUCTS] == products
        assert row[ACTION_COL["mac_ops"]] == products
        assert row[BINS].sum() == row[CYCLES]
        assert row[ACTION_COL["lane_cycles"]] == stc.macs * row[CYCLES]
        assert row[CYCLES] >= -(-products // stc.macs)
