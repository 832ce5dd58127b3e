"""Parity tests for the baseline models' array evaluators.

Every registered baseline's ``simulate_blocks`` claims exact equality
with its stepped ``simulate_block``, because the engine inserts its
results into the same block cache the stepped path reads.  These tests
enforce that claim result for result — cycles, products, utilisation
bins, and counters *including their key order* — at FP64 and FP32 over
every kernel's block population, the edge cases a corpus draw may
miss, 2:4-structured A blocks, mixed-width batches and batches past
the chunk bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.batch import CHUNK_BLOCKS
from repro.arch.config import FP32, FP64
from repro.arch.tasks import T1Task
from repro.registry import registered_stcs

from tests.blocks import assert_results_equal, handmade_tasks, kernel_tasks
from tests.conftest import stc_at

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
        batch = stc.simulate_blocks(corpus_tasks)
        stepped = [stc.simulate_block(t) for t in corpus_tasks]
        assert_results_equal(batch, stepped, f"{name}/{precision.name}")

    def test_edge_blocks_match_stepped(self, name, precision):
        stc = stc_at(name, precision)
        tasks = handmade_tasks() + _edge_tasks()
        batch = stc.simulate_blocks(tasks)
        stepped = [stc.simulate_block(t) for t in tasks]
        assert_results_equal(batch, stepped, f"edge/{name}/{precision.name}")

    def test_structured_blocks_match_stepped(self, name, precision):
        stc = stc_at(name, precision)
        tasks = _structured_tasks()
        batch = stc.simulate_blocks(tasks)
        stepped = [stc.simulate_block(t) for t in tasks]
        assert_results_equal(batch, stepped, f"2:4/{name}/{precision.name}")

    def test_mixed_width_batch_keeps_task_order(self, corpus_tasks, name, precision):
        """n=1 and n=16 tasks interleaved in one batch keep their slots."""
        widths = {task.n for task in corpus_tasks}
        assert widths == {1, 16}
        order = np.random.default_rng(3).permutation(len(corpus_tasks))
        shuffled = [corpus_tasks[i] for i in order]
        stc = stc_at(name, precision)
        batch = stc.simulate_blocks(shuffled)
        stepped = [stc.simulate_block(t) for t in shuffled]
        assert_results_equal(batch, stepped, f"mixed/{name}/{precision.name}")

    def test_batch_past_the_chunk_bound(self, corpus_tasks, name, precision):
        """A batch spanning several evaluation chunks; distinct tasks
        are stepped once and their results compared at every slot."""
        distinct = corpus_tasks[:40]
        reps = CHUNK_BLOCKS // len(distinct) + 2
        tasks = distinct * reps
        assert len(tasks) > CHUNK_BLOCKS
        stc = stc_at(name, precision)
        batch = stc.simulate_blocks(tasks)
        stepped = [stc.simulate_block(t) for t in distinct] * reps
        assert_results_equal(batch, stepped, f"chunked/{name}/{precision.name}")

    def test_batched_path_never_steps(self, corpus_tasks, name, precision):
        """No block falls back to stepping, and every result already
        carries the int64 row the engine aggregates."""
        stc = stc_at(name, precision)

        def stepped(task):
            raise AssertionError("simulate_blocks fell back to simulate_block")

        stc.simulate_block = stepped
        results = stc.simulate_blocks(corpus_tasks)
        assert len(results) == len(corpus_tasks)
        for result in results:
            assert isinstance(vars(result).get("_int_vector"), np.ndarray)

    def test_empty_task_list(self, name, precision):
        assert stc_at(name, precision).simulate_blocks([]) == []


@pytest.mark.parametrize("precision", [FP64, FP32], ids=lambda p: p.name)
@pytest.mark.parametrize("name", registered_stcs())
def test_contract_holds_on_kernel_blocks(corpus_tasks, name, precision):
    """The five cross-model invariants over real kernel blocks, batched."""
    stc = stc_at(name, precision)
    for task, result in zip(corpus_tasks, stc.simulate_blocks(corpus_tasks)):
        products = task.intermediate_products()
        assert result.products == products
        assert result.counters.get("mac_ops") == products
        assert result.util_hist.cycles == result.cycles
        assert result.counters.get("lane_cycles") == stc.macs * result.cycles
        assert result.cycles >= -(-products // stc.macs)
