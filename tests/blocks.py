"""T1 block draws and the equality check of the batched parity tests.

:func:`kernel_tasks` takes distinct blocks from every kernel's real
block stream; :func:`handmade_tasks` adds the edge cases such a draw
may miss.  Every model's ``simulate_blocks`` is checked against its
stepped ``simulate_block`` on these with :func:`assert_results_equal`.
"""

from __future__ import annotations

import numpy as np

from repro.arch.tasks import T1Task
from repro.formats.bbc import BBCMatrix
from repro.kernels import KERNELS
from repro.kernels.batched import coalesce_raw, kernel_task_batches
from repro.kernels.vector import SparseVector
from repro.workloads.synthetic import banded, random_uniform


def assert_results_equal(batch_results, step_results, label: str) -> None:
    """Batched results equal the stepped ones field for field.

    Counters compare as item lists, so their key order is pinned too,
    and the int64 row each result hands the engine must match the
    stepped result's flattened vector.
    """
    assert len(batch_results) == len(step_results)
    for i, (got, want) in enumerate(zip(batch_results, step_results)):
        context = f"{label}, task {i}"
        assert got.cycles == want.cycles, context
        assert got.products == want.products, context
        assert np.array_equal(got.util_hist.bins, want.util_hist.bins), context
        assert list(got.counters.as_dict().items()) == list(
            want.counters.as_dict().items()
        ), context
        assert np.array_equal(got.action_vector_int(), want.action_vector()), context


def kernel_tasks(limit_per_kernel: int = 80) -> list:
    """Distinct T1 tasks drawn from every kernel's real block stream."""
    rng = np.random.default_rng(7)
    mats = [
        BBCMatrix.from_coo(banded(64, 10, 0.6, seed=1)),
        BBCMatrix.from_coo(random_uniform(64, 64, 0.08, seed=2)),
    ]
    seen = set()
    tasks = []
    for bbc in mats:
        for kernel in KERNELS:
            operands = {}
            if kernel == "spmspv":
                dense = rng.random(bbc.shape[1]) * (rng.random(bbc.shape[1]) < 0.5)
                operands["x"] = SparseVector.from_dense(dense)
            elif kernel == "spmm":
                operands["b_cols"] = 32
            taken = 0
            for batch in kernel_task_batches(kernel, bbc, **operands):
                raw = coalesce_raw(batch)
                for ai, bi, _ in raw.pairs:
                    key = (raw.a_bytes[ai], raw.b_bytes[bi], raw.n)
                    if key in seen:
                        continue
                    seen.add(key)
                    tasks.append(
                        T1Task(raw.a_bytes[ai], raw.b_bytes[bi], n=raw.n)
                    )
                    taken += 1
                    if taken >= limit_per_kernel:
                        break
                if taken >= limit_per_kernel:
                    break
    return tasks


def handmade_tasks() -> list:
    """Edge-case blocks the corpus draw may not cover."""
    rng = np.random.default_rng(11)
    tasks = [
        # Empty A, empty pair, dense-dense (uniform full windows).
        T1Task.from_bitmaps(np.zeros((16, 16), bool), np.ones((16, 16), bool)),
        T1Task.from_bitmaps(np.zeros((16, 16), bool), np.zeros((16, 16), bool)),
        T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool)),
        # Dense-vector and empty-vector operands (SpMV/SpMSpV shape).
        T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 1), bool)),
        T1Task.from_bitmaps(np.ones((16, 16), bool), np.zeros((16, 1), bool)),
    ]
    # A single dense A column drives every T3 task of a window onto the
    # same output tile column — the conflict-stall replay path.
    a = np.zeros((16, 16), bool)
    a[:, 0:4] = True
    tasks.append(T1Task.from_bitmaps(a, np.ones((16, 16), bool)))
    # Single dense A row: one output tile row, DPG-bound windows.
    a = np.zeros((16, 16), bool)
    a[0] = True
    tasks.append(T1Task.from_bitmaps(a, np.ones((16, 16), bool)))
    for _ in range(12):
        tasks.append(
            T1Task.from_bitmaps(
                rng.random((16, 16)) < 0.3, rng.random((16, 16)) < 0.3
            )
        )
    for _ in range(6):
        tasks.append(
            T1Task.from_bitmaps(
                rng.random((16, 16)) < 0.4, rng.random((16, 1)) < 0.6
            )
        )
    return tasks
