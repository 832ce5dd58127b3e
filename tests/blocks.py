"""T1 block draws and the equality check of the batched parity tests.

:func:`kernel_tasks` takes distinct blocks from every kernel's real
block stream; :func:`dnn_tasks` the MAC-bound dense blocks of an
inference request's conv layers; :func:`handmade_tasks` adds the edge
cases such draws may miss.  Every model's ``simulate_blocks`` is
checked against its stepped oracle
(:func:`tests.stepped_models.stepped_block`) on these with
:func:`assert_results_equal`, fed through :func:`simulate_blocks` (one
packed :class:`~repro.kernels.batched.TaskBatch` per B width);
:func:`iter_tasks` turns a batch back into per-object tasks.
The ``CYCLES``/``PRODUCTS``/``BINS`` indices (and
:data:`~repro.arch.base.ACTION_COL`) read fields of a result row.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.arch.base import VECTOR_WIDTH
from repro.arch.counters import ACTIONS
from repro.arch.tasks import T1Task
from repro.formats.bbc import BBCMatrix, distinct_patterns
from repro.graph import dnn_graph
from repro.kernels import KERNELS
from repro.kernels.batched import TaskBatch, coalesce_raw, kernel_task_batches
from repro.kernels.vector import SparseVector
from repro.workloads.synthetic import banded, random_uniform


#: Result-row fields outside the action columns.
CYCLES, PRODUCTS, BINS = 0, 1, slice(2, 6)
COLUMNS = ("cycles", "products", "bin0", "bin1", "bin2", "bin3") + ACTIONS


def assert_results_equal(batch_rows, step_results, label: str) -> None:
    """The batched int64 rows equal the stepped results' rows exactly.

    A failure names the first mismatching task and column.
    """
    assert isinstance(batch_rows, np.ndarray) and batch_rows.dtype == np.int64, label
    want = np.stack([r.row() for r in step_results])
    assert batch_rows.shape == want.shape == (len(step_results), VECTOR_WIDTH), label
    if not np.array_equal(batch_rows, want):
        task, col = np.argwhere(batch_rows != want)[0]
        raise AssertionError(
            f"{label}, task {task}, column {COLUMNS[col]}: batched "
            f"{batch_rows[task, col]} != stepped {want[task, col]}")


def iter_tasks(batch: TaskBatch) -> Iterator[T1Task]:
    """``batch`` as individual weighted tasks, in entry order."""
    for ai, bi, w in zip(batch.a_index.tolist(), batch.b_index.tolist(),
                         batch.weights.tolist()):
        yield T1Task(batch.a_patterns[ai].tobytes(), batch.b_patterns[bi].tobytes(),
                     n=batch.n, weight=w)


def task_batch(tasks, n: int = 16) -> TaskBatch:
    """``tasks`` (all of B width ``n``) as one unit-weight batch, in order."""
    a = np.array([np.frombuffer(t.a_bits, dtype="<u2") for t in tasks],
                 dtype="<u2").reshape(len(tasks), 16)
    b = np.array([np.frombuffer(t.b_bits, dtype="<u2") for t in tasks],
                 dtype="<u2").reshape(len(tasks), n)
    a_patterns, a_ids, _ = distinct_patterns(a)
    b_patterns, b_ids, _ = distinct_patterns(b)
    return TaskBatch(a_patterns, b_patterns, a_ids, b_ids,
                     np.ones(len(tasks), dtype=np.int64), n)


def engine_batch(tasks, n: int = 16) -> TaskBatch:
    """``tasks`` shaped as the engine hands misses over.

    A miss batch is ``take()`` of a coalesced kernel batch: its pattern
    tables keep rows no miss references, in the kernel's order, so
    the indexes run out of order.  Here both tables gain spare rows and
    are shuffled.
    """
    batch = task_batch(tasks, n)
    rng = np.random.default_rng(len(tasks) + n)
    tables = []
    for patterns, index in ((batch.a_patterns, batch.a_index),
                            (batch.b_patterns, batch.b_index)):
        spare = rng.integers(0, 1 << 16, (5, patterns.shape[1])).astype("<u2")
        spare = spare[~(spare[:, None] == patterns[None]).all(axis=2).any(axis=1)]
        order = rng.permutation(len(patterns) + len(spare))
        table = np.concatenate((patterns, spare))[order]
        tables.append((table, np.argsort(order)[index]))
    (a_patterns, a_index), (b_patterns, b_index) = tables
    return TaskBatch(a_patterns, b_patterns, a_index, b_index,
                     np.ones(len(tasks), dtype=np.int64), n)


def simulate_blocks(stc, tasks, make_batch=task_batch) -> np.ndarray:
    """``stc.simulate_blocks`` rows of ``tasks``, in task order.

    A batch has one B width, so tasks go in as one batch per width
    (built by ``make_batch``) — as the engine dispatches them — and the
    rows are put back in the tasks' slots.  No tasks is one empty n=16
    batch.
    """
    rows = np.empty((len(tasks), VECTOR_WIDTH), dtype=np.int64)
    for n in sorted({task.n for task in tasks}) or [16]:
        slots = [i for i, task in enumerate(tasks) if task.n == n]
        rows[slots] = stc.simulate_blocks(make_batch([tasks[i] for i in slots], n))
    return rows


def simulate_cuts(stc, tasks, size: int) -> np.ndarray:
    """``stc.simulate_blocks`` rows of ``tasks`` fed ``size`` tasks per
    call, in task order, each cut shaped as the engine hands misses over
    (:func:`engine_batch`): the sizes most cold calls have."""
    return np.concatenate([simulate_blocks(stc, tasks[lo:lo + size], make_batch=engine_batch)
                           for lo in range(0, len(tasks), size)])


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
                for task in iter_tasks(coalesce_raw(batch)):
                    key = (task.a_bits, task.b_bits, task.n)
                    if key in seen:
                        continue
                    seen.add(key)
                    tasks.append(T1Task(task.a_bits, task.b_bits, n=task.n))
                    taken += 1
                    if taken >= limit_per_kernel:
                        break
                if taken >= limit_per_kernel:
                    break
    return tasks


def dnn_tasks(limit: int = 48) -> list:
    """Distinct blocks of ResNet-50's conv-layer SpGEMM streams.

    Pruned weights times ReLU activations (``dnn_graph("resnet50",
    scale=0.05)``, requests 0 and 1) hold about 60 T3 tasks per block
    whose products vary from task to task: the MAC-bound regime of an
    inference request's miss batches, which the sparse corpus draw of
    :func:`kernel_tasks` barely reaches.
    """
    graph = dnn_graph("resnet50", scale=0.05)
    seen = set()
    tasks = []
    for request in (0, 1):
        for node in graph.nodes:
            if node.kernel != "spgemm":
                continue
            for batch in kernel_task_batches("spgemm", node.a, **node.operand_kwargs(request)):
                for task in iter_tasks(coalesce_raw(batch)):
                    if (task.a_bits, task.b_bits) not in seen and len(tasks) < limit:
                        seen.add((task.a_bits, task.b_bits))
                        tasks.append(T1Task(task.a_bits, task.b_bits, n=task.n))
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
