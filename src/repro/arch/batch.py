"""Shared plumbing of the batched block evaluators.

Every registered model evaluates a batch of T1 tasks the same way
around its own dataflow accounting:

1. :func:`evaluate_stacked` groups the tasks by B width, stacks each
   group's bitmaps into ``[N, 16, 16]`` A / ``[N, 16, n]`` B arrays in
   chunks of at most :data:`CHUNK_BLOCKS` blocks, hands every chunk to
   the model's array evaluator and puts the results back in task order;
2. the evaluator computes per-block cycles, products, utilisation
   histograms (binning per-cycle products with :func:`util_bins` /
   :func:`histogram_rows`) and action counts;
3. :func:`block_results` lays those out as int64 rows in the
   :data:`~repro.arch.base.VECTOR_WIDTH` layout and turns them into
   :class:`~repro.arch.base.BlockResult` objects equal to the stepped
   path's, each carrying its row as the cached ``_int_vector``.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.arch.base import VECTOR_WIDTH, BlockResult
from repro.arch.counters import ACTIONS, Counters
from repro.arch.tasks import T1Task, UtilHistogram

#: Most blocks one array pass evaluates.  Every evaluator's
#: intermediates run to a few KiB per block, so a pass stays at a few
#: tens of MiB however large the batch (SpGEMM batches on n=512
#: matrices reach 32k blocks); most corpus batches are far smaller, so
#: this bounds memory rather than adding passes.
CHUNK_BLOCKS = 2048

#: Column of each action inside a result row.
ACTION_COL = {name: 6 + j for j, name in enumerate(ACTIONS)}

#: ``evaluate(a_stack, b_stack, tasks)`` -> one result per task.
Evaluator = Callable[[np.ndarray, np.ndarray, List[T1Task]], List[BlockResult]]


def evaluate_stacked(tasks: Sequence[T1Task], evaluate: Evaluator) -> List[BlockResult]:
    """Run ``evaluate`` over uniform-width operand stacks of ``tasks``.

    ``results[i]`` is the evaluator's result for ``tasks[i]``; tasks of
    mixed B widths are grouped per width and each group is evaluated
    in chunks of at most :data:`CHUNK_BLOCKS` blocks.
    """
    tasks = list(tasks)
    groups: dict = {}
    for index, task in enumerate(tasks):
        groups.setdefault(task.n, []).append(index)
    results: List[Optional[BlockResult]] = [None] * len(tasks)
    for n, indices in groups.items():
        for lo in range(0, len(indices), CHUNK_BLOCKS):
            chunk = indices[lo : lo + CHUNK_BLOCKS]
            part = [tasks[i] for i in chunk]
            a_stack = np.frombuffer(
                b"".join(t.a_bits for t in part), dtype=bool
            ).reshape(len(part), 16, 16)
            b_stack = np.frombuffer(
                b"".join(t.b_bits for t in part), dtype=bool
            ).reshape(len(part), 16, n)
            for index, result in zip(chunk, evaluate(a_stack, b_stack, part)):
                results[index] = result
    return results


def util_bins(eff: np.ndarray, macs: int) -> np.ndarray:
    """Fig. 5 utilisation bin of integer per-cycle product counts.

    :meth:`~repro.arch.tasks.UtilHistogram.record` of ``eff / macs`` in
    integer arithmetic: ``clip(ceil(4 * eff / macs) - 1, 0, 3)``.  The
    two agree because the MAC budgets (64/128/256) are powers of two, so
    the float quotient the stepped path bins is exact too.
    """
    return np.clip((4 * eff + macs - 1) // macs - 1, 0, 3)


def histogram_rows(bins: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``[N, 4]`` histograms of ``[N, ...]`` per-cycle bins.

    ``weight`` (same shape as ``bins``) counts how many cycles each
    entry stands for; entries with weight 0 are not cycles at all.
    """
    count = bins.shape[0]
    index = (np.arange(count)[:, None] * 4 + bins.reshape(count, -1)).ravel()
    hist = np.bincount(index, weights=weight.reshape(-1), minlength=4 * count)
    return hist.astype(np.int64).reshape(count, 4)


def block_results(
    cycles: np.ndarray,
    products: np.ndarray,
    hist: np.ndarray,
    counters: Dict[str, Union[np.ndarray, int]],
) -> List[BlockResult]:
    """One :class:`BlockResult` per block of a batch's per-block arrays.

    ``hist`` is ``[N, 4]``; ``counters`` maps action names to per-block
    counts (or one count for every block) *in the stepped path's
    insertion order*.  A zero count is left out of that block's
    ``Counters``, as ``Counters.add`` skips zero counts.  The arrays are
    laid out once as int64 rows in the ``VECTOR_WIDTH`` layout; each
    result keeps its row as the cached ``_int_vector`` and a view of the
    row's bins as its histogram, so aggregation never re-flattens it.
    """
    vec = np.zeros((len(cycles), VECTOR_WIDTH), dtype=np.int64)
    vec[:, 0] = cycles
    vec[:, 1] = products
    vec[:, 2:6] = hist
    order = tuple(counters)
    cols = [ACTION_COL[name] for name in order]
    for name, col in zip(order, cols):
        vec[:, col] = counters[name]
    values = vec[:, cols]
    counter_rows = values.astype(np.float64).tolist()
    # Which counters are nonzero, as one bitmask per block; blocks
    # sharing a mask share the key tuple and selector of their dict.
    masks = ((values != 0) @ (1 << np.arange(len(order)))).tolist()
    layouts: dict = {}
    # Constructors are bypassed (plain __new__ + attribute fill): this
    # loop builds tens of thousands of results per corpus batch, and
    # the dataclass __init__/__post_init__ overhead triples its cost.
    # The invariants they check hold here: cycles/products are
    # non-negative and the counter dict carries only nonzero floats.
    new_counters = Counters.__new__
    new_hist = UtilHistogram.__new__
    new_result = BlockResult.__new__
    results = []
    for row, mask, cycle_count, product_count, vec_row in zip(
        counter_rows, masks, vec[:, 0].tolist(), vec[:, 1].tolist(), vec
    ):
        layout = layouts.get(mask)
        if layout is None:
            selector = [(mask >> j) & 1 for j in range(len(order))]
            layout = layouts[mask] = (tuple(compress(order, selector)), selector)
        keys, selector = layout
        counters = new_counters(Counters)
        counters._data = dict(zip(keys, compress(row, selector)))
        hist = new_hist(UtilHistogram)
        hist.bins = vec_row[2:6]
        result = new_result(BlockResult)
        result.cycles = cycle_count
        result.products = product_count
        result.util_hist = hist
        result.counters = counters
        result._int_vector = vec_row
        results.append(result)
    return results
