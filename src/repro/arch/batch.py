"""Shared plumbing of the batched block evaluators.

Every registered model evaluates a batch of T1 tasks the same way
around its own dataflow accounting:

1. :func:`evaluate_packed` gathers a
   :class:`~repro.kernels.batched.TaskBatch`'s packed patterns in chunks
   of at most :data:`CHUNK_BLOCKS` blocks (the Uni-STC fastpath reads
   them as they are) and writes each chunk's rows into one ``[N,
   VECTOR_WIDTH]`` int64 array in task order; :func:`evaluate_stacked`
   unpacks each chunk once into the ``[N, 16, 16]`` A / ``[N, 16, n]``
   bool stacks the baselines read, the only bool operand stacks;
2. the evaluator computes per-block cycles, products, utilisation
   histograms (binning per-cycle products with :func:`util_bins` /
   :func:`histogram_rows`) and action counts;
3. :func:`result_rows` lays those out as int64 rows in the
   :data:`~repro.arch.base.VECTOR_WIDTH` layout, equal to the stepped
   path's :meth:`~repro.arch.base.BlockResult.row`.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

import numpy as np

from repro.arch.base import ACTION_COL, VECTOR_WIDTH
from repro.formats.bbc import unpack_patterns

#: Most blocks one array pass evaluates.  Every evaluator's
#: intermediates run to a few KiB per block, so a pass stays at a few
#: tens of MiB however large the batch (SpGEMM batches on n=512
#: matrices reach 32k blocks); most corpus batches are far smaller, so
#: this bounds memory rather than adding passes.
CHUNK_BLOCKS = 2048

#: ``evaluate(a, b)`` -> one int64 row per block of the chunk.
Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def evaluate_packed(batch, evaluate: Evaluator) -> np.ndarray:
    """Run ``evaluate`` over the packed patterns of ``batch``, chunk by chunk.

    ``evaluate`` gets ``[c, 16]`` A and ``[c, n]`` B uint16 patterns;
    row ``i`` of the result is its row for entry ``i`` (weights unread).
    """
    rows = np.empty((len(batch), VECTOR_WIDTH), dtype=np.int64)
    for lo in range(0, len(batch), CHUNK_BLOCKS):
        part = slice(lo, lo + CHUNK_BLOCKS)
        rows[part] = evaluate(batch.a_patterns[batch.a_index[part]],
                              batch.b_patterns[batch.b_index[part]])
    return rows


def evaluate_stacked(batch, evaluate: Evaluator) -> np.ndarray:
    """:func:`evaluate_packed` with each chunk unpacked to bool stacks.

    ``evaluate`` gets ``[c, 16, 16]`` A and ``[c, 16, n]`` B occupancy.
    """
    return evaluate_packed(
        batch, lambda a, b: evaluate(unpack_patterns(a), unpack_patterns(b)))


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


def result_rows(
    cycles: np.ndarray,
    products: np.ndarray,
    hist: np.ndarray,
    counters: Dict[str, Union[np.ndarray, int]],
) -> np.ndarray:
    """``[N, VECTOR_WIDTH]`` int64 rows of a batch's per-block arrays.

    ``hist`` is ``[N, 4]``; ``counters`` maps action names to per-block
    counts (or one count for every block).  Actions left out are zero.
    """
    rows = np.zeros((len(cycles), VECTOR_WIDTH), dtype=np.int64)
    rows[:, 0] = cycles
    rows[:, 1] = products
    rows[:, 2:6] = hist
    for name, count in counters.items():
        rows[:, ACTION_COL[name]] = count
    return rows
