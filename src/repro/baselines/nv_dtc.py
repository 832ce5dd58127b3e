"""NV-DTC — the A100's dense tensor core as the no-sparsity baseline.

Task hierarchy (Table III): T2 = 8x8x4 machine-instruction tasks that
the GPU front-end can skip only when an operand region is entirely
empty (coarse, software-level sparsity support); each surviving T2 runs
its fixed grid of dense T3 tasks (4x4x4 at FP64, 8x4x4 at FP32), one
cycle each, regardless of the nonzeros inside.  That rigidity is what
drives Fig. 5's ">84% of cycles below 25% utilisation" observation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arch.batch import (b_count_words, count_tables, cycle_totals, cycle_words,
                              evaluate_packed, result_rows)
from repro.arch.config import FP64, Precision
from repro.baselines.common import BaselineSTC, t3_shape

#: T2 task M extent, and the T3 N extent, of both NV-DTC modes.
T2_M = 8
T3_N = 4
def decode_a(a_patterns: np.ndarray):
    """Decoder: the column-count words (:func:`~repro.arch.batch.count_tables`)
    of each A block's tiles, ``[U, i, k]`` uint32."""
    return (count_tables()[0][a_patterns].reshape(-1, 4, 4),)


def decode_b(b_patterns: np.ndarray):
    """Decoder: the row-count words of each B operand's tiles, ``[U, k, j]``."""
    return (b_count_words(b_patterns),)


def nv_results(a_words: np.ndarray, b_words: np.ndarray, t3_m: int, macs: int,
               structured: Optional[np.ndarray] = None) -> np.ndarray:
    """NV-DTC's T2/T3 task grid as arrays: one row per block.

    Every T3 task of every unskipped T2 region runs one cycle, reading
    ``4 t3_m`` A elements (a 2:4 block's compressed A) and its dense B
    sub-region.  The operands come as tiles' count words
    (:func:`decode_a` / :func:`decode_b`): byte 3 of an A word times a
    B word is the tile pair's products, so a T3 task's products are one
    such byte per K tile for its ``t3_m / 4`` tile rows (whose A words
    add without a byte carrying) and its one B tile column (a segment's
    one column), and the front-end skip tests whole tiles.  A T2 region
    spans one K tile, or two for the ``structured`` blocks of 2:4 mode,
    whose tasks then sit at the even K slots of the grid.  A task that
    runs is a :func:`~repro.arch.batch.cycle_words` word, and a block's
    words sum to its utilisation bins and products.
    """
    count, groups = b_words.shape[0], b_words.shape[2]
    rows = a_words if t3_m == 4 else a_words[:, 0::2] + a_words[:, 1::2]
    eff = (rows.transpose(0, 2, 1)[:, :, :, None] * b_words[:, :, None, :]) >> 24
    # The front-end skip: a T2 task runs iff its A and B regions are
    # both nonempty.  An A region is two tile rows; a T3 column group's
    # B region is its T2 column region, two tile columns (of a 16-wide
    # B; a segment is one region).
    a_any = (a_words[:, 0::2] | a_words[:, 1::2])[:, np.arange(4 // (t3_m // 4)) // (T2_M // t3_m)]
    a_any = a_any.transpose(0, 2, 1)                                  # [N, k, m3]
    b_any = b_words
    if structured is not None:
        a_any = np.where(structured[:, None, None], a_any | a_any[:, _PARTNER], a_any)
        b_any = np.where(structured[:, None, None], b_any | b_any[:, _PARTNER], b_any)
        eff = np.where(structured[:, None, None, None], eff + eff[:, _PARTNER], eff)
    if groups > 1:
        b_any = np.repeat(b_any[:, :, 0::2] | b_any[:, :, 1::2], 2, axis=2)
    run = (a_any != 0)[:, :, :, None] & (b_any != 0)[:, :, None, :]   # [N, k, m3, G]
    if structured is not None:
        run[:, 1::2] &= ~structured[:, None, None, None]
    cycles, steps, products, hist = cycle_totals(
        cycle_words(macs, 32 * t3_m)[(eff + 1) * run].sum(axis=(1, 2, 3)))
    k_speedup = 1 if structured is None else 1 + structured
    a_reads = 4 * t3_m * steps
    # A column group spans T3_N columns of a 16-wide B, a segment's one.
    width = T3_N if groups > 1 else 1
    b_reads = 4 * k_speedup * width * steps
    # Accumulators are local: C is written once per output element.
    c_writes = 16 * width * groups
    return result_rows(cycles, products, hist, {
        "a_elem_reads": a_reads,
        "b_elem_reads": b_reads,
        "a_net_transfers": a_reads,
        "b_net_transfers": b_reads,
        "mac_ops": products,
        "c_elem_writes": c_writes,
        "c_net_transfers": c_writes,
        "accum_accesses": c_writes,
        "lane_cycles": macs * cycles,
        "sched_cycles": cycles,
        "meta_reads": k_speedup,
    })


#: Each K tile's partner in a 2:4 block's two-tile T2 region.
_PARTNER = np.array([1, 0, 3, 2])


class NvDTC(BaselineSTC):
    """Dense tensor core model (NV-DTC)."""

    name, key = "nv-dtc", "nv"

    def __init__(self, precision: Precision = FP64):
        super().__init__(precision)
        # T3 task shape: M grows with the MAC budget (Table VI row NV-DTC).
        self.t3_m = t3_shape("nv-dtc", {64: 4, 128: 8}, precision)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over operand tiles (:func:`nv_results`)."""
        return evaluate_packed(batch, decode_a, decode_b, self._evaluate)

    def _evaluate(self, a_words, b_words) -> np.ndarray:
        return nv_results(a_words, b_words, self.t3_m, self.macs)
