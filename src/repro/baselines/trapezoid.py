"""Trapezoid — versatile dense/sparse accelerator, aligned variant.

Trapezoid offers three modes (Table VI: TrIP 16x2x2, TrGT 16x4x1,
TrGS 8x4x2); following the paper's methodology the best-performing
mode serves each task.  All modes share M = 16: the MAC array is
organised as sixteen *row lanes* (4 MACs each at FP64), one per block
row, each walking its own row's work Gustavson-style with K processed
two positions at a time.  A block finishes with its slowest lane — the
load-imbalance weakness §VI-D attributes real-world irregularity to.

Two behaviours the paper reports emerge from this shape:

- strong SpMV (dot-product acceleration: 4.15x over DS-STC in
  Fig. 21): vector workloads fill row lanes far better than
  outer-product windows;
- modest SpGEMM (1.06x in Fig. 21): per-lane serial chunking over each
  K pair's merged B columns plus the max-over-rows completion rule
  erase most of the fine-grained win.
"""

from __future__ import annotations

import numpy as np

from repro.arch.batch import evaluate_packed, histogram_rows, result_rows
from repro.arch.config import FP64, Precision
from repro.baselines.common import BaselineSTC, row_masks, scalar_pairs
from repro.errors import ConfigError
from repro.formats.bitarray import popcount16

#: Row lanes in the array (the shared M = 16 of all three modes).
ROW_LANES = 16
_ROWS = np.arange(ROW_LANES)
_QUARTERS = np.array([0.25, 0.5, 0.75])


class Trapezoid(BaselineSTC):
    """Trapezoid grouped row-lane model (best mode per task)."""

    name, key = "trapezoid", "trapezoid"

    def __init__(self, precision: Precision = FP64):
        if precision.macs <= 0 or precision.macs % ROW_LANES:
            raise ConfigError(
                f"trapezoid needs a MAC budget divisible into {ROW_LANES} "
                f"row lanes, got {precision.macs} MACs at {precision.name}"
            )
        super().__init__(precision)
        self.lane_macs = precision.macs // ROW_LANES
        self.k_per_step = 2  # TrIP/TrGS process K pairs inside a lane

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over row masks.

        A row's K pairs merge the B rows its scalar pairs select
        (:func:`~repro.baselines.common.scalar_pairs`); a row runs
        ``max(ceil(work / lane MACs), slots)`` cycles and the block
        finishes with its slowest row.  A cycle's utilisation is a
        float sum of ``work / row_cycles`` over the rows still running,
        added in row order, and it changes only where a row ends: it is
        taken once per row's last cycle, as a masked ``[row, row end,
        N]`` sum over the outer row axis (which keeps that order, so
        every bin edge falls exactly where the per-row sum puts it), and
        weighted by the cycles it lasts.
        """
        return evaluate_packed(batch, row_masks, row_masks, self._evaluate)

    def _evaluate(self, a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        pop = popcount16()
        count = len(a_rows)
        first, second = scalar_pairs(a_rows, b_rows)             # [p, N, i]
        live = pop[first | second]
        # Every nonzero of a pair's merged rows sits in a live column, so
        # a row without slots has no work and runs no cycle.
        work = (pop[first] + pop[second]).sum(axis=0, dtype=np.int64)   # [N, i]
        slots = ((live * self.k_per_step + self.lane_macs - 1) // self.lane_macs).sum(
            axis=0, dtype=np.int64)
        row_cycles = np.maximum(-(-work // self.lane_macs), slots)
        steps = row_cycles.max(axis=1)
        cycles = np.maximum(steps, 1)

        # Row i runs in row j's last cycle iff row_cycles[i] >= row_cycles[j],
        # so the utilisation in that cycle sums the rates of those rows.
        # The sum runs over the outer axis of [i, j, N], which adds row by
        # row in row order; one over a contiguous innermost axis would be
        # pairwise and move some bin edges.
        by_row = np.ascontiguousarray(row_cycles.T)                    # [i, N]
        rate = (work.T / np.maximum(by_row, 1))[:, None, :]
        eff = ((by_row[:, None, :] >= by_row) * rate).sum(axis=0).T    # [N, j]
        # UtilHistogram's bin of min(1, eff / macs): the quarter marks it exceeds.
        bins = np.searchsorted(_QUARTERS, eff / self.macs)
        # Each row end weighs the cycles since the previous one in
        # (row_cycles, row) order, so equal rows count their cycles once.
        key = np.sort(16 * row_cycles + _ROWS, axis=1)
        ends = key >> 4
        ends[:, 1:] -= key[:, :-1] >> 4
        hist = histogram_rows(bins.reshape(-1)[16 * np.arange(count)[:, None] + (key & 15)], ends)
        hist[:, 0] += steps == 0

        products = work.sum(axis=1)
        a_reads = pop[a_rows].sum(axis=1, dtype=np.int64)
        c_writes = live.sum(axis=(0, 2), dtype=np.int64)
        return result_rows(cycles, products, hist, {
            "a_elem_reads": a_reads,
            "a_net_transfers": a_reads,
            # A live pair reads both its B rows: every merged product.
            "b_elem_reads": products,
            "b_net_transfers": products,
            "c_elem_writes": c_writes,
            "c_net_transfers": c_writes,
            "accum_accesses": c_writes,
            "mac_ops": products,
            "lane_cycles": self.macs * cycles,
            "sched_cycles": cycles,
            "meta_reads": 2 * (steps > 0),
        })
