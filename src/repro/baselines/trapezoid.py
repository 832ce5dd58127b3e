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

from repro.arch.base import STCModel
from repro.arch.batch import evaluate_packed, histogram_rows, result_rows
from repro.arch.config import FP64, Precision
from repro.baselines.common import row_masks, scalar_pairs
from repro.errors import ConfigError
from repro.formats.bitarray import popcount16

#: Row lanes in the array (the shared M = 16 of all three modes).
ROW_LANES = 16


class Trapezoid(STCModel):
    """Trapezoid grouped row-lane model (best mode per task)."""

    def __init__(self, precision: Precision = FP64):
        if precision.macs <= 0 or precision.macs % ROW_LANES:
            raise ConfigError(
                f"trapezoid needs a MAC budget divisible into {ROW_LANES} "
                f"row lanes, got {precision.macs} MACs at {precision.name}"
            )
        self.precision = precision
        self.lane_macs = precision.macs // ROW_LANES
        self.k_per_step = 2  # TrIP/TrGS process K pairs inside a lane
        self.name = "trapezoid"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"trapezoid:{self.precision.name}"

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over row masks.

        A row's K pairs merge the B rows its scalar pairs select
        (:func:`~repro.baselines.common.scalar_pairs`); a row runs
        ``max(ceil(work / lane MACs), slots)`` cycles and the block
        finishes with its slowest row.  A cycle's utilisation is a
        float sum of ``work / row_cycles`` over the rows still running,
        added in row order: 16 masked row-by-row adds over ``[N,
        cycles]`` keep that order, so every bin edge falls exactly where
        the per-row sum puts it.
        """
        return evaluate_packed(batch, row_masks, row_masks, self._evaluate)

    def _evaluate(self, a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        pop = popcount16()
        count = len(a_rows)
        first, second = scalar_pairs(a_rows, b_rows)             # [N, i, p]
        live = pop[first | second].astype(np.int64)
        # Every nonzero of a pair's merged rows sits in a live column.
        work = (pop[first].astype(np.int64) + pop[second]).sum(axis=2)  # [N, i]
        slots = (-(-(live * self.k_per_step) // self.lane_macs)).sum(axis=2)
        row_cycles = np.where(
            slots > 0, np.maximum(-(-work // self.lane_macs), slots), 0
        )
        steps = row_cycles.max(axis=1)
        cycles = np.maximum(steps, 1)

        span = np.arange(int(cycles.max()))
        rate = work / np.maximum(row_cycles, 1)
        eff = np.zeros((count, span.size))
        for i in range(16):
            eff += np.where(span < row_cycles[:, i : i + 1], rate[:, i : i + 1], 0.0)
        util = np.minimum(1.0, eff / self.macs)
        bins = np.clip(np.ceil(util * 4).astype(np.int64) - 1, 0, 3)
        hist = histogram_rows(bins, span < cycles[:, None])

        products = work.sum(axis=1)
        a_reads = pop[a_rows].sum(axis=1, dtype=np.int64)
        c_writes = live.sum(axis=(1, 2))
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
