"""RM-STC — the row-merge sparse tensor core (row-row dataflow).

Per Table VI its T3 task is 8x4x2 at FP64 (16x4x2 at FP32): eight
independent *row lanes*, each multiplying two of its A row's gathered
nonzero scalars against a 4-column chunk of the correspondingly merged
B rows ("scalars mul. vectors to update vectors", Table I).  Because
each lane pairs the scalars of its *own* row, the A side is fully
gathered — RM-STC's strength over the outer-product design.  The model
keeps its published limitations:

- K is fixed at 2 per lane-step and concatenation is allowed only
  along N (Fig. 6), so SpMV utilisation is capped at 8*2/64 = 25%;
- partial products merge only within a scalar pair (merge factor <= 2)
  before writing C — better than DS-STC's none, short of Uni-STC's
  4-way SDPU pre-merge;
- lanes finish unevenly on irregular rows, and the block completes
  with its slowest lane schedule — RM-STC's "particularly sensitive to
  the sparsity of matrix A" behaviour (§VI-C).
"""

from __future__ import annotations

import numpy as np

from repro.arch.base import STCModel
from repro.arch.batch import evaluate_packed, histogram_rows, result_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.baselines.common import chunk_masks, row_masks, scalar_pairs, t3_shape
from repro.formats.bitarray import popcount16

#: Columns per lane slot (the T3 task's N = 4 at both precisions).
CHUNK_COLS = 4
_ROWS = np.arange(16, dtype=np.uint16)


class RmSTC(STCModel):
    """Row-merge sparse tensor core model."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.lanes = t3_shape("rm-stc", {64: 8, 128: 16}, precision)
        self.chunk_cols = CHUNK_COLS
        self.name = "rm-stc"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"rm:{self.precision.name}"

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over row masks.

        A row's lane slots are its scalar pairs' live-column chunks of
        the merged B rows (each chunk one slot), in
        pair order (:func:`~repro.baselines.common.scalar_pairs`).  The
        greedy issue puts the ``lanes`` longest rows (ties in row order)
        at cycle 0 and each later row at the least lane load, the
        cycle its lane frees; which least-loaded lane takes it never
        changes a start, so the remaining rows with slots take one
        vectorised step each over ``[N, lanes]`` loads.  Each live
        pair's chunks then sit at ``[pair, chunk]``, and one bincount
        over (block, cycle) gives per-cycle products.
        """
        return evaluate_packed(batch, row_masks, row_masks, self._evaluate)

    def _evaluate(self, a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        pop = popcount16()
        count = len(a_rows)
        first, second = scalar_pairs(a_rows, b_rows)             # [N, i, p]
        live, both = first | second, first & second
        live_cols = pop[live].astype(np.int64)
        slots = -(-live_cols // self.chunk_cols)
        row_slots = slots.sum(axis=2)                            # [N, i]
        pair_start = np.cumsum(slots, axis=2) - slots            # [N, i, p]

        # Greedy issue: every row's start cycle.  Rows past the last
        # one with slots start nowhere.
        order = np.argsort(-row_slots, axis=1, kind="stable")
        blocks = np.arange(count)
        loads = np.take_along_axis(row_slots, order[:, :self.lanes], axis=1)
        start = np.zeros((count, 16), dtype=np.int64)
        busy = int(np.count_nonzero(row_slots, axis=1).max(initial=0))
        for step in range(self.lanes, busy):
            row = order[:, step]
            lane = loads.argmin(axis=1)
            start[blocks, row] = loads[blocks, lane]
            loads[blocks, lane] += row_slots[blocks, row]
        steps = loads.max(axis=1, initial=0)
        cycles = np.maximum(steps, 1)

        # Every live pair's chunks, from its row's start cycle plus the
        # pair's offset.  A slot multiplies its live columns once per
        # merged row holding them: one product each, two where both
        # rows do.  Chunks past a pair's slots are empty (no products),
        # and their cycle stays below span + width, each block's stride.
        pairs = np.flatnonzero(live)
        width = int(slots.max(initial=0))
        masks = chunk_masks(self.chunk_cols)[live.reshape(-1)[pairs], :width]
        slot_eff = pop[masks] + pop[masks & both.reshape(-1)[pairs, None]]
        span = int(cycles.max(initial=1))
        pair_cycle = ((start[:, :, None] + pair_start).reshape(-1)[pairs]
                      + (span + width) * (pairs // live[0].size))
        cycle_eff = np.bincount(
            (pair_cycle[:, None] + np.arange(width)).reshape(-1),
            weights=slot_eff.reshape(-1), minlength=count * (span + width),
        ).astype(np.int64).reshape(count, span + width)[:, :span]
        hist = histogram_rows(
            util_bins(cycle_eff, self.macs), np.arange(span) < cycles[:, None]
        )

        products = cycle_eff.sum(axis=1)
        row_nnz = pop[a_rows].astype(np.int64)
        a_reads = row_nnz.sum(axis=1)
        # Each B row a live pair uses is fetched once per block; a row
        # no live pair uses is empty anyway, so every K column of A counts.
        a_columns = np.bitwise_or.reduce(a_rows, axis=1)
        b_traffic = (((a_columns[:, None] >> _ROWS) & 1) * pop[b_rows]).sum(
            axis=1, dtype=np.int64)
        c_writes = live_cols.sum(axis=(1, 2))
        return result_rows(cycles, products, hist, {
            "a_elem_reads": a_reads,
            "a_net_transfers": a_reads,
            "meta_reads": (row_nnz > 0).sum(axis=1),
            "b_elem_reads": b_traffic,
            "b_net_transfers": b_traffic,
            "c_elem_writes": c_writes,
            "c_net_transfers": c_writes,
            "accum_accesses": c_writes,
            "mac_ops": products,
            "lane_cycles": self.macs * cycles,
            "sched_cycles": cycles,
        })
