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

from repro.arch.batch import cycle_totals, cycle_words, evaluate_packed, result_rows
from repro.arch.config import FP64, Precision
from repro.baselines.common import BaselineSTC, chunk_masks, row_masks, scalar_pairs, t3_shape
from repro.formats.bbc import pattern_row_masks
from repro.formats.bitarray import popcount16

#: Columns per lane slot (the T3 task's N = 4 at both precisions).
CHUNK_COLS = 4
_ROWS = np.arange(16, dtype=np.uint16)


def _decode_a(a_patterns: np.ndarray):
    """Each A block's row masks, nonzeros, nonzero rows and live K
    columns (the union of its rows, one 0/1 per column)."""
    rows = pattern_row_masks(a_patterns)
    columns = np.bitwise_or.reduce(rows, axis=1)
    return (rows, popcount16()[a_patterns].sum(axis=1, dtype=np.int64), (rows != 0).sum(axis=1),
            ((columns[:, None] >> _ROWS) & 1).astype(np.int64))


class RmSTC(BaselineSTC):
    """Row-merge sparse tensor core model."""

    name, key = "rm-stc", "rm"

    def __init__(self, precision: Precision = FP64):
        super().__init__(precision)
        self.lanes = t3_shape("rm-stc", {64: 8, 128: 16}, precision)
        self.chunk_cols = CHUNK_COLS

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over row masks.

        A row's lane slots are its scalar pairs' live-column chunks of
        the merged B rows (each chunk one slot), in
        pair order (:func:`~repro.baselines.common.scalar_pairs`).  The
        greedy issue puts the ``lanes`` longest rows (ties in row order)
        at cycle 0 and each later row at the least lane load, the
        cycle its lane frees; which least-loaded lane takes it never
        changes a start, so the lane loads stay sorted and each
        remaining rank of rows with slots takes one vectorised step
        over ``[N, lanes]`` loads.  Each live pair's chunks then sit at
        ``[pair, chunk]``, one bincount over (block, cycle) gives
        per-cycle products, and the cycles sum as
        :func:`~repro.arch.batch.cycle_words` words.
        """
        return evaluate_packed(batch, _decode_a, row_masks, self._evaluate)

    def _evaluate(self, a_rows, a_nnz, a_live_rows, a_columns, b_rows) -> np.ndarray:
        pop = popcount16()
        count = len(a_rows)
        first, second = scalar_pairs(a_rows, b_rows)             # [p, N, i]
        live, both = first | second, first & second
        live_cols = pop[live]
        slots = (live_cols + (self.chunk_cols - 1)) // self.chunk_cols
        row_slots = slots.sum(axis=0, dtype=np.int64)            # [N, i]
        pair_start = np.cumsum(slots, axis=0, dtype=np.int64) - slots

        # Greedy issue over the rows ranked by slots: every row's start
        # cycle.  Ranks past the last row with slots start nowhere.
        ranks = np.argsort(-row_slots, axis=1, kind="stable") + 16 * np.arange(count)[:, None]
        ranked = row_slots.reshape(-1)[ranks]
        loads = ranked[:, self.lanes - 1::-1].copy()             # ascending
        begins = np.zeros((count, 16), dtype=np.int64)
        for rank in range(self.lanes, int(np.count_nonzero(ranked.max(axis=0)))):
            begins[:, rank] = loads[:, 0]
            loads[:, 0] += ranked[:, rank]
            loads.sort(axis=1)
        cycles = np.maximum(loads[:, -1], 1)
        start = np.empty(16 * count, dtype=np.int64)
        start[ranks] = begins

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
        pair_cycle = ((start.reshape(count, 16) + pair_start).reshape(-1)[pairs]
                      + (span + width) * (pairs // 16 % count))
        cycle_eff = np.bincount(
            (pair_cycle[:, None] + np.arange(width)).reshape(-1),
            weights=slot_eff.reshape(-1), minlength=count * (span + width),
        ).astype(np.int64).reshape(count, span + width)[:, :span]
        codes = (cycle_eff + 1) * (np.arange(span) < cycles[:, None])
        cycles, _, products, hist = cycle_totals(
            cycle_words(self.macs, 2 * self.lanes * self.chunk_cols)[codes].sum(axis=1))

        # Each B row a live pair uses is fetched once per block; a row
        # no live pair uses is empty anyway, so every K column of A counts.
        b_traffic = (a_columns * pop[b_rows]).sum(axis=1)
        c_writes = live_cols.sum(axis=(0, 2), dtype=np.int64)
        return result_rows(cycles, products, hist, {
            "a_elem_reads": a_nnz,
            "a_net_transfers": a_nnz,
            "meta_reads": a_live_rows,
            "b_elem_reads": b_traffic,
            "b_net_transfers": b_traffic,
            "c_elem_writes": c_writes,
            "c_net_transfers": c_writes,
            "accum_accesses": c_writes,
            "mac_ops": products,
            "lane_cycles": self.macs * cycles,
            "sched_cycles": cycles,
        })
