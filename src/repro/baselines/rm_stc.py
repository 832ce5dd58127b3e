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

from typing import List

import numpy as np

from repro.arch.base import BlockResult, STCModel
from repro.arch.batch import evaluate_stacked, histogram_rows, result_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.arch.counters import Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.baselines.common import POP16, ceil_div, operand_arrays, pair_row_masks, t3_shape


def _chunk_masks(width: int) -> np.ndarray:
    """``[65536, 16 // width]`` live-column chunks of every 16-bit mask.

    Chunk ``c`` of a mask holds its set bits of rank ``width * c`` up to
    ``width * (c + 1) - 1`` — the stepped path's ``c0`` slices of a
    pair's live columns.
    """
    masks = np.arange(1 << 16, dtype=np.uint16)
    table = np.zeros((1 << 16, 16 // width), dtype=np.uint16)
    rank = np.zeros(1 << 16, dtype=np.intp)       # set bits below bit j
    for j in range(16):
        bit = (masks >> j) & 1
        table[masks, rank // width] |= bit << j
        rank += bit
    return table


#: Columns per lane slot (the T3 task's N = 4 at both precisions).
CHUNK_COLS = 4
_CHUNK_MASKS = _chunk_masks(CHUNK_COLS)


class RmSTC(STCModel):
    """Row-merge sparse tensor core model."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.lanes = t3_shape("rm-stc", {64: 8, 128: 16}, precision)
        self.chunk_cols = CHUNK_COLS
        self.k_pair = 2
        self.name = "rm-stc"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"rm:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        hist = UtilHistogram()
        counters = Counters()

        # Per row: gather its nonzero scalars, pair them, and for each
        # pair count the 4-column chunks of the merged B rows.  Each
        # (pair, chunk) combination is one lane-slot of work.
        slot_products: List[List[int]] = []   # per row, products per slot
        slot_writes: List[List[int]] = []
        total_products = 0
        used_ks: set = set()
        for i in range(16):
            ks = np.flatnonzero(a[i])
            if ks.size == 0:
                continue
            counters.add("a_elem_reads", int(ks.size))
            counters.add("a_net_transfers", int(ks.size))
            counters.add("meta_reads", 1)
            row_slots_p: List[int] = []
            row_slots_w: List[int] = []
            for p in range(0, ks.size, self.k_pair):
                pair = ks[p : p + self.k_pair]
                merged = b[pair]                      # (<=2, N)
                live = np.flatnonzero(merged.any(axis=0))
                if live.size == 0:
                    continue
                used_ks.update(int(k) for k in pair)
                per_col = merged[:, live].sum(axis=0)  # matched products/col
                for c0 in range(0, live.size, self.chunk_cols):
                    seg = per_col[c0 : c0 + self.chunk_cols]
                    eff = int(seg.sum())
                    row_slots_p.append(eff)
                    row_slots_w.append(int(np.count_nonzero(seg)))
                    total_products += eff
            if row_slots_p:
                slot_products.append(row_slots_p)
                slot_writes.append(row_slots_w)
        # B rows are fetched once per block into the shared row-merge
        # buffer and broadcast to the lanes that need them.
        b_traffic = int(sum(b[k].sum() for k in used_ks))
        counters.add("b_elem_reads", b_traffic)
        counters.add("b_net_transfers", b_traffic)

        if not slot_products:
            hist.record(0.0)
            counters.add("lane_cycles", self.macs)
            counters.add("sched_cycles", 1)
            return BlockResult(cycles=1, products=0, util_hist=hist, counters=counters)

        # Schedule rows onto the lane array: longest-row first onto the
        # least-loaded lane (the hardware's greedy issue), then the
        # block finishes with the fullest lane.
        lane_loads = [0] * self.lanes
        lane_queues: List[List[int]] = [[] for _ in range(self.lanes)]
        order = sorted(range(len(slot_products)), key=lambda r: -len(slot_products[r]))
        for r in order:
            lane = lane_loads.index(min(lane_loads))
            lane_queues[lane].extend(slot_products[r])
            lane_loads[lane] += len(slot_products[r])
            counters.add("c_elem_writes", sum(slot_writes[r]))
            counters.add("c_net_transfers", sum(slot_writes[r]))
            counters.add("accum_accesses", sum(slot_writes[r]))
        cycles = max(lane_loads)
        for c in range(cycles):
            eff = sum(queue[c] for queue in lane_queues if c < len(queue))
            hist.record(eff / self.macs)

        counters.add("mac_ops", total_products)
        counters.add("lane_cycles", self.macs * cycles)
        counters.add("sched_cycles", cycles)
        return BlockResult(
            cycles=cycles, products=total_products, util_hist=hist, counters=counters
        )

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation of :meth:`simulate_block` over operand stacks.

        A row's lane slots are its scalar pairs' live-column chunks, in
        pair order.  The greedy issue runs as 16 vectorised steps over
        ``[N, lanes]`` loads — longest row first (ties in row order),
        each onto the first least-loaded lane — which fixes every row's
        start cycle; per-cycle products then follow from one bincount
        over (block, cycle).
        """
        return evaluate_stacked(batch, self._evaluate)

    def _evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        count, n = b.shape[0], b.shape[2]
        first, second = pair_row_masks(a, b)                     # [N, i, p]
        live, both = first | second, first & second
        live_cols = POP16[live].astype(np.int64)
        slots = -(-live_cols // self.chunk_cols)
        row_slots = slots.sum(axis=2)                            # [N, i]
        pair_start = np.cumsum(slots, axis=2) - slots            # [N, i, p]

        # Greedy issue: every row's start cycle on its lane.
        order = np.argsort(-row_slots, axis=1, kind="stable")
        blocks = np.arange(count)
        loads = np.zeros((count, self.lanes), dtype=np.int64)
        start = np.zeros((count, 16), dtype=np.int64)
        for step in range(16):
            row = order[:, step]
            lane = loads.argmin(axis=1)
            start[blocks, row] = loads[blocks, lane]
            loads[blocks, lane] += row_slots[blocks, row]
        steps = loads.max(axis=1)
        cycles = np.maximum(steps, 1)

        # Every (pair, chunk) slot, placed at its row's start cycle.  A
        # slot multiplies its live columns once per merged row holding
        # them: one product each, two where both rows do.
        blk, row, pair, chunk = np.nonzero(
            np.arange(ceil_div(n, self.chunk_cols)) < slots[..., None]
        )
        masks = _CHUNK_MASKS[live[blk, row, pair], chunk]
        slot_eff = POP16[masks] + POP16[masks & both[blk, row, pair]]
        span = int(cycles.max())
        slot_cycle = blk * span + start[blk, row] + pair_start[blk, row, pair] + chunk
        cycle_eff = np.bincount(
            slot_cycle, weights=slot_eff, minlength=count * span
        ).astype(np.int64).reshape(count, span)
        hist = histogram_rows(
            util_bins(cycle_eff, self.macs), np.arange(span) < cycles[:, None]
        )

        products = cycle_eff.sum(axis=1)
        row_nnz = a.sum(axis=2, dtype=np.int64)
        a_reads = row_nnz.sum(axis=1)
        # Each B row a live pair uses is fetched once per block; a row
        # no live pair uses is empty anyway, so every K column of A counts.
        b_traffic = (a.any(axis=1) * b.sum(axis=2, dtype=np.int64)).sum(axis=1)
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
