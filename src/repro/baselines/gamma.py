"""GAMMA — Gustavson-dataflow accelerator, throughput-aligned variant.

Per Table VI the aligned T3 task is 16x4x1 (16x8x1 at FP32): for one K
position, all sixteen block rows operate in lock-step on a 4-column
chunk of B row K.  The blocking approach means rows *without* a
nonzero at K still occupy their lanes — the "cannot bypass empty rows"
weakness the paper attributes Uni-STC's win to (§VI-C.1).

The paper notes the adapted GAMMA/SIGMA/Trapezoid implementations are
compared on performance only; their counters here exist so the engine
stays uniform, not for the energy figures.
"""

from __future__ import annotations

import numpy as np

from repro.arch.base import BlockResult, STCModel
from repro.arch.batch import evaluate_packed, histogram_rows, result_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.arch.counters import Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.baselines.common import chunks, col_masks, operand_arrays, row_masks, t3_shape
from repro.formats.bitarray import popcount16


class Gamma(STCModel):
    """GAMMA Gustavson dataflow model."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.chunk_cols = t3_shape("gamma", {64: 4, 128: 8}, precision)
        self.rows = 16
        self.name = "gamma"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"gamma:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        hist = UtilHistogram()
        counters = Counters()
        cycles = 0
        products = 0

        a_col_nnz = a.sum(axis=0)
        for k in range(16):
            na = int(a_col_nnz[k])
            b_cols = np.flatnonzero(b[k])
            if na == 0 or b_cols.size == 0:
                continue
            counters.add("meta_reads", 2)
            counters.add("a_elem_reads", na)
            counters.add("a_net_transfers", na)
            counters.add("b_elem_reads", int(b_cols.size))
            counters.add("b_net_transfers", int(b_cols.size))
            for cb in chunks(int(b_cols.size), self.chunk_cols):
                # Only the na rows holding a nonzero at K do useful work,
                # but the full 16-row group is occupied (no bypass).
                eff = na * cb
                cycles += 1
                products += eff
                hist.record(eff / self.macs)
                counters.add("mac_ops", eff)
                counters.add("c_elem_writes", eff)
                counters.add("c_net_transfers", eff)
                counters.add("accum_accesses", eff)

        if cycles == 0:
            hist.record(0.0)
            cycles = 1
        counters.add("lane_cycles", self.macs * cycles)
        counters.add("sched_cycles", cycles)
        return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation of :meth:`simulate_block` over per-K counts.

        Layer ``k`` pairs the popcounts of A's column ``k`` and B's row
        ``k``.  A live layer runs its full B chunks plus at most one
        partial one, so its cycles fall into two product classes.
        """
        return evaluate_packed(batch, col_masks, row_masks, self._evaluate)

    def _evaluate(self, a_cols: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        cc = self.chunk_cols
        na = popcount16()[a_cols].astype(np.int64)               # [N, k]
        nb = popcount16()[b_rows].astype(np.int64) * (na > 0)    # [N, k]
        live = nb > 0
        na_live = na * live
        products = (na * nb).sum(axis=1)
        eff = np.stack([na * cc, na * (nb % cc)], axis=1)
        count = np.stack([nb // cc, nb % cc > 0], axis=1)
        hist = histogram_rows(util_bins(eff, self.macs), count)
        steps = count.sum(axis=(1, 2))
        cycles = np.maximum(steps, 1)
        hist[:, 0] += steps == 0

        a_reads, b_reads = na_live.sum(axis=1), nb.sum(axis=1)
        return result_rows(cycles, products, hist, {
            "meta_reads": 2 * live.sum(axis=1),
            "a_elem_reads": a_reads,
            "a_net_transfers": a_reads,
            "b_elem_reads": b_reads,
            "b_net_transfers": b_reads,
            "mac_ops": products,
            "c_elem_writes": products,
            "c_net_transfers": products,
            "accum_accesses": products,
            "lane_cycles": self.macs * cycles,
            "sched_cycles": cycles,
        })
