"""SIGMA — flexible-interconnect GEMM accelerator, aligned variant.

Per Table VI the aligned T3 task is 1x4x16 (1x8x16 at FP32): one A row
meets a 4-column group of B across the whole K extent in a single
cycle, with SIGMA's flexible distribution network gathering the row's
nonzeros.  Sparsity support is *single-sided*: the A side is gathered,
but within a column group the B side is delivered dense, so effective
utilisation collapses when both operands are sparse — the paper's
stated reason Uni-STC beats it (§VI-C.1).
"""

from __future__ import annotations

import numpy as np

from repro.arch.base import BlockResult, STCModel
from repro.arch.batch import evaluate_packed, histogram_rows, result_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.arch.counters import Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.baselines.common import ceil_div, col_masks, operand_arrays, row_masks, t3_shape
from repro.formats.bitarray import popcount16


class Sigma(STCModel):
    """SIGMA flexible-dataflow model."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.chunk_cols = t3_shape("sigma", {64: 4, 128: 8}, precision)
        self.name = "sigma"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"sigma:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        hist = UtilHistogram()
        counters = Counters()
        cycles = 0
        products = 0

        # Software can restrict work to B's nonzero columns, but within a
        # column group delivery is dense (single-sided sparsity).
        live_cols = np.flatnonzero(b.any(axis=0))
        match = a.astype(np.int64) @ b.astype(np.int64)  # (16, N) effective products
        for i in range(16):
            row_nnz = int(a[i].sum())
            if row_nnz == 0 or live_cols.size == 0:
                continue
            counters.add("meta_reads", 1)
            counters.add("a_elem_reads", row_nnz)
            counters.add("a_net_transfers", row_nnz)
            for ci in range(ceil_div(int(live_cols.size), self.chunk_cols)):
                cols = live_cols[ci * self.chunk_cols : (ci + 1) * self.chunk_cols]
                eff = int(match[i, cols].sum())
                if eff == 0:
                    continue  # flexible interconnect skips an empty group
                cycles += 1
                products += eff
                hist.record(eff / self.macs)
                counters.add("mac_ops", eff)
                counters.add("b_elem_reads", int(b[:, cols].sum()))
                counters.add("b_net_transfers", int(b[:, cols].sum()))
                writes = int(np.count_nonzero(match[i, cols]))
                counters.add("c_elem_writes", writes)
                counters.add("c_net_transfers", writes)
                counters.add("accum_accesses", writes)

        if cycles == 0:
            hist.record(0.0)
            cycles = 1
        counters.add("lane_cycles", self.macs * cycles)
        counters.add("sched_cycles", cycles)
        return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation of :meth:`simulate_block` over row / column masks.

        A row meets a B column in ``popcount(A row & B column)``
        products.  Column groups chunk each block's *live* B columns by
        their rank among them; a (row, group) pair with products is one
        cycle.
        """
        return evaluate_packed(batch, row_masks, col_masks, self._evaluate)

    def _evaluate(self, a_rows: np.ndarray, b_cols: np.ndarray) -> np.ndarray:
        pop = popcount16()
        count, n = b_cols.shape
        groups = ceil_div(n, self.chunk_cols)
        col_nnz = pop[b_cols].astype(np.int64)                   # [N, j]
        live = col_nnz > 0
        group = (np.cumsum(live, axis=1) - 1) // self.chunk_cols
        select = live[:, :, None] & (group[:, :, None] == np.arange(groups))
        select32 = select.astype(np.float32)                     # [N, j, g]
        match = pop[a_rows[:, :, None] & b_cols[:, None, :]]     # [N, i, j]
        # float32 matmuls: every sum here is exact (<= 16 * 16).
        eff = (match.astype(np.float32) @ select32).astype(np.int64)  # [N, i, g]
        writes = ((match > 0).astype(np.float32) @ select32).astype(np.int64)
        group_b = (col_nnz[:, None, :] @ select).reshape(count, groups)
        run = eff > 0
        steps = run.sum(axis=(1, 2))
        products = eff.sum(axis=(1, 2))
        hist = histogram_rows(util_bins(eff, self.macs), run)
        cycles = np.maximum(steps, 1)
        hist[:, 0] += steps == 0
        row_nnz = pop[a_rows].astype(np.int64) * live.any(axis=1)[:, None]

        a_reads = row_nnz.sum(axis=1)
        b_reads = (run * group_b[:, None, :]).sum(axis=(1, 2))
        c_writes = writes.sum(axis=(1, 2))
        return result_rows(cycles, products, hist, {
            "meta_reads": (row_nnz > 0).sum(axis=1),
            "a_elem_reads": a_reads,
            "a_net_transfers": a_reads,
            "mac_ops": products,
            "b_elem_reads": b_reads,
            "b_net_transfers": b_reads,
            "c_elem_writes": c_writes,
            "c_net_transfers": c_writes,
            "accum_accesses": c_writes,
            "lane_cycles": self.macs * cycles,
            "sched_cycles": cycles,
        })
