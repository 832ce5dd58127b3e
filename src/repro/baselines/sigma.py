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

from repro.arch.base import STCModel
from repro.arch.batch import evaluate_packed, histogram_rows, result_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.baselines.common import ceil_div, col_masks, row_masks, t3_shape
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

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over row / column masks.

        A row meets a B column in ``popcount(A row & B column)``
        products.  Column groups chunk each block's *live* B columns by
        their rank among them; a (row, group) pair with products is one
        cycle, which reads the group's whole B columns (dense delivery)
        and writes one C element per matched column.
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
