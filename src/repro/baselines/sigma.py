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

from functools import lru_cache

import numpy as np

from repro.arch.batch import cycle_totals, cycle_words, evaluate_packed, result_rows
from repro.arch.config import FP64, Precision
from repro.baselines.common import BaselineSTC, ceil_div, t3_shape
from repro.formats.bbc import pattern_col_masks, pattern_row_masks
from repro.formats.bitarray import popcount16

_COLS = np.arange(16, dtype=np.int64) << 16
@lru_cache(maxsize=None)
def _match_weights() -> np.ndarray:
    """``[65536]`` float32, read-only: ``popcount(x) + 256 * (x != 0)``,
    a row/column meeting's products plus 256 per matched column."""
    pop = popcount16().astype(np.float32)
    table = pop + 256 * (pop > 0)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _group_matrix(n: int, chunk: int) -> np.ndarray:
    """``[n, groups]`` float32 0/1, read-only: column rank ``j`` is in group ``j // chunk``."""
    matrix = (np.arange(n)[:, None] // chunk == np.arange(ceil_div(n, chunk))).astype(np.float32)
    matrix.setflags(write=False)
    return matrix


def _decode_a(a_patterns: np.ndarray):
    """Each A block's row masks, its nonzeros and its nonzero rows."""
    rows = pattern_row_masks(a_patterns)
    return rows, popcount16()[a_patterns].sum(axis=1, dtype=np.int64), (rows != 0).sum(axis=1)


class Sigma(BaselineSTC):
    """SIGMA flexible-dataflow model."""

    name, key = "sigma", "sigma"

    def __init__(self, precision: Precision = FP64):
        super().__init__(precision)
        self.chunk_cols = t3_shape("sigma", {64: 4, 128: 8}, precision)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over row / column masks.

        A row meets a B column in ``popcount(A row & B column)``
        products.  Column groups chunk each block's *live* B columns by
        their rank among them, so each B operand's live columns move to
        the front, in order, when it is decoded; a (row, group) pair
        with products is one cycle, which reads the group's whole B
        columns (dense delivery) and writes one C element per matched
        column.  One float32 product (exact: every sum is below 2^12)
        sums each pair's products and 256 per matched column, and the
        pairs with products sum as
        :func:`~repro.arch.batch.cycle_words` words.
        """
        return evaluate_packed(batch, _decode_a, self._decode_b, self._evaluate)

    def _decode_b(self, b_patterns: np.ndarray):
        """Each B operand's live column masks first, in order, the nonzeros
        of each column group, and whether it has any."""
        cols = pattern_col_masks(b_patterns)
        n = cols.shape[1]
        if n > 1:
            # Sorted on (dead, column) above the mask bits.
            key = (cols == 0) << 20 | _COLS | cols
            cols = (np.sort(key, axis=1) & 0xFFFF).astype(np.uint16)
        nnz = popcount16()[cols].reshape(-1, ceil_div(n, self.chunk_cols), min(n, self.chunk_cols))
        return cols, nnz.sum(axis=2, dtype=np.int64), cols[:, 0] != 0

    def _evaluate(self, a_rows, a_nnz, a_live_rows, b_cols, group_b, b_live) -> np.ndarray:
        count, n = b_cols.shape
        match = _match_weights()[a_rows[:, :, None] & b_cols[:, None, :]]           # [N, i, j]
        groups = _group_matrix(n, self.chunk_cols)
        pairs = (match.reshape(-1, n) @ groups).astype(np.int64).reshape(count, 16, -1)
        eff = pairs & 0xFF                                                          # [N, i, g]
        cycles, _, products, hist = cycle_totals(
            cycle_words(self.macs, 16 * self.chunk_cols)[(eff + 1) * (eff > 0)].sum(axis=(1, 2)))
        c_writes = (pairs >> 8).sum(axis=(1, 2))
        runs = (eff > 0).sum(axis=1)                                                # [N, g]
        b_reads = (runs * group_b).sum(axis=1)
        a_reads = a_nnz * b_live
        return result_rows(cycles, products, hist, {
            "meta_reads": a_live_rows * b_live,
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
