"""NV-DTC — the A100's dense tensor core as the no-sparsity baseline.

Task hierarchy (Table III): T2 = 8x8x4 machine-instruction tasks that
the GPU front-end can skip only when an operand region is entirely
empty (coarse, software-level sparsity support); each surviving T2 runs
its fixed grid of dense T3 tasks (4x4x4 at FP64, 8x4x4 at FP32), one
cycle each, regardless of the nonzeros inside.  That rigidity is what
drives Fig. 5's ">84% of cycles below 25% utilisation" observation.
"""

from __future__ import annotations

import numpy as np

from repro.arch.base import BlockResult, STCModel
from repro.arch.batch import (decode_a_operands, decode_b_operands, evaluate_packed,
                               histogram_rows, result_rows, util_bins)
from repro.arch.config import FP64, Precision
from repro.arch.counters import Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.arch.tms import tile_products_batch
from repro.baselines.common import ceil_div, operand_arrays, t3_shape

#: T2 task M extent, and the T3 N extent, of both NV-DTC modes.
T2_M = 8
T3_N = 4


def nv_results(
    a_tiles: np.ndarray,
    a_cols: np.ndarray,
    b_tiles: np.ndarray,
    b_rows: np.ndarray,
    t3_m: int,
    t2_k: int,
    a_reads_per_t3: int,
    meta: int,
    macs: int,
) -> np.ndarray:
    """Array form of the stepped NV-DTC T2/T3 loops: one row per block.

    Every T3 task of every unskipped T2 region (K extent ``t2_k``) runs
    one cycle, reading ``a_reads_per_t3`` A elements and its dense B
    sub-region.  The operands come as 4x4 tiles
    (:func:`~repro.arch.batch.decode_a_operands` /
    :func:`~repro.arch.batch.decode_b_operands`): a T3 task's column
    group is one B tile column (a segment's one column), so its
    products sum the tile triples of its ``t3_m / 4`` tile rows and
    ``t2_k / 4`` K tiles, and the front-end skip tests whole tiles.
    """
    count, groups = b_tiles.shape[0], b_tiles.shape[2]
    kf, mf = t2_k // 4, t3_m // 4
    k_groups, m3 = 4 // kf, 4 // mf
    eff = tile_products_batch(a_cols, b_rows).reshape(
        count, k_groups, kf, m3, mf, groups).sum(axis=(2, 4))    # [N, kg, m3, G]
    # The front-end skip: a T2 task runs iff its A and B regions are
    # both nonempty.  An A region is two tile rows; a T3 column group's
    # B region is its T2 column region, two tile columns (of a 16-wide
    # B; a segment is one region).
    a_live = (a_tiles != 0).reshape(count, 2, 2, k_groups, kf).any(axis=(2, 4))
    b_any = (b_tiles != 0).reshape(count, k_groups, kf, groups).any(axis=2)
    if groups > 1:
        b_any = np.repeat(b_any.reshape(count, k_groups, -1, 2).any(axis=3), 2, axis=2)
    a_run = a_live[:, np.arange(m3) // (T2_M // t3_m), :].transpose(0, 2, 1)
    run = a_run[:, :, :, None] & b_any[:, :, None, :]             # [N, kg, m3, G]
    steps = run.sum(axis=(1, 2, 3))
    products = (eff * run).sum(axis=(1, 2, 3))
    hist = histogram_rows(util_bins(eff, macs), run)
    cycles = np.maximum(steps, 1)
    hist[:, 0] += steps == 0
    a_reads = a_reads_per_t3 * steps
    # A column group spans T3_N columns of a 16-wide B, a segment's one.
    width = T3_N if groups > 1 else 1
    b_reads = t2_k * width * steps
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
        "meta_reads": meta,
    })


class NvDTC(STCModel):
    """Dense tensor core model (NV-DTC)."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        # T3 task shape: M grows with the MAC budget (Table VI row NV-DTC).
        self.t3_m = t3_shape("nv-dtc", {64: 4, 128: 8}, precision)
        self.t3_n = T3_N
        self.t3_k = 4
        self.name = "nv-dtc"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"nv:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        n = b.shape[1]
        hist = UtilHistogram()
        counters = Counters()
        cycles = 0
        products = 0

        t2_m, t2_n, t2_k = T2_M, min(8, n), 4
        for mi in range(ceil_div(16, t2_m)):
            for ni in range(ceil_div(n, t2_n)):
                for ki in range(ceil_div(16, t2_k)):
                    a_region = a[mi * t2_m : (mi + 1) * t2_m, ki * t2_k : (ki + 1) * t2_k]
                    b_region = b[ki * t2_k : (ki + 1) * t2_k, ni * t2_n : (ni + 1) * t2_n]
                    if not a_region.any() or not b_region.any():
                        continue  # the front-end skip mechanism
                    # Execute the full T3 grid of this T2 task.
                    for m3 in range(ceil_div(t2_m, self.t3_m)):
                        for n3 in range(ceil_div(b_region.shape[1], self.t3_n)):
                            a_sub = a_region[m3 * self.t3_m : (m3 + 1) * self.t3_m]
                            b_sub = b_region[:, n3 * self.t3_n : (n3 + 1) * self.t3_n]
                            eff = int((a_sub.sum(axis=0) * b_sub.sum(axis=1)).sum())
                            cycles += 1
                            products += eff
                            hist.record(eff / self.macs)
                            # Dense operand delivery: the full region is
                            # fetched whether or not elements are zero.
                            counters.add("a_elem_reads", a_sub.size)
                            counters.add("b_elem_reads", b_sub.size)
                            counters.add("a_net_transfers", a_sub.size)
                            counters.add("b_net_transfers", b_sub.size)
                            counters.add("mac_ops", eff)

        if cycles == 0:
            hist.record(0.0)
            cycles = 1
        # Accumulators are local: C is written once per output element.
        c_writes = 16 * n
        counters.add("c_elem_writes", c_writes)
        counters.add("c_net_transfers", c_writes)
        counters.add("accum_accesses", c_writes)
        counters.add("lane_cycles", self.macs * cycles)
        counters.add("sched_cycles", cycles)
        counters.add("meta_reads", 1)
        return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation of :meth:`simulate_block` over operand tiles."""
        return evaluate_packed(batch, decode_a_operands, decode_b_operands,
                               self._evaluate)

    def _evaluate(self, a_tiles, a_cols, b_tiles, b_rows) -> np.ndarray:
        t2_k = 4
        return nv_results(
            a_tiles, a_cols, b_tiles, b_rows, self.t3_m, t2_k,
            a_reads_per_t3=self.t3_m * t2_k, meta=1, macs=self.macs,
        )
