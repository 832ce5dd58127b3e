"""NV-DTC sparse mode — the A100's 2:4 structured-sparsity tensor core.

The dense NV-DTC model (:mod:`repro.baselines.nv_dtc`) ignores
sparsity inside a T2 region.  The real A100 additionally offers a
*structured* mode: when the A operand satisfies the 2:4 pattern along
K, hardware skips the pruned half of the reduction, doubling effective
throughput — but it offers nothing for unstructured sparsity or a
sparse B.  This extension model makes the comparison with Uni-STC on
DLMC's structured weights fair: NV gets its real 2x, and still loses
on dual-sided or unstructured patterns.
"""

from __future__ import annotations

import numpy as np

from repro.arch.base import VECTOR_WIDTH, BlockResult, STCModel
from repro.arch.batch import evaluate_stacked
from repro.arch.config import FP64, Precision
from repro.arch.counters import Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.baselines.common import ceil_div, operand_arrays, t3_shape
from repro.baselines.nv_dtc import T2_M, T3_N, nv_results


def blocks_satisfy_2to4(a: np.ndarray, group: int = 4, keep: int = 2) -> np.ndarray:
    """Which blocks of an ``[N, 16, 16]`` A stack satisfy 2:4 along K?"""
    windows = a.reshape(a.shape[0], 16, 16 // group, group)
    return (windows.sum(axis=3) <= keep).all(axis=(1, 2))


def block_satisfies_2to4(a: np.ndarray, group: int = 4, keep: int = 2) -> bool:
    """Does this 16x16 A block satisfy 2:4 along K (its columns)?"""
    return bool(blocks_satisfy_2to4(a[None], group, keep)[0])


class NvDTCSparse(STCModel):
    """A100 tensor core with the 2:4 structured-sparsity mode."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.t3_m = t3_shape("nv-dtc-2:4", {64: 4, 128: 8}, precision)
        self.t3_n = T3_N
        self.t3_k = 4
        self.name = "nv-dtc-2:4"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"nv24:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        n = b.shape[1]
        structured = block_satisfies_2to4(a)
        # In structured mode the hardware compresses K 2:1, halving the
        # K extent every T2/T3 task covers.
        k_speedup = 2 if structured else 1
        hist = UtilHistogram()
        counters = Counters()
        cycles = 0
        products = 0

        t2_m, t2_n = T2_M, min(8, n)
        t2_k = 4 * k_speedup
        for mi in range(ceil_div(16, t2_m)):
            for ni in range(ceil_div(n, t2_n)):
                for ki in range(ceil_div(16, t2_k)):
                    a_region = a[mi * t2_m : (mi + 1) * t2_m, ki * t2_k : (ki + 1) * t2_k]
                    b_region = b[ki * t2_k : (ki + 1) * t2_k, ni * t2_n : (ni + 1) * t2_n]
                    if not a_region.any() or not b_region.any():
                        continue
                    for m3 in range(ceil_div(t2_m, self.t3_m)):
                        for n3 in range(ceil_div(b_region.shape[1], self.t3_n)):
                            a_sub = a_region[m3 * self.t3_m : (m3 + 1) * self.t3_m]
                            b_sub = b_region[:, n3 * self.t3_n : (n3 + 1) * self.t3_n]
                            eff = int((a_sub.sum(axis=0) * b_sub.sum(axis=1)).sum())
                            cycles += 1
                            products += eff
                            hist.record(min(1.0, eff / self.macs))
                            # Structured mode reads the compressed A
                            # (values + 2-bit indices) and the full B.
                            a_reads = a_sub.size // k_speedup
                            counters.add("a_elem_reads", a_reads)
                            counters.add("b_elem_reads", b_sub.size)
                            counters.add("a_net_transfers", a_reads)
                            counters.add("b_net_transfers", b_sub.size)
                            counters.add("mac_ops", eff)

        if cycles == 0:
            hist.record(0.0)
            cycles = 1
        c_writes = 16 * n
        counters.add("c_elem_writes", c_writes)
        counters.add("c_net_transfers", c_writes)
        counters.add("accum_accesses", c_writes)
        counters.add("lane_cycles", self.macs * cycles)
        counters.add("sched_cycles", cycles)
        counters.add("meta_reads", 2 if structured else 1)
        return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation of :meth:`simulate_block` over operand stacks.

        The stack splits on the 2:4 test, because structured blocks run
        a T2 grid with twice the K extent.
        """
        return evaluate_stacked(batch, self._evaluate)

    def _evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        satisfied = blocks_satisfy_2to4(a)
        rows = np.empty((a.shape[0], VECTOR_WIDTH), dtype=np.int64)
        for structured in (False, True):
            part = satisfied == structured
            if not part.any():
                continue
            k_speedup = 2 if structured else 1
            t2_k = 4 * k_speedup
            # The stepped path's min(1, eff / macs) bins like eff / macs
            # clipped to the top bin, which util_bins already does.
            rows[part] = nv_results(
                a[part], b[part], self.t3_m, t2_k,
                a_reads_per_t3=self.t3_m * t2_k // k_speedup,
                meta=2 if structured else 1,
                macs=self.macs,
            )
        return rows
