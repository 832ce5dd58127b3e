"""DS-STC — the dual-side sparse tensor core (outer-product dataflow).

Per Table VI its T3 task is 8x8x1 at FP64 (8x16x1 at FP32): every
cycle multiplies a gathered 8-chunk of one A *column* with a gathered
chunk of the matching B *row* — a rank-1 outer-product update.  The
model reproduces DS-STC's published strengths and weaknesses:

- dual-side gathering gives decent transient utilisation, and a fully
  dead K layer is skipped outright;
- K is fixed at 1, so tasks at different K positions can never share a
  cycle (the Fig. 6 concatenation restriction): a block with many
  shallow live K layers pays one cycle each, and for SpMV utilisation
  is structurally capped at 8/64 = 12.5%;
- every intermediate product is pushed out towards C over the
  monolithic network (no pre-merging) — the 6.5x write-energy gap of
  Fig. 18/19.
"""

from __future__ import annotations

import numpy as np

from repro.arch.base import BlockResult, STCModel
from repro.arch.batch import evaluate_packed, histogram_rows, result_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.arch.counters import Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.baselines.common import ceil_div, chunks, col_masks, operand_arrays, row_masks, t3_shape
from repro.formats.bitarray import popcount16


class DsSTC(STCModel):
    """Outer-product dual-side sparse tensor core model."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.chunk_a = 8
        self.chunk_b = t3_shape("ds-stc", {64: 8, 128: 16}, precision)
        self.name = "ds-stc"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"ds:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        hist = UtilHistogram()
        counters = Counters()
        cycles = 0
        products = 0

        a_col_nnz = a.sum(axis=0)
        b_row_nnz = b.sum(axis=1)
        for k in range(16):
            na, nb = int(a_col_nnz[k]), int(b_row_nnz[k])
            if na == 0 or nb == 0:
                continue  # dual-side skipping of a dead rank-1 update
            counters.add("meta_reads", 2)
            # Gathered A chunk stays resident while B chunks stream past.
            counters.add("a_elem_reads", na)
            counters.add("a_net_transfers", na)
            counters.add("b_elem_reads", nb * ceil_div(na, self.chunk_a))
            counters.add("b_net_transfers", nb * ceil_div(na, self.chunk_a))
            for ca in chunks(na, self.chunk_a):
                for cb in chunks(nb, self.chunk_b):
                    eff = ca * cb
                    cycles += 1
                    products += eff
                    hist.record(eff / self.macs)
                    counters.add("mac_ops", eff)
                    # Outer product: every partial product is written out
                    # across the monolithic network for later merging.
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
        ``k``.  Its rank-1 update splits into full/partial A chunks x
        full/partial B chunks, so its cycles fall into four product
        classes, each counted in closed form.
        """
        return evaluate_packed(batch, col_masks, row_masks, self._evaluate)

    def _evaluate(self, a_cols: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        ca, cb = self.chunk_a, self.chunk_b
        na = popcount16()[a_cols].astype(np.int64)               # [N, k]
        nb = popcount16()[b_rows].astype(np.int64)               # [N, k]
        live = (na > 0) & (nb > 0)
        na_live = na * live
        a_chunks = -(-na_live // ca)
        products = (na * nb).sum(axis=1)
        # Four cycle classes per K layer: (full | partial A chunk) x
        # (full | partial B chunk), with their counts and products.
        qa, ra = na_live // ca, na_live % ca
        qb, rb = nb // cb, nb % cb
        eff = np.stack([np.full_like(na, ca * cb), ca * rb, ra * cb, ra * rb], axis=1)
        count = np.stack([qa * qb, qa * (rb > 0), (ra > 0) * qb, (ra > 0) * (rb > 0)], axis=1)
        hist = histogram_rows(util_bins(eff, self.macs), count)
        steps = count.sum(axis=(1, 2))
        cycles = np.maximum(steps, 1)
        hist[:, 0] += steps == 0

        a_reads = na_live.sum(axis=1)
        b_reads = (nb * a_chunks).sum(axis=1)
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
