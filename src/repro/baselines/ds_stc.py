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

from functools import lru_cache

import numpy as np

from repro.arch.batch import evaluate_packed, histogram_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.baselines.common import (BaselineSTC, CELLS, layer_cells, layer_table, row_counts,
                                    sum_layers, t3_shape)


class DsSTC(BaselineSTC):
    """Outer-product dual-side sparse tensor core model."""

    name, key = "ds-stc", "ds"

    def __init__(self, precision: Precision = FP64):
        super().__init__(precision)
        self.chunk_a = 8
        self.chunk_b = t3_shape("ds-stc", {64: 8, 128: 16}, precision)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over per-K counts.

        Layer ``k`` pairs the popcounts of A's column ``k`` and B's row
        ``k``, so a block's row is the sum of its 16 layers' rows
        (:func:`_layer_table`, :func:`~repro.baselines.common.sum_layers`).
        """
        table = _layer_table(self.chunk_a, self.chunk_b, self.macs)
        return evaluate_packed(batch, layer_cells, row_counts,
                               lambda a_cells, b_counts: sum_layers(a_cells, b_counts, table))


@lru_cache(maxsize=None)
def _layer_table(ca: int, cb: int, macs: int) -> np.ndarray:
    """One K layer's row per ``(|A col k|, |B row k|)`` cell.

    A layer with both counts nonzero is one gathered rank-1 update (a
    dead layer is skipped).  The update splits into full/partial A
    chunks x full/partial B chunks, one cycle each, so its cycles fall
    into four product classes, each counted in closed form.  The
    resident A chunk is read once; each B chunk is re-read for every A
    chunk, and every product is written out to C.
    """
    na, nb = np.divmod(np.arange(CELLS)[:, None], 17)           # [cell, one layer]
    live = (na > 0) & (nb > 0)
    na_live = na * live
    a_chunks = -(-na_live // ca)
    products = (na * nb).sum(axis=1)
    # Four cycle classes: (full | partial A chunk) x (full | partial B
    # chunk), with their counts and products.
    qa, ra = na_live // ca, na_live % ca
    qb, rb = nb // cb, nb % cb
    eff = np.stack([np.full_like(na, ca * cb), ca * rb, ra * cb, ra * rb], axis=1)
    count = np.stack([qa * qb, qa * (rb > 0), (ra > 0) * qb, (ra > 0) * (rb > 0)], axis=1)
    a_reads = na_live.sum(axis=1)
    b_reads = (nb * a_chunks).sum(axis=1)
    return layer_table(count.sum(axis=(1, 2)), products,
                       histogram_rows(util_bins(eff, macs), count), {
                           "meta_reads": 2 * live.sum(axis=1),
                           "a_elem_reads": a_reads,
                           "a_net_transfers": a_reads,
                           "b_elem_reads": b_reads,
                           "b_net_transfers": b_reads,
                           "mac_ops": products,
                           "c_elem_writes": products,
                           "c_net_transfers": products,
                           "accum_accesses": products,
                       }, macs)
