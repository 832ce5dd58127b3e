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

from functools import lru_cache

import numpy as np

from repro.arch.batch import evaluate_packed, histogram_rows, util_bins
from repro.arch.config import FP64, Precision
from repro.baselines.common import (BaselineSTC, CELLS, layer_cells, layer_table, row_counts,
                                    sum_layers, t3_shape)


class Gamma(BaselineSTC):
    """GAMMA Gustavson dataflow model."""

    name, key = "gamma", "gamma"

    def __init__(self, precision: Precision = FP64):
        super().__init__(precision)
        self.chunk_cols = t3_shape("gamma", {64: 4, 128: 8}, precision)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over per-K counts.

        Layer ``k`` pairs the popcounts of A's column ``k`` and B's row
        ``k``, so a block's row is the sum of its 16 layers' rows
        (:func:`_layer_table`, :func:`~repro.baselines.common.sum_layers`).
        """
        table = _layer_table(self.chunk_cols, self.macs)
        return evaluate_packed(batch, layer_cells, row_counts,
                               lambda a_cells, b_counts: sum_layers(a_cells, b_counts, table))


@lru_cache(maxsize=None)
def _layer_table(cc: int, macs: int) -> np.ndarray:
    """One K layer's row per ``(|A col k|, |B row k|)`` cell.

    A live layer runs its full B chunks plus at most one partial one,
    each cycle multiplying the layer's A column into its chunk of B row
    ``k``, so its cycles fall into two product classes.
    """
    na, nb = np.divmod(np.arange(CELLS)[:, None], 17)           # [cell, one layer]
    nb = nb * (na > 0)
    live = nb > 0
    products = (na * nb).sum(axis=1)
    eff = np.stack([na * cc, na * (nb % cc)], axis=1)
    count = np.stack([nb // cc, nb % cc > 0], axis=1)
    a_reads, b_reads = (na * live).sum(axis=1), nb.sum(axis=1)
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
