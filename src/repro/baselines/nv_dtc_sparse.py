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

from repro.arch.base import VECTOR_WIDTH, STCModel
from repro.arch.batch import decode_a_operands, decode_b_operands, evaluate_packed
from repro.arch.config import FP64, Precision
from repro.baselines.common import t3_shape
from repro.baselines.nv_dtc import nv_results
from repro.formats.bbc import tile_row_counts


def patterns_satisfy_2to4(a_patterns: np.ndarray) -> np.ndarray:
    """Which of ``[N, 16]`` packed A patterns satisfy 2:4 along K: a 4-wide
    K window of a row is one nibble of one tile, so no nibble holds > 2 bits."""
    return (tile_row_counts(a_patterns.astype(np.int64)) <= 2).all(axis=(1, 2))


def _decode_a(a_patterns: np.ndarray):
    """The A tiles and their column counts, plus each pattern's 2:4 test."""
    return (*decode_a_operands(a_patterns), patterns_satisfy_2to4(a_patterns))


class NvDTCSparse(STCModel):
    """A100 tensor core with the 2:4 structured-sparsity mode."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.t3_m = t3_shape("nv-dtc-2:4", {64: 4, 128: 8}, precision)
        self.name = "nv-dtc-2:4"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"nv24:{self.precision.name}"

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over operand tiles (:func:`~repro.baselines.nv_dtc.nv_results`).

        The chunk splits on the 2:4 test, because structured blocks run
        a T2 grid with twice the K extent, read the compressed A (half
        the elements) and one more metadata word (the 2-bit indices).
        """
        return evaluate_packed(batch, _decode_a, decode_b_operands, self._evaluate)

    def _evaluate(self, a_tiles, a_cols, satisfied, b_tiles, b_rows) -> np.ndarray:
        rows = np.empty((len(a_tiles), VECTOR_WIDTH), dtype=np.int64)
        for structured in (False, True):
            part = satisfied == structured
            if not part.any():
                continue
            k_speedup = 2 if structured else 1
            t2_k = 4 * k_speedup
            # A cycle's utilisation is min(1, eff / macs): util_bins
            # already clips to the top bin.
            rows[part] = nv_results(
                a_tiles[part], a_cols[part], b_tiles[part], b_rows[part],
                self.t3_m, t2_k,
                a_reads_per_t3=self.t3_m * t2_k // k_speedup,
                meta=2 if structured else 1,
                macs=self.macs,
            )
        return rows
