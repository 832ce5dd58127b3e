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

from repro.arch.batch import count_tables, evaluate_packed
from repro.arch.config import FP64, Precision
from repro.baselines.common import BaselineSTC, t3_shape
from repro.baselines.nv_dtc import decode_a, decode_b, nv_results


def patterns_satisfy_2to4(a_patterns: np.ndarray) -> np.ndarray:
    """Which of ``[N, 16]`` packed A patterns satisfy 2:4 along K: a 4-wide
    K window of a row is one nibble of one tile, so no nibble holds > 2
    bits, that is no byte of a tile's row-count word
    (:func:`~repro.arch.batch.count_tables`) is above 2."""
    counts = count_tables()[1][a_patterns]
    return ~((counts + 0x01010101) & 0xFCFCFCFC).any(axis=1)


def _decode_a(a_patterns: np.ndarray):
    """The A tiles' count words, plus each pattern's 2:4 test."""
    return (*decode_a(a_patterns), patterns_satisfy_2to4(a_patterns))


class NvDTCSparse(BaselineSTC):
    """A100 tensor core with the 2:4 structured-sparsity mode."""

    name, key = "nv-dtc-2:4", "nv24"

    def __init__(self, precision: Precision = FP64):
        super().__init__(precision)
        self.t3_m = t3_shape("nv-dtc-2:4", {64: 4, 128: 8}, precision)

    def simulate_blocks(self, batch) -> np.ndarray:
        """Array evaluation over operand tiles (:func:`~repro.baselines.nv_dtc.nv_results`).

        Structured blocks run a T2 grid with twice the K extent, read
        the compressed A (half the elements) and one more metadata word
        (the 2-bit indices); one pass serves both kinds of block.  A
        cycle's utilisation is min(1, eff / macs): the bins clip to the
        top one.
        """
        return evaluate_packed(batch, _decode_a, decode_b, self._evaluate)

    def _evaluate(self, a_words, satisfied, b_words) -> np.ndarray:
        return nv_results(a_words, b_words, self.t3_m, self.macs, structured=satisfied)
