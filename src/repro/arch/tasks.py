"""Task hierarchy dataclasses (paper Table III).

- **T1** — one MMA-instruction task: a 16(M) x 16(N) x 16(K) block
  multiply-accumulate.  All simulators consume streams of T1 tasks.
- **T2** — machine-instruction task; Uni-STC *bypasses* this level
  (Table III lists it as "None"), so it exists here only for the
  baseline models that split T1 tasks along compiler-fixed shapes.
- **T3** — per-cycle tile task.  For Uni-STC: a 4x4x4 tile multiply
  ``C_tile(i,j) += A_tile(i,k) x B_tile(k,j)``.
- **T4** — vector task: a 1 x 1 x (<=4) sparse dot product with an
  accumulate target, encoded by the DPG as an 8-bit code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.formats.bbc import pack_patterns, unpack_patterns


@dataclass(frozen=True)
class T1Task:
    """One 16x16x16 block multiply described by packed operand patterns.

    ``a_bits`` is the A block's packed pattern, sixteen little-endian
    uint16 level-2 tile bitmaps (:func:`~repro.formats.bbc.pack_patterns`);
    ``b_bits`` packs the 16 x N B operand, N = 16 (matrix operand) or
    N = 1 (vector operand, as in SpMV/SpMSpV).  ``weight`` counts how
    many identical T1 tasks this one stands for (used when a sparse A
    block meets several identical dense B column-blocks in SpMM).
    """

    a_bits: bytes
    b_bits: bytes
    n: int = 16
    weight: int = 1

    @staticmethod
    def from_bitmaps(a_bitmap: np.ndarray, b_bitmap: np.ndarray, weight: int = 1) -> "T1Task":
        """Build a task from boolean arrays (16x16 for A, 16xN for B)."""
        a = np.asarray(a_bitmap, dtype=bool)
        b = np.asarray(b_bitmap, dtype=bool)
        if a.shape != (16, 16):
            raise ValueError(f"A bitmap must be 16x16, got {a.shape}")
        if b.ndim != 2 or b.shape[0] != 16 or b.shape[1] not in (1, 16):
            raise ValueError(f"B bitmap must be 16x1 or 16x16, got {b.shape}")
        return T1Task(pack_patterns(a).tobytes(), pack_patterns(b).tobytes(),
                      n=b.shape[1], weight=weight)

    def a_bitmap(self) -> np.ndarray:
        """A-block occupancy as a 16x16 boolean array."""
        return unpack_patterns(np.frombuffer(self.a_bits, dtype="<u2"))

    def b_bitmap(self) -> np.ndarray:
        """B-operand occupancy as a 16xN boolean array."""
        return unpack_patterns(np.frombuffer(self.b_bits, dtype="<u2"))

    def cache_key(self) -> Tuple[bytes, bytes]:
        """Memoisation key: the packed patterns, as the engine keys a batch."""
        return (self.a_bits, self.b_bits)

    def intermediate_products(self) -> int:
        """Effective multiply count: sum_k nnz(A[:,k]) * nnz(B[k,:]).

        This is the paper's "#inter-prod/blk" density measure (Table VII,
        Fig. 20 x-axis); its maximum is 16*16*16 = 4096.
        """
        a_col = self.a_bitmap().sum(axis=0)
        b_row = self.b_bitmap().sum(axis=1)
        return int((a_col * b_row).sum())


@dataclass(frozen=True)
class T3Task:
    """One Uni-STC tile task: C_tile(i, j) += A_tile(i, k) x B_tile(k, j).

    ``products`` is the number of intermediate products (<= 64) and
    ``a_tile_bitmap`` / ``b_tile_bitmap`` are the 16-bit level-2 bitmaps
    the owning DPG decomposes into T4 tasks.
    """

    i: int
    j: int
    k: int
    products: int
    a_tile_bitmap: int = 0
    b_tile_bitmap: int = 0

    @property
    def output_tile(self) -> Tuple[int, int]:
        """The (i, j) accumulator tile this task writes — conflict key."""
        return (self.i, self.j)


@dataclass(frozen=True)
class T4Task:
    """One vector task: a <=4-long sparse dot product into one C element.

    ``code`` is the DPG's 8-bit encoding: the upper nibble is the
    accumulate target (nonzero slot in tile C), the lower nibble the
    index-match pattern of the dot product (paper Fig. 9's '49' example).
    """

    target: int
    pattern: int

    def __post_init__(self) -> None:
        if not 0 <= self.target < 16:
            raise ValueError(f"accumulate target {self.target} outside a 4x4 tile")
        if not 0 <= self.pattern < 16:
            raise ValueError(f"dot pattern {self.pattern:#x} must be a 4-bit mask")

    @property
    def code(self) -> int:
        """The packed 8-bit task code."""
        return (self.target << 4) | self.pattern

    @property
    def length(self) -> int:
        """Dot-product length = number of matched index pairs (<= 4)."""
        return bin(self.pattern).count("1")


class UtilHistogram:
    """Per-cycle MAC-utilisation histogram with the paper's four bins.

    Bin edges follow Fig. 5: (0, 25%], (25, 50%], (50, 75%], (75, 100%],
    and a cycle at 0% counts in the first bin.  A report's ``util_hist``
    is a read-only view of the four bins of its totals vector.
    """

    __slots__ = ("bins",)

    def __init__(self, bins: Optional[np.ndarray] = None) -> None:
        self.bins = np.zeros(4, dtype=np.int64) if bins is None else bins

    @property
    def cycles(self) -> int:
        """Total recorded cycles."""
        return int(self.bins.sum())

    def fractions(self) -> np.ndarray:
        """The four bin shares (sums to 1 when any cycle is recorded)."""
        total = self.cycles
        return self.bins / total if total else np.zeros(4)

    def low_util_fraction(self) -> float:
        """Share of cycles at or below 50% utilisation (paper §III-B)."""
        frac = self.fractions()
        return float(frac[0] + frac[1])
