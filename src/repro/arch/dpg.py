"""Dot Product Generator (DPG) — T3 → T4 decomposition (§IV-A.2, Fig. 9).

A DPG receives one T3 task (a 4x4x4 tile multiply) together with the
two level-2 bitmaps.  It

1. outer-products the bottom-level bitmaps into four intermediate
   bitmap layers and overlays them, so each output position carries a
   4-bit index-matching pattern;
2. combines the overlay with tile C's layout to emit 8-bit T4 task
   codes (accumulate-target nibble + dot-pattern nibble — the paper's
   '49' example decodes to ``C[4] += A(1,0)*B(0,3) + A(1,3)*B(3,3)``);
3. fills the dot-product queue in the Z-shaped column-pair order that
   bounds operand broadcast ranges to 5 multipliers for A and 9 for B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.arch.tasks import T4Task
from repro.formats import bitarray

#: Queue-fill orders a DPG implements: Z-shaped (the paper's) and N-shaped.
FILL_ORDERS = ("z", "n")

#: Broadcast ranges guaranteed by the Z-shaped fill order (§IV-A.2).
A_BROADCAST_RANGE = 5   # 4 + 1 adjacent multipliers
B_BROADCAST_RANGE = 9   # 4 + 4 + 1 multipliers


def overlay_patterns(a_tile_bitmap: int, b_tile_bitmap: int, n_cols: int = 4) -> List[List[int]]:
    """The overlaid index-match map: ``pattern[m][n]`` is a 4-bit mask.

    Bit ``kk`` of ``pattern[m][n]`` is set iff ``A_tile[m, kk]`` and
    ``B_tile[kk, n]`` are both nonzero — the operand pairs of the
    sparse dot product that produces ``C_tile[m, n]``.
    """
    patterns = []
    for m in range(4):
        a_row = bitarray.row_mask(a_tile_bitmap, m, 4)
        row_patterns = []
        for n in range(n_cols):
            b_col = bitarray.col_mask(b_tile_bitmap, n, width=n_cols, height=4)
            row_patterns.append(bitarray.dot_pattern(a_row, b_col))
        patterns.append(row_patterns)
    return patterns


def z_order(n_cols: int = 4) -> List[Tuple[int, int]]:
    """The Z-shaped queue-fill order over output positions ``(m, n)``.

    Columns are taken in pairs; within a pair, rows advance while the
    two columns alternate.  Two T4 tasks sharing a B column are then
    separated by at most one intervening task (broadcast range 9) and
    tasks sharing an A row sit adjacent (broadcast range 5).
    """
    order: List[Tuple[int, int]] = []
    for base in range(0, n_cols, 2):
        pair = [base] if base + 1 >= n_cols else [base, base + 1]
        for m in range(4):
            for n in pair:
                order.append((m, n))
    return order


def n_order(n_cols: int = 4) -> List[Tuple[int, int]]:
    """The alternative N-shaped (column-major) fill order.

    The paper tested it and found it inferior for most matrices; it is
    kept for the ablation benchmark.
    """
    return [(m, n) for n in range(n_cols) for m in range(4)]


@dataclass
class DPGOutput:
    """Everything one DPG emits for one T3 task."""

    t4_tasks: List[T4Task]
    a_elem_fetches: int
    b_elem_fetches: int
    a_broadcasts: int
    b_broadcasts: int

    @property
    def products(self) -> int:
        """Total multiplies across all T4 tasks."""
        return sum(t.length for t in self.t4_tasks)

    @property
    def c_writes(self) -> int:
        """Result writes after SDPU pre-merging: one per T4 task."""
        return len(self.t4_tasks)


class DotProductGenerator:
    """One DPG instance; stateless, so a single object serves all slots."""

    def __init__(self, fill_order: str = "z"):
        if fill_order not in FILL_ORDERS:
            raise ValueError(f"fill order must be 'z' or 'n', got {fill_order!r}")
        self.fill_order = fill_order

    def decompose(self, a_tile_bitmap: int, b_tile_bitmap: int, n_cols: int = 4) -> DPGOutput:
        """Decompose one T3 task into Z-ordered T4 tasks with fetch stats.

        Fetch accounting follows the broadcast mechanism: within one
        column pair an A element is fetched once and broadcast to every
        task of its row, and a B element is fetched once and broadcast
        to every task of its column; across pair groups operands are
        re-fetched (the queue has moved past them).
        """
        patterns = overlay_patterns(a_tile_bitmap, b_tile_bitmap, n_cols)
        order = z_order(n_cols) if self.fill_order == "z" else n_order(n_cols)
        tasks: List[T4Task] = []
        a_fetches = b_fetches = a_casts = b_casts = 0
        group_size = 8 if n_cols > 1 else 4  # tasks per column-pair group
        for g_start in range(0, len(order), group_size):
            group = order[g_start : g_start + group_size]
            a_seen = {}
            b_seen = {}
            for m, n in group:
                pattern = patterns[m][n]
                if not pattern:
                    continue
                tasks.append(T4Task(target=m * n_cols + n, pattern=pattern))
                length = bin(pattern).count("1")
                a_new = pattern & ~a_seen.get(m, 0)
                b_new = pattern & ~b_seen.get(n, 0)
                a_seen[m] = a_seen.get(m, 0) | pattern
                b_seen[n] = b_seen.get(n, 0) | pattern
                a_fetches += bin(a_new).count("1")
                b_fetches += bin(b_new).count("1")
                a_casts += length
                b_casts += length
        return DPGOutput(
            t4_tasks=tasks,
            a_elem_fetches=a_fetches,
            b_elem_fetches=b_fetches,
            a_broadcasts=a_casts,
            b_broadcasts=b_casts,
        )
