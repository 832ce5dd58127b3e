"""Tile Multiply Scheduler (TMS) — T3 task generation, ordering, dispatch.

The TMS consumes the *level-1* information of a T1 task: which 4x4
tiles of A and B are nonzero, and how many intermediate products each
tile-pair multiply would produce.  It then

1. generates T3 tasks by an outer product over the tile bitmaps — one
   four-layer intermediate bitmap, one task per set position (Fig. 8);
2. orders them: outer-product layer order with an adaptive row-/column-
   major intra-layer direction (dot-product and row-row orders are also
   implemented for the Fig. 10 ordering study);
3. dispatches them into per-cycle batches: up to ``num_dpgs`` tasks per
   cycle, combined intermediate products bounded by the MAC budget,
   same-output-tile conflicts stalled by round-robin arbitration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.arch.config import UniSTCConfig
from repro.arch.tasks import T3Task
from repro.errors import SimulationError

#: Task-ordering strategies understood by :func:`order_tasks`.
ORDERINGS = ("outer", "dot", "rowrow")


def tile_products_batch(a_col_counts: np.ndarray, b_row_counts: np.ndarray) -> np.ndarray:
    """Intermediate-product counts of every T3 task of a batch of T1 blocks.

    ``a_col_counts[p, i, k, kk]`` is the nonzero count of column ``kk``
    inside block ``p``'s A tile ``(i, k)``; ``b_row_counts[p, k, j, kk]``
    likewise for rows of its B tile ``(k, j)``
    (:func:`~repro.arch.batch.decode_a_operands` /
    :func:`~repro.arch.batch.decode_b_operands`).  The result
    ``prod[p, k, i, j]`` is ``sum_kk a_col_counts[p, i, k, kk] *
    b_row_counts[p, k, j, kk]`` — the exact multiply count of
    ``C_tile(i,j) += A_tile(i,k) x B_tile(k,j)`` — in one batched matmul.
    """
    return a_col_counts.transpose(0, 2, 1, 3) @ b_row_counts.transpose(0, 1, 3, 2)


@dataclass
class CycleRecord:
    """One dispatch cycle: what ran and whether arbitration stalled."""

    products: int
    conflict: bool
    a_tiles: Tuple[Tuple[int, int], ...]
    b_tiles: Tuple[Tuple[int, int], ...]
    #: The T3 tasks the cycle took, in dispatch (DPG slot) order.
    dispatched: Tuple[T3Task, ...]

    @property
    def tasks(self) -> int:
        """T3 tasks dispatched this cycle."""
        return len(self.dispatched)

    @property
    def k_values(self) -> Tuple[int, ...]:
        """The K layer of each dispatched task, in dispatch order."""
        return tuple(t.k for t in self.dispatched)


@dataclass
class ScheduleOutcome:
    """Full dispatch trace of one T1 task on the TMS."""

    cycles: List[CycleRecord] = field(default_factory=list)
    a_tile_fetches: int = 0
    b_tile_fetches: int = 0
    a_tile_accesses: int = 0
    b_tile_accesses: int = 0
    conflict_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return len(self.cycles)

    @property
    def total_products(self) -> int:
        return sum(c.products for c in self.cycles)

    @property
    def total_task_dispatches(self) -> int:
        return sum(c.tasks for c in self.cycles)

    def mean_parallel_tasks(self) -> float:
        """Average T3 tasks per cycle (Fig. 10 metric 2)."""
        return self.total_task_dispatches / self.total_cycles if self.cycles else 0.0

    def mean_aligned_tasks(self) -> float:
        """Average same-K tasks per cycle (Fig. 10 metric 3).

        Tasks sharing the K layer within one cycle read the same A
        column / B row tiles, which is what makes reuse possible.
        """
        if not self.cycles:
            return 0.0
        aligned = 0
        for cyc in self.cycles:
            if not cyc.k_values:
                continue
            counts = {}
            for k in cyc.k_values:
                counts[k] = counts.get(k, 0) + 1
            aligned += max(counts.values())
        return aligned / self.total_cycles

    def conflict_rate(self) -> float:
        """#conflict cycles / #total cycles (Fig. 10 metric 4)."""
        return self.conflict_cycles / self.total_cycles if self.cycles else 0.0

    def reuse_rate(self, operand: str) -> float:
        """1 - actual/theoretical tile accesses (Fig. 10 metric 1)."""
        if operand == "a":
            actual, theoretical = self.a_tile_fetches, self.a_tile_accesses
        elif operand == "b":
            actual, theoretical = self.b_tile_fetches, self.b_tile_accesses
        else:
            raise ValueError(f"operand must be 'a' or 'b', got {operand!r}")
        return 1.0 - actual / theoretical if theoretical else 0.0


class TileMultiplyScheduler:
    """The TMS of one Uni-STC instance."""

    def __init__(self, config: UniSTCConfig):
        self.config = config

    # -- step 1: T3 task generation --------------------------------------

    def generate_tasks(self, products: np.ndarray) -> List[List[T3Task]]:
        """T3 tasks per K layer from the product-count array ``[k, i, j]``."""
        layers: List[List[T3Task]] = []
        nk = products.shape[0]
        for k in range(nk):
            layer = [
                T3Task(i=int(i), j=int(j), k=k, products=int(products[k, i, j]))
                for i, j in zip(*np.nonzero(products[k]))
            ]
            layers.append(layer)
        return layers

    # -- step 2: task ordering --------------------------------------------

    def order_tasks(self, layers: Sequence[Sequence[T3Task]], strategy: str = "outer") -> List[T3Task]:
        """Flatten per-layer tasks into the chosen dispatch order.

        ``outer`` is Uni-STC's choice: layer-by-layer (K outermost) with
        the adaptive intra-layer direction.  ``dot`` groups all K's of
        one output tile together (maximising write conflicts), ``rowrow``
        walks output rows with K inside (the RM-STC-style order).  Both
        alternatives exist for the Fig. 10 comparison.
        """
        if strategy not in ORDERINGS:
            raise SimulationError(f"unknown ordering {strategy!r}; use one of {ORDERINGS}")
        if strategy == "outer":
            ordered: List[T3Task] = []
            for layer in layers:
                ordered.extend(self._adaptive_layer_order(layer))
            return ordered
        flat = [t for layer in layers for t in layer]
        if strategy == "dot":
            return sorted(flat, key=lambda t: (t.i, t.j, t.k))
        return sorted(flat, key=lambda t: (t.i, t.k, t.j))

    def _adaptive_layer_order(self, layer: Sequence[T3Task]) -> List[T3Task]:
        """Row- or column-major within a layer, picked by occupancy.

        Column-major when nonzero rows outnumber nonzero columns (so a
        B tile stays resident while A tiles stream), row-major otherwise
        — §IV-A's adaptive intra-layer mechanism.
        """
        if not self.config.adaptive_ordering:
            return sorted(layer, key=lambda t: (t.i, t.j))
        rows = {t.i for t in layer}
        cols = {t.j for t in layer}
        if len(rows) > len(cols):
            return sorted(layer, key=lambda t: (t.j, t.i))
        return sorted(layer, key=lambda t: (t.i, t.j))

    # -- step 3: task dispatch ----------------------------------------------

    def dispatch(self, ordered: Sequence[T3Task]) -> ScheduleOutcome:
        """Pack ordered T3 tasks into cycles under the MAC/DPG/conflict rules.

        Dispatch is in-order with a small arbitration window: a task
        whose output tile conflicts with one already chosen this cycle
        is stalled (round-robin, Fig. 8) while younger tasks may still
        fill remaining DPGs; a task that would exceed the MAC budget
        ends the cycle (keeping K-alignment intact).
        """
        cfg = self.config
        outcome = ScheduleOutcome()
        pending = deque(ordered)
        prev_a_tiles: set = set()
        prev_b_tiles: set = set()
        while pending:
            chosen: List[T3Task] = []
            used_outputs: set = set()
            skipped: List[T3Task] = []
            products = 0
            conflict = False
            while pending and len(chosen) < cfg.num_dpgs:
                task = pending.popleft()
                if products + task.products > cfg.macs:
                    pending.appendleft(task)
                    break
                if cfg.conflict_stall and task.output_tile in used_outputs:
                    skipped.append(task)
                    conflict = True
                    if len(skipped) >= cfg.num_dpgs:
                        break
                    continue
                chosen.append(task)
                used_outputs.add(task.output_tile)
                products += task.products
            for task in reversed(skipped):
                pending.appendleft(task)
            if not chosen:
                raise SimulationError("dispatch made no progress; scheduler bug")
            a_tiles = tuple(sorted({(t.i, t.k) for t in chosen}))
            b_tiles = tuple(sorted({(t.k, t.j) for t in chosen}))
            outcome.cycles.append(
                CycleRecord(
                    products=products,
                    conflict=conflict,
                    a_tiles=a_tiles,
                    b_tiles=b_tiles,
                    dispatched=tuple(chosen),
                )
            )
            outcome.conflict_cycles += int(conflict)
            outcome.a_tile_accesses += len(chosen)
            outcome.b_tile_accesses += len(chosen)
            outcome.a_tile_fetches += len(set(a_tiles) - prev_a_tiles)
            outcome.b_tile_fetches += len(set(b_tiles) - prev_b_tiles)
            prev_a_tiles, prev_b_tiles = set(a_tiles), set(b_tiles)
        return outcome

    def schedule(self, products: np.ndarray, strategy: str = "outer") -> ScheduleOutcome:
        """Generate, order and dispatch in one call."""
        layers = self.generate_tasks(products)
        return self.dispatch(self.order_tasks(layers, strategy))
