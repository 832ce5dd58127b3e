"""The stepped STC models: one readable per-block walk per registered model.

Production evaluates blocks only through each model's array evaluator,
:meth:`~repro.arch.base.STCModel.simulate_blocks`, which returns int64
rows.  This module keeps the per-block reference those evaluators are
checked against: one function per model, stepping a single
:class:`~repro.arch.tasks.T1Task` over its bool occupancy grids into a
readable :class:`BlockResult`, and the scalar helpers only these walks
use, each the oracle of its batched twin in ``src/``:

- :func:`decode_a_operand` / :func:`decode_b_operand` of
  :func:`~repro.arch.batch.decode_a_operands` /
  :func:`~repro.arch.batch.decode_b_operands`;
- :func:`tile_products` of :func:`~repro.arch.tms.tile_products_batch`;
- :func:`dpg_stats` of the fastpath's table-driven DPG totals;
- :func:`blocks_satisfy_2to4` of
  :func:`~repro.baselines.nv_dtc_sparse.patterns_satisfy_2to4`.

:func:`stepped_block` dispatches on the model's class and reads the
configured instance's attributes, so every precision and Uni-STC
variant is covered.  :func:`simulate_block` is the entry the
behavioural tests use: the oracle's result, after asserting that its
row equals the production row of the same block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np

from repro.arch.counters import ACTIONS, Counters
from repro.arch.dpg import DotProductGenerator
from repro.arch.tasks import T1Task, UtilHistogram
from repro.arch.tms import TileMultiplyScheduler
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, Gamma, NvDTC, NvDTCSparse, RmSTC, Sigma, Trapezoid
from repro.baselines.common import ceil_div
from repro.baselines.nv_dtc import T2_M, T3_N
from repro.errors import SimulationError

from tests.conftest import task_batch


@dataclass
class BlockResult:
    """Outcome of stepping one T1 task on one STC."""

    cycles: int
    products: int
    util_hist: UtilHistogram = field(default_factory=UtilHistogram)
    counters: Counters = field(default_factory=Counters)

    def __post_init__(self) -> None:
        if self.cycles < 0 or self.products < 0:
            raise SimulationError("cycles and products must be non-negative")

    def row(self) -> np.ndarray:
        """The result as one int64 row in the ``VECTOR_WIDTH`` layout.

        Every count is an integer by construction; a fractional one is
        a model bug and raises :class:`SimulationError` naming it.
        """
        counts = [self.counters.get(action) for action in ACTIONS]
        fractional = [a for a, count in zip(ACTIONS, counts) if count % 1]
        if fractional:
            raise SimulationError(
                f"fractional action count(s) {fractional}: a block result's "
                "counts must be integers")
        return np.array([self.cycles, self.products, *self.util_hist.bins, *counts],
                        dtype=np.int64)


# -- scalar helpers -------------------------------------------------------


def operand_arrays(task: T1Task) -> Tuple[np.ndarray, np.ndarray]:
    """The task's A (16x16) and B (16xN) occupancy arrays."""
    return task.a_bitmap(), task.b_bitmap()


def chunks(count: int, size: int) -> Iterator[int]:
    """Yield chunk sizes covering ``count`` items ``size`` at a time."""
    remaining = count
    while remaining > 0:
        yield min(size, remaining)
        remaining -= size


def decode_a_operand(a_bitmap: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A-block level-2 view: per-tile bitmaps (4x4) and column counts.

    Returns ``(tile_bitmaps, col_counts)`` with ``tile_bitmaps[i, k]``
    the 16-bit bitmap of tile (i, k) and ``col_counts[i, k, kk]`` the
    nonzero count of column ``kk`` inside that tile.
    """
    tiles = a_bitmap.reshape(4, 4, 4, 4).swapaxes(1, 2)  # [ti, tj, ei, ej]
    col_counts = tiles.sum(axis=2).astype(np.int64)      # [ti, tj, ej]
    weights = (1 << np.arange(16, dtype=np.int64)).reshape(4, 4)
    tile_bitmaps = (tiles.astype(np.int64) * weights).sum(axis=(2, 3))
    return tile_bitmaps, col_counts


def decode_b_operand(b_bitmap: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """B-operand level-2 view for matrix (16x16) or vector (16x1) shape.

    Returns ``(tile_bitmaps, row_counts, n_cols)`` where tiles span
    ``(k, j)``; for a vector operand the tile is 4x1 and its bitmap uses
    element index ``ei`` directly.
    """
    if b_bitmap.shape == (16, 16):
        tiles = b_bitmap.reshape(4, 4, 4, 4).swapaxes(1, 2)
        row_counts = tiles.sum(axis=3).astype(np.int64)  # [tk, tj, ei]
        weights = (1 << np.arange(16, dtype=np.int64)).reshape(4, 4)
        tile_bitmaps = (tiles.astype(np.int64) * weights).sum(axis=(2, 3))
        return tile_bitmaps, row_counts, 4
    if b_bitmap.shape == (16, 1):
        segs = b_bitmap[:, 0].reshape(4, 4)              # [tk, ei]
        row_counts = segs.astype(np.int64)[:, None, :]    # [tk, 1, ei]
        weights = 1 << np.arange(4, dtype=np.int64)
        tile_bitmaps = (segs.astype(np.int64) * weights).sum(axis=1)[:, None]
        return tile_bitmaps, row_counts, 1
    raise SimulationError(f"unsupported B operand shape {b_bitmap.shape}")


def tile_products(a_col_counts: np.ndarray, b_row_counts: np.ndarray) -> np.ndarray:
    """Intermediate-product counts of every T3 task of a T1 block.

    ``a_col_counts[i, k, kk]`` is the nonzero count of column ``kk``
    inside A's tile ``(i, k)``; ``b_row_counts[k, j, kk]`` likewise for
    rows of B's tile ``(k, j)``.  The result ``prod[k, i, j]`` is
    ``sum_kk a_col_counts[i, k, kk] * b_row_counts[k, j, kk]`` — the
    exact multiply count of ``C_tile(i,j) += A_tile(i,k) x B_tile(k,j)``.
    """
    ts = a_col_counts.shape[0]
    nb = b_row_counts.shape[1]
    prod = np.zeros((ts, ts, nb), dtype=np.int64)
    for k in range(ts):
        # (i, kk) x (j, kk) -> (i, j)
        prod[k] = a_col_counts[:, k, :] @ b_row_counts[k, :, :].T
    return prod


#: Field order of the :func:`dpg_stats` summary tuple.
DPG_STAT_FIELDS = (
    "t4_tasks",
    "a_elem_fetches",
    "b_elem_fetches",
    "a_broadcasts",
    "b_broadcasts",
    "c_writes",
)


@lru_cache(maxsize=65536)
def dpg_stats(
    a_tile_bitmap: int, b_tile_bitmap: int, n_cols: int = 4, fill_order: str = "z"
) -> Tuple[int, int, int, int, int, int]:
    """Memoised summary counts of one DPG decomposition.

    Tile-bitmap pairs repeat heavily across blocks, and the stepped
    Uni-STC walk only consumes these six integers (in
    :data:`DPG_STAT_FIELDS` order).
    """
    out = DotProductGenerator(fill_order).decompose(a_tile_bitmap, b_tile_bitmap, n_cols)
    return (
        len(out.t4_tasks),
        out.a_elem_fetches,
        out.b_elem_fetches,
        out.a_broadcasts,
        out.b_broadcasts,
        out.c_writes,
    )


def blocks_satisfy_2to4(a: np.ndarray, group: int = 4, keep: int = 2) -> np.ndarray:
    """Which blocks of an ``[N, 16, 16]`` A stack satisfy 2:4 along K?"""
    windows = a.reshape(a.shape[0], 16, 16 // group, group)
    return (windows.sum(axis=3) <= keep).all(axis=(1, 2))


def block_satisfies_2to4(a: np.ndarray, group: int = 4, keep: int = 2) -> bool:
    """Does this 16x16 A block satisfy 2:4 along K (its columns)?"""
    return bool(blocks_satisfy_2to4(a[None], group, keep)[0])


# -- the stepped models ---------------------------------------------------


def uni_stc_block(stc: UniSTC, task: T1Task) -> BlockResult:
    """Uni-STC: TMS schedule, per-task DPG decomposition, SDPU lanes."""
    cfg = stc.config
    a_tiles, a_cols = decode_a_operand(task.a_bitmap())
    b_tiles, b_rows, n_cols = decode_b_operand(task.b_bitmap())
    products = tile_products(a_cols, b_rows)

    counters = Counters()
    hist = UtilHistogram()
    total_products = int(products.sum())
    # Metadata the TMS/DPG read: the two top-level bitmaps plus one
    # level-2 bitmap per nonzero tile of each operand.
    counters.add("meta_reads", 2 + int((a_tiles != 0).sum()) + int((b_tiles != 0).sum()))

    if total_products == 0:
        # Nothing to multiply: the T1 task retires in one cycle of
        # metadata processing (the Fig. 20 "extremely sparse" regime).
        hist.record(0.0)
        counters.add("sched_cycles", 1)
        counters.add("lane_cycles", cfg.macs)
        counters.add("dpg_gated_cycles", cfg.num_dpgs if cfg.dynamic_gating else 0)
        counters.add("dpg_active_cycles", 0 if cfg.dynamic_gating else cfg.num_dpgs)
        return BlockResult(cycles=1, products=0, util_hist=hist, counters=counters)

    outcome = TileMultiplyScheduler(cfg).schedule(products, stc.ordering)
    cycles = outcome.total_cycles
    if outcome.total_products != total_products:
        raise SimulationError("scheduler lost intermediate products")

    # Per-dispatched-task DPG decomposition and SDPU packing checks.
    prev_active = 0
    wakeup_stalls = 0
    for cyc in outcome.cycles:
        hist.record(cyc.products / cfg.macs)
        counters.add("dpg_active_cycles", cyc.tasks)
        if cfg.dynamic_gating:
            counters.add("dpg_gated_cycles", cfg.num_dpgs - cyc.tasks)
            # Waking a gated DPG takes dpg_wakeup_cycles; the TMS's
            # prefix-sum look-ahead (§IV-C) hides up to
            # lookahead_cycles of it.  Any remainder stalls the
            # newly-woken DPGs' first dispatch.
            if cyc.tasks > prev_active:
                exposed = max(0, cfg.dpg_wakeup_cycles - cfg.lookahead_cycles)
                wakeup_stalls += exposed
        else:
            counters.add("dpg_active_cycles", cfg.num_dpgs - cyc.tasks)
        prev_active = cyc.tasks
    if wakeup_stalls:
        cycles += wakeup_stalls
        for _ in range(wakeup_stalls):
            hist.record(0.0)
        counters.add(
            "dpg_gated_cycles" if cfg.dynamic_gating else "dpg_active_cycles",
            cfg.num_dpgs * wakeup_stalls,
        )
    t3_count = outcome.total_task_dispatches
    counters.add("sched_cycles", cycles)
    counters.add("lane_cycles", cfg.macs * cycles)
    counters.add("tile_fetches", outcome.a_tile_fetches + outcome.b_tile_fetches)
    counters.add("queue_ops", 2 * t3_count)

    # DPG stage: decompose every scheduled (i, j, k) T3 task once.
    # T4 results land in the local accumulator buffer (one RMW per
    # pre-merged T4 write); the C output network is crossed once per
    # distinct output element when the T1 task completes (§IV-C).
    t4_count = 0
    for k in range(products.shape[0]):
        for i, j in zip(*np.nonzero(products[k])):
            t4, a_fetch, b_fetch, a_cast, b_cast, c_writes = dpg_stats(
                int(a_tiles[i, k]), int(b_tiles[k, j]), n_cols, stc.fill_order
            )
            t4_count += t4
            counters.add("a_elem_reads", a_fetch)
            counters.add("b_elem_reads", b_fetch)
            counters.add("a_net_transfers", a_fetch)
            counters.add("b_net_transfers", b_fetch)
            counters.add("a_broadcasts", a_cast)
            counters.add("b_broadcasts", b_cast)
            counters.add("accum_accesses", c_writes)
    c_outputs = int(
        np.count_nonzero(
            task.a_bitmap().astype(np.int64) @ task.b_bitmap().astype(np.int64)
        )
    )
    counters.add("c_elem_writes", c_outputs)
    counters.add("c_net_transfers", c_outputs)
    counters.add("queue_ops", 2 * t4_count)
    counters.add("mac_ops", total_products)
    return BlockResult(
        cycles=cycles, products=total_products, util_hist=hist, counters=counters
    )


def ds_stc_block(stc: DsSTC, task: T1Task) -> BlockResult:
    """DS-STC: gathered rank-1 updates, one K layer at a time."""
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
        counters.add("b_elem_reads", nb * ceil_div(na, stc.chunk_a))
        counters.add("b_net_transfers", nb * ceil_div(na, stc.chunk_a))
        for ca in chunks(na, stc.chunk_a):
            for cb in chunks(nb, stc.chunk_b):
                eff = ca * cb
                cycles += 1
                products += eff
                hist.record(eff / stc.macs)
                counters.add("mac_ops", eff)
                # Outer product: every partial product is written out
                # across the monolithic network for later merging.
                counters.add("c_elem_writes", eff)
                counters.add("c_net_transfers", eff)
                counters.add("accum_accesses", eff)

    if cycles == 0:
        hist.record(0.0)
        cycles = 1
    counters.add("lane_cycles", stc.macs * cycles)
    counters.add("sched_cycles", cycles)
    return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)


def gamma_block(stc: Gamma, task: T1Task) -> BlockResult:
    """GAMMA: all 16 rows in lock-step on B-row chunks, one K at a time."""
    a, b = operand_arrays(task)
    hist = UtilHistogram()
    counters = Counters()
    cycles = 0
    products = 0

    a_col_nnz = a.sum(axis=0)
    for k in range(16):
        na = int(a_col_nnz[k])
        b_cols = np.flatnonzero(b[k])
        if na == 0 or b_cols.size == 0:
            continue
        counters.add("meta_reads", 2)
        counters.add("a_elem_reads", na)
        counters.add("a_net_transfers", na)
        counters.add("b_elem_reads", int(b_cols.size))
        counters.add("b_net_transfers", int(b_cols.size))
        for cb in chunks(int(b_cols.size), stc.chunk_cols):
            # Only the na rows holding a nonzero at K do useful work,
            # but the full 16-row group is occupied (no bypass).
            eff = na * cb
            cycles += 1
            products += eff
            hist.record(eff / stc.macs)
            counters.add("mac_ops", eff)
            counters.add("c_elem_writes", eff)
            counters.add("c_net_transfers", eff)
            counters.add("accum_accesses", eff)

    if cycles == 0:
        hist.record(0.0)
        cycles = 1
    counters.add("lane_cycles", stc.macs * cycles)
    counters.add("sched_cycles", cycles)
    return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)


def nv_dtc_block(stc: NvDTC, task: T1Task) -> BlockResult:
    """NV-DTC: every unskipped T2 region runs its full dense T3 grid."""
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
                for m3 in range(ceil_div(t2_m, stc.t3_m)):
                    for n3 in range(ceil_div(b_region.shape[1], T3_N)):
                        a_sub = a_region[m3 * stc.t3_m : (m3 + 1) * stc.t3_m]
                        b_sub = b_region[:, n3 * T3_N : (n3 + 1) * T3_N]
                        eff = int((a_sub.sum(axis=0) * b_sub.sum(axis=1)).sum())
                        cycles += 1
                        products += eff
                        hist.record(eff / stc.macs)
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
    counters.add("lane_cycles", stc.macs * cycles)
    counters.add("sched_cycles", cycles)
    counters.add("meta_reads", 1)
    return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)


def nv_dtc_sparse_block(stc: NvDTCSparse, task: T1Task) -> BlockResult:
    """NV-DTC's 2:4 mode: a 2:4 A block halves every task's K extent."""
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
                for m3 in range(ceil_div(t2_m, stc.t3_m)):
                    for n3 in range(ceil_div(b_region.shape[1], T3_N)):
                        a_sub = a_region[m3 * stc.t3_m : (m3 + 1) * stc.t3_m]
                        b_sub = b_region[:, n3 * T3_N : (n3 + 1) * T3_N]
                        eff = int((a_sub.sum(axis=0) * b_sub.sum(axis=1)).sum())
                        cycles += 1
                        products += eff
                        hist.record(min(1.0, eff / stc.macs))
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
    counters.add("lane_cycles", stc.macs * cycles)
    counters.add("sched_cycles", cycles)
    counters.add("meta_reads", 2 if structured else 1)
    return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)


def rm_stc_block(stc: RmSTC, task: T1Task) -> BlockResult:
    """RM-STC: per-row scalar pairs on row lanes, greedy longest-row issue."""
    a, b = operand_arrays(task)
    hist = UtilHistogram()
    counters = Counters()
    k_pair = 2

    # Per row: gather its nonzero scalars, pair them, and for each
    # pair count the 4-column chunks of the merged B rows.  Each
    # (pair, chunk) combination is one lane-slot of work.
    slot_products: List[List[int]] = []   # per row, products per slot
    slot_writes: List[List[int]] = []
    total_products = 0
    used_ks: set = set()
    for i in range(16):
        ks = np.flatnonzero(a[i])
        if ks.size == 0:
            continue
        counters.add("a_elem_reads", int(ks.size))
        counters.add("a_net_transfers", int(ks.size))
        counters.add("meta_reads", 1)
        row_slots_p: List[int] = []
        row_slots_w: List[int] = []
        for p in range(0, ks.size, k_pair):
            pair = ks[p : p + k_pair]
            merged = b[pair]                      # (<=2, N)
            live = np.flatnonzero(merged.any(axis=0))
            if live.size == 0:
                continue
            used_ks.update(int(k) for k in pair)
            per_col = merged[:, live].sum(axis=0)  # matched products/col
            for c0 in range(0, live.size, stc.chunk_cols):
                seg = per_col[c0 : c0 + stc.chunk_cols]
                eff = int(seg.sum())
                row_slots_p.append(eff)
                row_slots_w.append(int(np.count_nonzero(seg)))
                total_products += eff
        if row_slots_p:
            slot_products.append(row_slots_p)
            slot_writes.append(row_slots_w)
    # B rows are fetched once per block into the shared row-merge
    # buffer and broadcast to the lanes that need them.
    b_traffic = int(sum(b[k].sum() for k in used_ks))
    counters.add("b_elem_reads", b_traffic)
    counters.add("b_net_transfers", b_traffic)

    if not slot_products:
        hist.record(0.0)
        counters.add("lane_cycles", stc.macs)
        counters.add("sched_cycles", 1)
        return BlockResult(cycles=1, products=0, util_hist=hist, counters=counters)

    # Schedule rows onto the lane array: longest-row first onto the
    # least-loaded lane (the hardware's greedy issue), then the
    # block finishes with the fullest lane.
    lane_loads = [0] * stc.lanes
    lane_queues: List[List[int]] = [[] for _ in range(stc.lanes)]
    order = sorted(range(len(slot_products)), key=lambda r: -len(slot_products[r]))
    for r in order:
        lane = lane_loads.index(min(lane_loads))
        lane_queues[lane].extend(slot_products[r])
        lane_loads[lane] += len(slot_products[r])
        counters.add("c_elem_writes", sum(slot_writes[r]))
        counters.add("c_net_transfers", sum(slot_writes[r]))
        counters.add("accum_accesses", sum(slot_writes[r]))
    cycles = max(lane_loads)
    for c in range(cycles):
        eff = sum(queue[c] for queue in lane_queues if c < len(queue))
        hist.record(eff / stc.macs)

    counters.add("mac_ops", total_products)
    counters.add("lane_cycles", stc.macs * cycles)
    counters.add("sched_cycles", cycles)
    return BlockResult(
        cycles=cycles, products=total_products, util_hist=hist, counters=counters
    )


def sigma_block(stc: Sigma, task: T1Task) -> BlockResult:
    """SIGMA: one A row against a group of live B columns per cycle."""
    a, b = operand_arrays(task)
    hist = UtilHistogram()
    counters = Counters()
    cycles = 0
    products = 0

    # Software can restrict work to B's nonzero columns, but within a
    # column group delivery is dense (single-sided sparsity).
    live_cols = np.flatnonzero(b.any(axis=0))
    match = a.astype(np.int64) @ b.astype(np.int64)  # (16, N) effective products
    for i in range(16):
        row_nnz = int(a[i].sum())
        if row_nnz == 0 or live_cols.size == 0:
            continue
        counters.add("meta_reads", 1)
        counters.add("a_elem_reads", row_nnz)
        counters.add("a_net_transfers", row_nnz)
        for ci in range(ceil_div(int(live_cols.size), stc.chunk_cols)):
            cols = live_cols[ci * stc.chunk_cols : (ci + 1) * stc.chunk_cols]
            eff = int(match[i, cols].sum())
            if eff == 0:
                continue  # flexible interconnect skips an empty group
            cycles += 1
            products += eff
            hist.record(eff / stc.macs)
            counters.add("mac_ops", eff)
            counters.add("b_elem_reads", int(b[:, cols].sum()))
            counters.add("b_net_transfers", int(b[:, cols].sum()))
            writes = int(np.count_nonzero(match[i, cols]))
            counters.add("c_elem_writes", writes)
            counters.add("c_net_transfers", writes)
            counters.add("accum_accesses", writes)

    if cycles == 0:
        hist.record(0.0)
        cycles = 1
    counters.add("lane_cycles", stc.macs * cycles)
    counters.add("sched_cycles", cycles)
    return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)


def trapezoid_block(stc: Trapezoid, task: T1Task) -> BlockResult:
    """Trapezoid: one row lane per block row, K pairs per lane step."""
    a, b = operand_arrays(task)
    hist = UtilHistogram()
    counters = Counters()

    row_cycles: List[int] = []
    row_work: List[int] = []
    total_products = 0
    for i in range(16):
        ks = np.flatnonzero(a[i])
        if ks.size == 0:
            continue
        counters.add("a_elem_reads", int(ks.size))
        counters.add("a_net_transfers", int(ks.size))
        work = 0
        slots = 0
        for p in range(0, ks.size, stc.k_per_step):
            pair = ks[p : p + stc.k_per_step]
            merged = b[pair]
            live = int(merged.any(axis=0).sum())
            if live == 0:
                continue
            counters.add("b_elem_reads", int(merged.sum()))
            counters.add("b_net_transfers", int(merged.sum()))
            work += int(merged.sum(axis=0)[merged.any(axis=0)].sum())
            slots += ceil_div(live * stc.k_per_step, stc.lane_macs)
            writes = live
            counters.add("c_elem_writes", writes)
            counters.add("c_net_transfers", writes)
            counters.add("accum_accesses", writes)
        if slots == 0:
            continue
        cycles_i = max(ceil_div(work, stc.lane_macs), slots)
        row_cycles.append(cycles_i)
        row_work.append(work)
        total_products += work

    if not row_cycles:
        hist.record(0.0)
        counters.add("lane_cycles", stc.macs)
        counters.add("sched_cycles", 1)
        return BlockResult(cycles=1, products=0, util_hist=hist, counters=counters)

    cycles = max(row_cycles)
    for c in range(cycles):
        eff = sum(w / rc for w, rc in zip(row_work, row_cycles) if c < rc)
        hist.record(min(1.0, eff / stc.macs))

    counters.add("mac_ops", total_products)
    counters.add("lane_cycles", stc.macs * cycles)
    counters.add("sched_cycles", cycles)
    counters.add("meta_reads", 2)
    return BlockResult(
        cycles=cycles, products=total_products, util_hist=hist, counters=counters
    )


#: The stepped walk of each registered model class.
STEPPED = {
    UniSTC: uni_stc_block,
    DsSTC: ds_stc_block,
    Gamma: gamma_block,
    NvDTC: nv_dtc_block,
    NvDTCSparse: nv_dtc_sparse_block,
    RmSTC: rm_stc_block,
    Sigma: sigma_block,
    Trapezoid: trapezoid_block,
}


def stepped_block(stc, task: T1Task) -> BlockResult:
    """The stepped oracle's result of ``task`` on the configured ``stc``."""
    return STEPPED[type(stc)](stc, task)


def simulate_block(stc, task: T1Task) -> BlockResult:
    """:func:`stepped_block`, after asserting its row is the production row.

    The production row is ``stc.simulate_blocks`` of a one-entry batch,
    so a test pinning the oracle's numbers pins the code that runs too.
    """
    result = stepped_block(stc, task)
    (row,) = stc.simulate_blocks(task_batch(task, [1]))
    assert np.array_equal(row, result.row()), (stc.name, row, result.row())
    return result
