"""Batched + analytic evaluation of Uni-STC block tasks.

:func:`simulate_blocks` evaluates a whole batch of distinct T1 bitmap
pairs in one pass of numpy array ops — the cold-path complement to the
engine's warm-path memoisation.  Per batch it

1. takes the operand bitmaps stacked by
   :func:`~repro.arch.batch.evaluate_stacked` (``[N, 16, 16]`` /
   ``[N, 16, n]``) and decodes the level-1/level-2 views of *every*
   block at once (:func:`decode_a_operands` / :func:`decode_b_operands`);
2. computes every block's T3 product counts with one batched einsum
   (:func:`~repro.arch.tms.tile_products_batch`);
3. resolves **regular pattern classes analytically** — empty blocks,
   uniform-product schedules (dense tiles, the SpMM all-ones B panels)
   and DPG-bound streams — computing cycles, the utilisation histogram
   and every energy action counter with closed-form array accounting
   instead of stepping the TMS cycle by cycle;
4. re-packs every MAC-bound non-uniform block greedily in **one
   lockstep pass** (:func:`_pack_lockstep`): one ``searchsorted`` over
   a cumulative-products array gives the end of a cycle starting at
   any task, and all such blocks then advance one dispatch cycle per
   array step, so no Python loop runs per block;
5. replays the exact dispatch, per block, of streams whose windows
   carry an output-tile conflict (round-robin arbitration reshuffles
   the schedule; :func:`_dispatch_conflicted`), and falls back to
   :meth:`UniSTC.simulate_block` stepping only for an over-budget T3
   task or an unknown ordering (the stepped path raises).

The analytic accounting replicates the TMS dispatch rules exactly —
window packing under the MAC/DPG budgets, wakeup-stall exposure, the
per-cycle tile-fetch delta against the previous cycle's working set —
so every row equals the stepped path's
:meth:`~repro.arch.base.BlockResult.row`.  The parity suite
(``tests/test_fastpath.py``) asserts this row for row on every
kernel's block population.

DPG decomposition never steps either.  Each T3 task's
:func:`~repro.arch.dpg.dpg_stats` follow from 4-bit masks: an A row
``m`` selects the B rows it meets, and every per-row count (T4 tasks,
A fetches) and the B fetches are entries of one 65,536-entry packed
table (:func:`_dpg_tables`), summed per block in the integer domain
(:func:`_dpg_totals`).  Both broadcast counts equal the block's
products, and C writes its T4 count.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.base import VECTOR_WIDTH
from repro.arch.batch import evaluate_stacked, result_rows, util_bins
from repro.arch.tasks import T1Task
from repro.arch.tms import ORDERINGS, tile_products_batch
from repro.errors import SimulationError
from repro.formats.bitarray import popcount_array


_EJ_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.int64)
_EI_SHIFT = (4 * np.arange(4, dtype=np.int64))[None, None, :, None]


def _tile_bitmaps_16x16(bitmaps: np.ndarray) -> np.ndarray:
    """Pack a ``[N, 16, 16]`` 0/1 stack into ``[N, 4, 4]`` tile bitmaps.

    Tile weight layout is ``1 << (4 * ei + ej)``.  Works on the
    operands' native contiguous layout: one matmul packs each tile row
    (the ``ej`` bits), then a shift-sum folds the four rows — cheaper
    than a tensordot over the strided ``[N, 4, 4, 4, 4]`` tile view.
    """
    n = bitmaps.shape[0]
    rowvals = bitmaps.view(np.uint8).reshape(n, 16, 4, 4) @ _EJ_WEIGHTS
    return (rowvals.reshape(n, 4, 4, 4) << _EI_SHIFT).sum(axis=2)


def decode_a_operands(a_bitmaps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`~repro.arch.unistc.decode_a_operand` over ``[N, 16, 16]``.

    Returns ``(tile_bitmaps, col_counts)`` with leading batch axes:
    ``tile_bitmaps[p, i, k]`` and ``col_counts[p, i, k, kk]``.
    """
    # [p, ti, ei, tj, ej]: sum over ei gives per-tile column counts.
    col_counts = a_bitmaps.reshape(-1, 4, 4, 4, 4).sum(axis=2, dtype=np.int64)
    return _tile_bitmaps_16x16(a_bitmaps), col_counts


def decode_b_operands(
    b_bitmaps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Batched :func:`~repro.arch.unistc.decode_b_operand` over ``[N, 16, n]``."""
    if b_bitmaps.shape[1:] == (16, 16):
        # [p, tk, ei, tj, ej]: sum over ej, then put ei last.
        row_counts = (
            b_bitmaps.reshape(-1, 4, 4, 4, 4)
            .sum(axis=4, dtype=np.int64)
            .transpose(0, 1, 3, 2)                            # [p, tk, tj, ei]
        )
        return _tile_bitmaps_16x16(b_bitmaps), row_counts, 4
    if b_bitmaps.shape[1:] == (16, 1):
        segs = b_bitmaps[:, :, 0].reshape(-1, 4, 4)           # [p, tk, ei]
        row_counts = segs.astype(np.int64)[:, :, None, :]     # [p, tk, 1, ei]
        weights = 1 << np.arange(4, dtype=np.int64)
        tile_bitmaps = (segs * weights).sum(axis=2)[:, :, None]
        return tile_bitmaps, row_counts, 1
    raise SimulationError(
        f"unsupported B operand shape {b_bitmaps.shape[1:]}"
    )


#: Field offsets of a packed :func:`_dpg_tables` entry.  A block has at
#: most 64 T3 tasks of four rows, so its T4 count (<= 1024) fits below
#: bit 11 and its A fetches (<= 2048) below bit 23, the popcount
#: above: per-block int64 sums never carry from one field into the next.
_A_FETCH_SHIFT = 11
_POP_SHIFT = 23


@lru_cache(maxsize=None)
def _dpg_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DPG lookup tables (260 KiB), built on first use.

    - ``stats[x]`` (uint32) packs three counts of a 4x4 tile bitmap
      ``x`` (bit ``4 * kk + n``): its nonzero columns, its nonzero rows
      within columns 0-1 plus those within columns 2-3, and its
      popcount (at :data:`_A_FETCH_SHIFT` / :data:`_POP_SHIFT`).
    - ``rowsel_lo[h]`` / ``rowsel_hi[h]`` (uint64) map one byte of an A
      tile bitmap, i.e. two 4-bit A rows, to ``rowselect`` of each row
      in the 16-bit lanes 0-1 / 2-3.  ``rowselect(r)`` keeps the B rows
      ``kk`` set in ``r``.
    """
    x = np.arange(1 << 16, dtype=np.uint32)
    rows = [(x >> (4 * kk)) & 0xF for kk in range(4)]
    cols = popcount_array(rows[0] | rows[1] | rows[2] | rows[3])
    pairs = sum(((r & 0x3) != 0).astype(np.int64) + ((r & 0xC) != 0)
                for r in rows)
    stats = (cols | (pairs << _A_FETCH_SHIFT)
             | (popcount_array(x) << _POP_SHIFT)).astype(np.uint32)
    rowsel = [sum(0xF << (4 * kk) for kk in range(4) if r >> kk & 1)
              for r in range(16)]
    rowsel_lo = np.array([rowsel[h & 0xF] | rowsel[h >> 4] << 16
                          for h in range(256)], dtype=np.uint64)
    tables = (stats, rowsel_lo, rowsel_lo << np.uint64(32))
    for table in tables:
        table.setflags(write=False)
    return tables


def _dpg_totals(
    a_tile_bitmaps: np.ndarray,
    b_tile_bitmaps: np.ndarray,
    n_cols: int,
    starts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block :func:`~repro.arch.dpg.dpg_stats` totals from lookup tables.

    The flat task arrays hold every T3 task's tile bitmaps, grouped by
    block (block ``q``'s tasks start at ``starts[q]``).  Returns each
    block's ``(t4_tasks, a_elem_fetches, b_elem_fetches)``;
    ``c_writes`` equals ``t4_tasks`` and both broadcast counts equal
    the block's products.

    Dot pattern ``pattern[m][n]`` is column ``n`` of ``X_m = B &
    rowselect(A row m)``.  A row ``m`` therefore adds the nonzero
    columns of ``X_m`` as T4 tasks, and as A fetches the rows of
    ``X_m`` live in each column-pair group (an operand element is
    fetched once per group that uses it).  B fetches are
    ``popcount(B & rowselect(union of A's rows))``, the popcount of the
    four ``X_m`` ORed.  No union depends on the queue-fill order, so
    ``z`` and ``n`` fills share the totals.  A vector B
    (``n_cols == 1``) is column 0 of a 4x4 tile.
    """
    stats, rowsel_lo, rowsel_hi = _dpg_tables()
    a, b = a_tile_bitmaps, b_tile_bitmaps.astype(np.uint64)
    if n_cols == 1:
        b = (b & 1) | ((b & 2) << 3) | ((b & 4) << 6) | ((b & 8) << 9)
    # Lane m of x is X_m: B replicated into four 16-bit lanes, masked.
    x = b * np.uint64(0x0001000100010001)
    x &= rowsel_lo[a & 0xFF] | rowsel_hi[a >> 8]
    row_stats = np.add.reduceat(stats[x.view(np.uint16)], 4 * starts,
                                dtype=np.int64)
    x |= x >> np.uint64(32)
    x |= x >> np.uint64(16)
    b_fetch = np.add.reduceat(stats[x.astype(np.uint16)], starts,
                              dtype=np.int64) >> _POP_SHIFT
    t4 = row_stats & ((1 << _A_FETCH_SHIFT) - 1)
    a_fetch = (row_stats & ((1 << _POP_SHIFT) - 1)) >> _A_FETCH_SHIFT
    return t4, a_fetch, b_fetch


def _dispatch_order(
    ordering: str,
    adaptive: bool,
    bb: np.ndarray,
    kk: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    nblocks: int,
) -> Optional[np.ndarray]:
    """Permutation putting the flat task arrays into TMS dispatch order.

    ``None`` means the arrays are already ordered (``np.nonzero``'s
    C-order *is* the outer, non-flipped ``(block, k, i, j)`` order).
    Mirrors :meth:`TileMultiplyScheduler.order_tasks` including the
    adaptive intra-layer row-/column-major switch.
    """
    if ordering == "outer":
        if not adaptive:
            return None
        lay = bb * 4 + kk
        rows_present = np.zeros((nblocks * 4, 4), dtype=bool)
        cols_present = np.zeros((nblocks * 4, 4), dtype=bool)
        rows_present[lay, ii] = True
        cols_present[lay, jj] = True
        flip = rows_present.sum(axis=1) > cols_present.sum(axis=1)
        if not flip.any():
            return None
        intra = np.where(flip[lay], jj * 4 + ii, ii * 4 + jj)
        return np.lexsort((intra, lay))
    if ordering == "dot":
        return np.lexsort((kk, jj, ii, bb))
    return np.lexsort((jj, kk, ii, bb))  # rowrow


def _dispatch_conflicted(
    p: List[int], out_tile: List[int], num_dpgs: int, macs: int
) -> Tuple[List[int], int]:
    """Cycle ids of one conflicted block's ordered task stream.

    Replays :meth:`TileMultiplyScheduler.dispatch` exactly — including
    round-robin conflict skips that re-queue tasks at the front — but
    records only the task → cycle assignment.  Every per-cycle statistic
    the model consumes (products, task count, tile working sets, wakeup
    events) is a function of cycle *membership*, not of intra-cycle
    order, so this is all the downstream array accounting needs.
    """
    total = len(p)
    cyc = [0] * total
    # The queue lives reversed in a plain list: the *end* is the front,
    # so popleft is pop() and appendleft is append() — no deque needed,
    # and the 16 possible output tiles fit one int as a "used" bitmask.
    pending = list(range(total - 1, -1, -1))
    cycle = 0
    while pending:
        chosen = 0
        used = 0
        skipped: List[int] = []
        products = 0
        while pending and chosen < num_dpgs:
            t = pending.pop()
            if products + p[t] > macs:
                pending.append(t)
                break
            bit = 1 << out_tile[t]
            if used & bit:
                skipped.append(t)
                if len(skipped) >= num_dpgs:
                    break
                continue
            cyc[t] = cycle
            used |= bit
            chosen += 1
            products += p[t]
        for t in reversed(skipped):
            pending.append(t)
        if not chosen:
            raise SimulationError("dispatch made no progress; scheduler bug")
        cycle += 1
    return cyc, cycle


def _pack_lockstep(
    p: np.ndarray, lens: np.ndarray, num_dpgs: int, macs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cycle ids of several blocks' ordered task streams under the MAC budget.

    The exact greedy rule of :meth:`TileMultiplyScheduler.dispatch` for
    conflict-free streams: fill up to ``num_dpgs`` tasks per cycle, and
    a task that would push the cycle past ``macs`` products starts the
    next cycle.  ``p`` holds the blocks' streams back to back (block
    ``q`` has ``lens[q]`` tasks); returns each task's cycle id within
    its block and each block's cycle count.  Every task must satisfy
    ``p <= macs`` (callers route over-budget blocks to the stepped
    path, which raises).

    One ``searchsorted`` over a cumulative-products array finds, for
    every task, where a cycle starting at it ends; a sentinel of
    ``macs + 1`` products after each block never fits, so no cycle
    crosses a block end.  Every block then advances one dispatch cycle
    per lockstep step, marking its cycle starts.
    """
    slots = lens + 1
    start = np.cumsum(slots) - slots
    size = int(start[-1] + slots[-1])
    stream = np.full(size, macs + 1, dtype=np.int64)
    is_task = np.ones(size, dtype=bool)
    is_task[start + lens] = False
    stream[is_task] = p
    cum = np.cumsum(stream)
    nxt = np.minimum(np.searchsorted(cum, cum - stream + macs, side="right"),
                     np.arange(num_dpgs, size + num_dpgs))
    first = np.zeros(size, dtype=bool)
    pos = start
    for _ in range(int(lens.max())):  # a block has at most one cycle per task
        first[pos] = True
        pos = nxt[pos]
        pos = pos[is_task[pos]]
        if not pos.size:
            break
    else:
        raise SimulationError("lockstep packing made no progress; scheduler bug")
    cycle = np.cumsum(first) - 1
    first_cycle = cycle[start]
    return (cycle[is_task] - np.repeat(first_cycle, lens),
            cycle[start + lens] - first_cycle + 1)


def simulate_blocks(stc, tasks: Sequence[T1Task]) -> np.ndarray:
    """Batched block evaluation for a :class:`~repro.arch.unistc.UniSTC`.

    Row ``i`` of the ``[N, VECTOR_WIDTH]`` int64 result equals
    ``stc.simulate_block(tasks[i]).row()`` exactly; only the evaluation
    strategy differs.
    """
    return evaluate_stacked(tasks, partial(_evaluate_group, stc))


def _evaluate_group(
    stc, a_stack: np.ndarray, b_stack: np.ndarray, tasks: List[T1Task]
) -> np.ndarray:
    """Evaluate one uniform-B-width stack of tasks into result rows."""
    cfg = stc.config
    count = len(tasks)
    a_tiles, a_cols = decode_a_operands(a_stack)
    b_tiles, b_rows, n_cols = decode_b_operands(b_stack)
    products = tile_products_batch(a_cols, b_rows)  # [p, k, i, j]
    totals = products.sum(axis=(1, 2, 3))
    meta = (2 + (a_tiles != 0).sum(axis=(1, 2))
            + (b_tiles != 0).sum(axis=(1, 2)))

    # A zero-product block (Fig. 20's sparse regime) retires in one
    # cycle of metadata processing.
    empty = totals == 0
    ones = np.ones(int(empty.sum()), dtype=np.int64)
    rows = np.empty((count, VECTOR_WIDTH), dtype=np.int64)
    rows[empty] = result_rows(ones, 0, [1, 0, 0, 0], {
        "meta_reads": meta[empty],
        "sched_cycles": 1,
        "lane_cycles": cfg.macs,
        "dpg_gated_cycles": cfg.num_dpgs if cfg.dynamic_gating else 0,
        "dpg_active_cycles": 0 if cfg.dynamic_gating else cfg.num_dpgs,
    })

    ne = np.nonzero(~empty)[0]
    if ne.size == 0:
        return rows
    if stc.ordering not in ORDERINGS:
        # Stepping raises the canonical unknown-ordering error.
        for q in ne:
            rows[q] = stc.simulate_block(tasks[q]).row()
        return rows

    # -- flat task arrays in dispatch order -----------------------------
    sub = products[ne]
    bb, kk, ii, jj = np.nonzero(sub)
    pp = sub[bb, kk, ii, jj]
    order = _dispatch_order(
        stc.ordering, cfg.adaptive_ordering, bb, kk, ii, jj, int(ne.size)
    )
    if order is not None:
        bb, kk, ii, jj, pp = bb[order], kk[order], ii[order], jj[order], pp[order]

    nblocks = int(ne.size)
    tasks_per_block = np.bincount(bb, minlength=nblocks)
    offsets = np.concatenate(([0], np.cumsum(tasks_per_block)))
    pos = np.arange(bb.size, dtype=np.int64) - offsets[bb]

    # -- window packing: analytic where regular -------------------------
    macs, nd = cfg.macs, cfg.num_dpgs
    pmax = np.maximum.reduceat(pp, offsets[:-1])
    pmin = np.minimum.reduceat(pp, offsets[:-1])
    fallback = pmax > macs  # stepping raises "no progress" for these
    uniform = (pmax == pmin) & ~fallback
    step = np.full(nblocks, nd, dtype=np.int64)
    step[uniform] = np.minimum(nd, macs // np.maximum(pmin[uniform], 1))
    step = np.maximum(step, 1)
    cyc = pos // step[bb]
    ncyc = (tasks_per_block + step - 1) // step

    cyc_off = np.concatenate(([0], np.cumsum(ncyc)))
    gcyc = cyc_off[bb] + cyc
    window_products = np.bincount(gcyc, weights=pp, minlength=int(cyc_off[-1]))
    over = np.nonzero(window_products > macs)[0]
    if over.size:
        # Non-uniform MAC-bound blocks: replay the exact greedy packing,
        # all of them in one lockstep pass.
        block_of_cycle = np.repeat(np.arange(nblocks), ncyc)
        needs_pack = np.unique(block_of_cycle[over])
        needs_pack = needs_pack[~fallback[needs_pack]]
        if needs_pack.size:
            lens = tasks_per_block[needs_pack]
            ends = np.cumsum(lens)
            task_pos = (np.repeat(offsets[needs_pack] - (ends - lens), lens)
                        + np.arange(int(ends[-1])))
            cyc[task_pos], ncyc[needs_pack] = _pack_lockstep(
                pp[task_pos], lens, nd, macs)
            cyc_off = np.concatenate(([0], np.cumsum(ncyc)))
            gcyc = cyc_off[bb] + cyc

    if cfg.conflict_stall:
        # A same-output-tile conflict inside any window reshuffles the
        # schedule (round-robin arbitration re-queues skipped tasks at
        # the front) — replay the exact dispatch for those blocks.
        # Downstream accounting only needs cycle membership, so the
        # replay emits task → cycle ids and the array pipeline resumes.
        key = np.sort(gcyc * 16 + ii * 4 + jj)
        dup_key = key[1:][key[1:] == key[:-1]]
        if dup_key.size:
            # The duplicate's block follows from its global cycle id.
            dup_blocks = np.searchsorted(
                cyc_off, dup_key >> 4, side="right") - 1
            conflicted = np.zeros(nblocks, dtype=bool)
            conflicted[dup_blocks] = True
            conflicted &= ~fallback
            if conflicted.any():
                p_list = pp.tolist()
                out_list = (ii * 4 + jj).tolist()
                for q in np.nonzero(conflicted)[0]:
                    lo, hi = int(offsets[q]), int(offsets[q + 1])
                    cyc[lo:hi], ncyc[q] = _dispatch_conflicted(
                        p_list[lo:hi], out_list[lo:hi], nd, macs
                    )
                cyc_off = np.concatenate(([0], np.cumsum(ncyc)))
                gcyc = cyc_off[bb] + cyc

    for q in np.nonzero(fallback)[0]:
        gi = int(ne[q])
        rows[gi] = stc.simulate_block(tasks[gi]).row()
    fast = np.nonzero(~fallback)[0]
    if fast.size == 0:
        return rows
    if fallback.any():
        live = ~fallback[bb]
        remap = np.full(nblocks, -1, dtype=np.int64)
        remap[fast] = np.arange(fast.size)
        bb, kk, ii, jj, pp, cyc = (
            arr[live] for arr in (bb, kk, ii, jj, pp, cyc)
        )
        bb = remap[bb]
        tasks_per_block = tasks_per_block[fast]
        ncyc = ncyc[fast]
        cyc_off = np.concatenate(([0], np.cumsum(ncyc)))
        gcyc = cyc_off[bb] + cyc
    nfast = int(fast.size)
    fast_global = ne[fast]

    # -- per-cycle accounting, vectorised over every fast block ---------
    ncycles = int(cyc_off[-1])
    block_of_cycle = np.repeat(np.arange(nfast), ncyc)
    cycle_products = np.bincount(
        gcyc, weights=pp, minlength=ncycles
    ).astype(np.int64)
    cycle_tasks = np.bincount(gcyc, minlength=ncycles)
    bins = np.bincount(
        block_of_cycle * 4 + util_bins(cycle_products, macs), minlength=nfast * 4
    ).reshape(nfast, 4)

    first_cycle = np.zeros(ncycles, dtype=bool)
    first_cycle[cyc_off[:-1]] = True
    prev_tasks = np.empty_like(cycle_tasks)
    prev_tasks[0] = 0
    prev_tasks[1:] = cycle_tasks[:-1]
    prev_tasks[first_cycle] = 0
    if cfg.dynamic_gating:
        exposed = max(0, cfg.dpg_wakeup_cycles - cfg.lookahead_cycles)
        stalls = exposed * np.bincount(
            block_of_cycle[cycle_tasks > prev_tasks], minlength=nfast
        )
    else:
        stalls = np.zeros(nfast, dtype=np.int64)

    # Tile fetches: per-cycle working-set delta vs the previous cycle.
    a_presence = np.zeros((ncycles, 16), dtype=bool)
    b_presence = np.zeros((ncycles, 16), dtype=bool)
    a_presence[gcyc, ii * 4 + kk] = True
    b_presence[gcyc, kk * 4 + jj] = True
    new_a = a_presence.copy()
    new_a[1:] &= ~a_presence[:-1]
    new_b = b_presence.copy()
    new_b[1:] &= ~b_presence[:-1]
    new_a[first_cycle] = a_presence[first_cycle]
    new_b[first_cycle] = b_presence[first_cycle]
    fetch_per_cycle = new_a.sum(axis=1) + new_b.sum(axis=1)
    fetches = np.bincount(
        block_of_cycle, weights=fetch_per_cycle, minlength=nfast
    ).astype(np.int64)

    # -- DPG stage: per-block totals from lookup tables, whole batch at once
    # (bb is block-sorted and every fast block has a task).
    t4, a_fetch, b_fetch = _dpg_totals(
        a_tiles[fast_global][bb, ii, kk], b_tiles[fast_global][bb, kk, jj],
        n_cols, np.cumsum(tasks_per_block) - tasks_per_block,
    )

    # float32 routes the batched matmul through BLAS; dot values are
    # bounded by the shared dim (16), so they are exact in float32.
    c_outputs = np.count_nonzero(
        a_stack[fast_global].astype(np.float32)
        @ b_stack[fast_global].astype(np.float32),
        axis=(1, 2),
    )

    # -- assembly --------------------------------------------------------
    cycles_total = ncyc + stalls
    bins[:, 0] += stalls
    if cfg.dynamic_gating:
        active = tasks_per_block
        gated = nd * ncyc - tasks_per_block + nd * stalls
    else:
        active = nd * cycles_total
        gated = 0
    block_products = totals[fast_global]
    rows[fast_global] = result_rows(cycles_total, block_products, bins, {
        "meta_reads": meta[fast_global],
        "dpg_active_cycles": active,
        "dpg_gated_cycles": gated,
        "sched_cycles": cycles_total,
        "lane_cycles": macs * cycles_total,
        "tile_fetches": fetches,
        "queue_ops": 2 * tasks_per_block + 2 * t4,
        "a_elem_reads": a_fetch,
        "b_elem_reads": b_fetch,
        "a_net_transfers": a_fetch,
        "b_net_transfers": b_fetch,
        "a_broadcasts": block_products,
        "b_broadcasts": block_products,
        "accum_accesses": t4,
        "c_elem_writes": c_outputs,
        "c_net_transfers": c_outputs,
        "mac_ops": block_products,
    })
    return rows
