"""Batched + analytic evaluation of Uni-STC block tasks.

:func:`simulate_blocks` evaluates a whole batch of distinct T1 pattern
pairs in one pass of numpy array ops — the cold-path complement to the
engine's warm-path memoisation.  Per batch it

1. decodes each distinct packed pattern once
   (:func:`~repro.arch.batch.evaluate_packed`): its tiles and per-tile
   column / row counts, its row or column masks and its nonzero tiles;
2. computes every block's T3 product counts with one batched matmul
   (:func:`~repro.arch.tms.tile_products_batch`) and lists the tasks
   in dispatch order by walking a transposed view of them
   (:func:`_dispatch_tasks`);
3. resolves **regular pattern classes analytically** — empty blocks,
   uniform-product schedules (dense tiles, the SpMM all-ones B panels)
   and DPG-bound streams — with closed-form array accounting of
   cycles, the utilisation histogram and every energy action counter;
4. re-packs every MAC-bound non-uniform block greedily in **one
   lockstep pass** (:func:`_pack_lockstep`);
5. replays the exact dispatch of streams whose windows carry an
   output-tile conflict (round-robin arbitration reshuffles the
   schedule; :func:`_dispatch_conflicted`), and falls back to
   :meth:`UniSTC.simulate_block` stepping only for an over-budget T3
   task or an unknown ordering (the stepped path raises).

The accounting replicates the TMS dispatch rules exactly — window
packing under the MAC/DPG budgets, wakeup-stall exposure, the
per-cycle tile-fetch delta against the previous cycle's working set —
so every row equals the stepped path's
:meth:`~repro.arch.base.BlockResult.row`; ``tests/test_fastpath.py``
asserts this row for row.  DPG totals are sums of entries of one
65,536-entry packed table (:func:`_dpg_totals`), and the C-output
count is ``count_nonzero(A row masks & B column masks)``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import List, Tuple

import numpy as np

from repro.arch.base import VECTOR_WIDTH
from repro.arch.batch import (decode_a_operands, decode_b_operands, evaluate_packed,
                               result_rows, util_bins)
from repro.arch.tasks import T1Task
from repro.arch.tms import ORDERINGS, tile_products_batch
from repro.errors import SimulationError
from repro.formats.bbc import pattern_col_masks, pattern_row_masks
from repro.formats.bitarray import popcount16


def _decode_a(a_patterns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """A patterns, tiles, tile column counts, row masks and nonzero tiles."""
    tiles, cols = decode_a_operands(a_patterns)
    return (a_patterns, tiles, cols, pattern_row_masks(a_patterns),
            np.count_nonzero(a_patterns, axis=1))


def _decode_b(b_patterns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """B patterns, tiles, tile row counts, column masks and nonzero tiles."""
    tiles, rows = decode_b_operands(b_patterns)
    return (b_patterns, tiles, rows, pattern_col_masks(b_patterns),
            np.count_nonzero(tiles, axis=(1, 2)))


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
    pop = popcount16().astype(np.uint32)
    rows = [(x >> (4 * kk)) & 0xF for kk in range(4)]
    cols = pop[rows[0] | rows[1] | rows[2] | rows[3]]
    pairs = sum(((r & 0x3) != 0).astype(np.int64) + ((r & 0xC) != 0)
                for r in rows)
    stats = (cols | (pairs << _A_FETCH_SHIFT) | (pop << _POP_SHIFT)).astype(np.uint32)
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


#: Axes of ``[N, k, i, j]`` products each ordering walks in C order.
_ORDER_AXES = {"outer": (0, 1, 2, 3), "dot": (0, 2, 3, 1), "rowrow": (0, 2, 1, 3)}
#: Sums the four bytes of a uint32 into its top byte.
_BYTE_SUM = np.uint32(0x01010101)


def _dispatch_tasks(
    ordering: str, adaptive: bool, products: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Flat ``(bb, kk, ii, jj, pp)`` arrays of every T3 task, in TMS dispatch order.

    ``products`` is ``[N, k, i, j]``; a task is a nonzero entry, and
    each ordering walks a transposed view of it in C order: outer is
    ``(block, k, i, j)``, with the adaptive switch transposing every
    layer holding more live rows than live columns to ``(j, i)`` (a
    no-op on a vector B's one-column layers); dot is ``(block, i, j,
    k)`` and row-row ``(block, i, k, j)``.  Mirrors
    :meth:`TileMultiplyScheduler.order_tasks`.
    """
    axes = _ORDER_AXES[ordering]
    view = products.transpose(axes)
    flip = None
    if ordering == "outer" and adaptive and products.shape[3] > 1:
        # A layer row's four live flags as one uint32, byte j each.
        live = (products > 0).view(np.uint32)[..., 0]            # [N, k, i]
        rows = ((live != 0).view(np.uint32)[..., 0] * _BYTE_SUM) >> 24
        cols = ((live[:, :, 0] | live[:, :, 1] | live[:, :, 2] | live[:, :, 3])
                * _BYTE_SUM) >> 24
        flip = rows > cols
        if flip.any():
            view = np.where(flip[:, :, None, None], products.swapaxes(2, 3), products)
        else:
            flip = None
    view = np.ascontiguousarray(view)
    flat = np.flatnonzero(view)
    walked = np.unravel_index(flat, view.shape)
    bb, kk, ii, jj = (walked[axes.index(axis)] for axis in range(4))
    if flip is not None:
        flipped = flip[bb, kk]
        ii, jj = np.where(flipped, jj, ii), np.where(flipped, ii, jj)
    return bb, kk, ii, jj, view.reshape(-1)[flat]


def _dispatch_conflicted(
    p: List[int], bits: List[int], lens: List[int], num_dpgs: int, macs: int
) -> Tuple[List[int], List[int]]:
    """Cycle ids of conflicted blocks' ordered task streams.

    The streams lie back to back (block ``q`` has ``lens[q]`` tasks of
    ``p`` products and one-hot output tile ``bits``).  Replays
    :meth:`TileMultiplyScheduler.dispatch` exactly — including
    round-robin conflict skips that re-queue tasks at the front — but
    records only the task → cycle assignment, returning every task's
    cycle id within its block and each block's cycle count.  Every
    per-cycle statistic the model consumes (products, task count, tile
    working sets, wakeup events) is a function of cycle *membership*,
    not of intra-cycle order, so this is all the downstream array
    accounting needs.
    """
    cyc = [0] * len(p)
    counts = []
    hi = 0
    for total in lens:
        lo, hi = hi, hi + total
        # The queue lives reversed in a plain list: the *end* is the
        # front, so popleft is pop() and appendleft is append() — no
        # deque needed, and the 16 possible output tiles fit one int
        # as a "used" bitmask.
        pending = list(range(hi - 1, lo - 1, -1))
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
                bit = bits[t]
                if used & bit:
                    skipped.append(t)
                    if len(skipped) >= num_dpgs:
                        break
                    continue
                cyc[t] = cycle
                used |= bit
                chosen += 1
                products += p[t]
            pending.extend(reversed(skipped))
            if not chosen:
                raise SimulationError("dispatch made no progress; scheduler bug")
            cycle += 1
        counts.append(cycle)
    return cyc, counts


def _stream_positions(offsets: np.ndarray, blocks: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat positions of the tasks of ``blocks`` (``lens`` each), back to back."""
    ends = np.cumsum(lens)
    return np.repeat(offsets[blocks] - (ends - lens), lens) + np.arange(int(ends[-1]))


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


def simulate_blocks(stc, batch) -> np.ndarray:
    """Batched block evaluation for a :class:`~repro.arch.unistc.UniSTC`.

    Row ``i`` of the ``[N, VECTOR_WIDTH]`` int64 result equals the
    stepped ``stc.simulate_block`` row of task entry ``i`` of ``batch``
    exactly; only the evaluation strategy differs.
    """
    return evaluate_packed(batch, _decode_a, _decode_b, partial(_evaluate_group, stc))


def _evaluate_group(stc, a_patterns, a_tiles, a_cols, a_rows, a_live_tiles,
                    b_patterns, b_tiles, b_rows, b_cols, b_live_tiles) -> np.ndarray:
    """Evaluate one chunk of pattern pairs, decoded by :func:`_decode_a` /
    :func:`_decode_b`, into result rows."""
    cfg = stc.config
    count = len(a_patterns)
    n_cols = b_tiles.shape[2]

    def stepped(q: int) -> np.ndarray:
        task = T1Task(a_patterns[q].tobytes(), b_patterns[q].tobytes(),
                      n=b_patterns.shape[1])
        return stc.simulate_block(task).row()

    products = tile_products_batch(a_cols, b_rows)  # [p, k, i, j]
    totals = products.sum(axis=(1, 2, 3))
    meta = 2 + a_live_tiles + b_live_tiles

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
            rows[q] = stepped(q)
        return rows

    # -- flat task arrays in dispatch order -----------------------------
    bb, kk, ii, jj, pp = _dispatch_tasks(
        stc.ordering, cfg.adaptive_ordering, products[ne])

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
        needs_pack = np.flatnonzero(
            (np.bincount(block_of_cycle[over], minlength=nblocks) > 0) & ~fallback)
        if needs_pack.size:
            lens = tasks_per_block[needs_pack]
            task_pos = _stream_positions(offsets, needs_pack, lens)
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
        clashes = np.bincount(gcyc * 16 + ii * 4 + jj,
                              minlength=16 * int(cyc_off[-1])) > 1
        dup_cycles = np.flatnonzero(clashes) >> 4
        if dup_cycles.size:
            # The clash's block follows from its global cycle id.
            dup_blocks = np.searchsorted(cyc_off, dup_cycles, side="right") - 1
            conflicted = np.zeros(nblocks, dtype=bool)
            conflicted[dup_blocks] = True
            conflicted &= ~fallback
            if conflicted.any():
                replay = np.flatnonzero(conflicted)
                lens = tasks_per_block[replay]
                task_pos = _stream_positions(offsets, replay, lens)
                cyc[task_pos], ncyc[replay] = _dispatch_conflicted(
                    pp[task_pos].tolist(),
                    (1 << (ii[task_pos] * 4 + jj[task_pos])).tolist(),
                    lens.tolist(), nd, macs,
                )
                cyc_off = np.concatenate(([0], np.cumsum(ncyc)))
                gcyc = cyc_off[bb] + cyc

    fast = np.nonzero(~fallback)[0]
    if fast.size < nblocks:
        for q in np.nonzero(fallback)[0]:
            rows[ne[q]] = stepped(int(ne[q]))
        if fast.size == 0:
            return rows
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
    task_block = fast_global[bb]
    t4, a_fetch, b_fetch = _dpg_totals(
        a_tiles.reshape(-1)[task_block * 16 + ii * 4 + kk],
        b_tiles.reshape(-1)[(task_block * 4 + kk) * n_cols + jj],
        n_cols, np.cumsum(tasks_per_block) - tasks_per_block,
    )

    # C element (i, j) is written iff A row i meets B column j.
    c_outputs = np.count_nonzero(
        a_rows[fast_global][:, :, None] & b_cols[fast_global][:, None, :],
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
