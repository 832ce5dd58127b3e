"""Batched + analytic evaluation of Uni-STC block tasks.

:func:`simulate_blocks` evaluates a whole batch of distinct T1 pattern
pairs in one pass of numpy array ops — the cold-path complement to the
engine's warm-path memoisation.  Per batch it

1. decodes each distinct packed pattern once
   (:func:`~repro.arch.batch.evaluate_packed`): its tiles' column / row
   counts packed into bytes (:func:`~repro.arch.batch.count_tables`),
   the per-column counts and row-mask unions the DPG totals read, and
   its nonzero tiles;
2. multiplies the packed counts into every block's T3 product counts,
   laid out in the ordering's walk, and lists the tasks in dispatch
   order, each with one bitmask of its A, B and output tiles
   (:func:`_dispatch_tasks`);
3. packs every block's task stream greedily under the MAC and DPG
   budgets, all blocks at once (:func:`_pack_lockstep`) — uniform,
   DPG-bound and MAC-bound streams alike;
4. replays the exact dispatch of streams whose cycles carry an
   output-tile conflict (round-robin arbitration reshuffles the
   schedule; :func:`_dispatch_conflicted`) and reorders their tasks so
   that every cycle is one contiguous run of the stream;
5. reduces each cycle's run (products, tile working set) and each
   block's cycles into cycles, the utilisation histogram, wakeup stalls
   and tile fetches, and takes the DPG totals and the C-output count
   per block over its 4x4x4 tile pairs, independent of the dispatch
   order (:func:`_dpg_totals`).

A T3 task over the MAC budget can never dispatch, so a batch holding
one raises :class:`~repro.errors.SimulationError`.  The accounting
replicates the TMS dispatch rules of
:meth:`~repro.arch.tms.TileMultiplyScheduler.dispatch` exactly — window
packing under the MAC/DPG budgets, wakeup-stall exposure, the
per-cycle tile-fetch delta against the previous cycle's working set.
``tests/test_fastpath.py`` asserts every row against the stepped
Uni-STC oracle in ``tests/stepped_models.py``, and the cycles, lanes
and utilisation bins against ``repro trace``
(:func:`~repro.arch.dataflow_trace.trace_block`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import List, Tuple

import numpy as np

from repro.arch.batch import (b_count_words, count_tables, evaluate_packed, result_rows,
                              util_bins)
from repro.errors import SimulationError
from repro.formats.bbc import pattern_row_masks
from repro.formats.bitarray import popcount, popcount16

#: Bit offsets of the four row nibbles of a 4x4 tile bitmap.
_NIBBLES = np.arange(0, 16, 4, dtype=np.uint16)
#: Offset of K tile ``k``'s subsets in a B pattern's ``[k, s]`` table.
_SLOT_BASE = (16 * np.arange(4, dtype=np.uint16))[:, None, None]
#: Field width of the per-line sums :func:`_dpg_totals` packs into one
#: uint64: a block's sums stay below 2^13.
_FIELD = 21
#: Products of a T3 task at most: a 4x4 by 4x4 tile product.
_TASK_PRODUCTS_MAX = 64
#: Task-stream length from which :func:`_pack_lockstep` counts jumps
#: with shifted compares and walks the cycle starts.  The two forms tie
#: between 1,500 and 2,000 tasks; ``cold-all``'s calls (median 306
#: tasks) sit below, an ``infer-stream`` request's (about 24,000) far
#: above.
_WALK_MIN_TASKS = 1536


@lru_cache(maxsize=None)
def _row_fields() -> np.ndarray:
    """Per-row fields of :func:`_dpg_totals` (512 KiB), built on first use:
    entry ``r`` (uint64) holds the popcount of 16-bit row mask ``r``,
    plus its live column pairs from bit ``2 _FIELD``."""
    masks = np.arange(1 << 16)
    pop = popcount16()
    table = (pop[masks].astype(np.uint64)
             | pop[(masks | masks >> 1) & 0x5555].astype(np.uint64) << np.uint64(2 * _FIELD))
    table.setflags(write=False)
    return table


def _decode_a(a_patterns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """A's packed tile column counts ``[U, i, k]`` (uint32), its rows'
    nibbles ``[U, k, r]`` (row ``r``'s columns ``4k..4k+3``, plus ``16
    k``), each column's count and live tile rows packed ``[U, 16]`` and
    its nonzero tiles.

    A column's fields are sums over tile rows of the count words' bytes
    (byte ``kk`` of tile ``(i, k)``'s word counts its column ``kk``),
    not a gather from a 2 MiB per-tile table: on a request's large
    calls that table's gathers missed the cache.
    """
    packed = count_tables()[0][a_patterns].reshape(-1, 4, 4)
    counts = packed.view(np.uint8).reshape(-1, 4, 16)                    # [U, i, 4k + kk]
    lines = np.add.reduce(counts != 0, axis=1, dtype=np.uint64) << np.uint64(_FIELD)
    lines |= np.add.reduce(counts, axis=1, dtype=np.uint64)
    slots = np.right_shift(a_patterns.reshape(-1, 4, 4).transpose(0, 2, 1)[..., None],
                           _NIBBLES, order="C")                        # [U, k, i, m]
    slots &= 0xF
    slots += _SLOT_BASE
    return packed, slots.reshape(-1, 4, 16), lines, (a_patterns != 0).sum(axis=1)


def _decode_b(b_patterns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """B's packed tile row counts ``[U, k, j]`` (uint32,
    :func:`~repro.arch.batch.b_count_words`), the OR of its rows ``4k +
    kk`` over every set ``s`` of ``kk`` ``[U, k, s]``, each row's count
    and live column pairs packed ``[U, 16]`` and its nonzero tiles."""
    rows = pattern_row_masks(b_patterns)
    packed = b_count_words(b_patterns)
    # Subset-major, by doubling: set s + 2^kk (s < 2^kk) is set s ORed with row kk.
    subsets = np.zeros((16, rows.size // 4), dtype=np.uint16)
    for kk, row in enumerate(rows.reshape(-1, 4).T):
        np.bitwise_or(subsets[:1 << kk], row, out=subsets[1 << kk:2 << kk])
    return (packed, subsets.T.reshape(-1, 4, 16), _row_fields()[rows],
            (packed != 0).sum(axis=(1, 2)))


def _dpg_totals(a_lines, a_slots, b_lines, b_subsets) -> Tuple[np.ndarray, ...]:
    """Per-block DPG and output totals over every tile pair, order-free.

    Returns each block's ``(products, T4 tasks, A element fetches, B
    element fetches, C outputs)``; its C writes equal its T4 tasks and
    both broadcast counts equal its products.  Summed over a block's
    ``(i, k, j)`` tile pairs, the per-task
    :meth:`~repro.arch.dpg.DotProductGenerator.decompose` counts factor
    into per-line sums (a pair with no products adds zero to each):

    - A row ``m`` of tile ``(i, k)`` adds one T4 task per column of
      B tile ``(k, j)`` it meets, so a block's T4 count is the number
      of ``(row r, K tile k, column)`` meetings: the popcount of the OR
      of B rows ``4k + kk`` over the ``kk`` set in row ``r``'s nibble
      ``k``.  ORed over ``k`` too, it is the C-output count;
    - an A element is fetched once per column-pair group of B that uses
      it, so A fetches are ``sum_c |A col c| * (B row c's live column
      pairs)``;
    - B fetches are ``popcount(B & rowselect(union of A's rows))`` per
      task: ``sum_c (A col c's live tile rows) * |B row c|``;
    - products are ``sum_c |A col c| * |B row c|``.

    The three line sums are fields of one uint64 sum of ``(|A col| +
    live rows << 21) * (|B row| + live pairs << 42)`` (the fourth term
    overflows past bit 63).  No sum depends on the queue-fill order, so
    ``z`` and ``n`` fills share the totals.
    """
    count = len(a_slots)
    sums = (a_lines * b_lines).sum(axis=1).astype(np.int64)
    field = (1 << _FIELD) - 1
    # met[n, 16 k + r]: B's rows 4k + kk ORed over the kk in A row r's nibble k.
    met = b_subsets.reshape(-1)[a_slots.reshape(count, -1)
                                + np.arange(0, 64 * count, 64, dtype=np.int32)[:, None]]
    outputs = met[:, :16] | met[:, 16:32] | met[:, 32:48] | met[:, 48:]
    return (sums & field, popcount(met).sum(axis=1, dtype=np.int64), sums >> 2 * _FIELD & field,
            sums >> _FIELD & field, popcount(outputs).sum(axis=1, dtype=np.int64))


#: Axes of an ``[N, i, k, j]`` product cube each ordering walks in C order.
_ORDER_AXES = {"outer": (0, 2, 1, 3), "dot": (0, 1, 3, 2), "rowrow": (0, 1, 2, 3)}
#: Sums the four bytes of a uint32 into its top byte.
_BYTE_SUM = np.uint32(0x01010101)


@lru_cache(maxsize=None)
def _cell_bits(ordering: str, n_cols: int) -> np.ndarray:
    """Tile bits of every cell of a block's walked product cube.

    Entry ``c`` is the T3 task ``(i, k, j)`` at cell ``c`` of the walk;
    it sets bit ``4i + k`` (its A tile), ``16 + 4k + j`` (its B tile)
    and ``32 + 4i + j`` (its output tile).  Entry ``16 n_cols + c`` is
    the task at cell ``c`` of an outer-product layer walked
    column-major, where the walk's ``(i, j)`` is the task's ``(j, i)``.
    """
    axes = np.array(_ORDER_AXES[ordering][1:]) - 1
    ikj = np.empty((3, 16 * n_cols), dtype=np.int64)
    ikj[axes] = np.indices(np.array((4, 4, n_cols))[axes]).reshape(3, -1)
    i, k, j = ikj
    table = np.concatenate([(1 << (4 * i + k)) | (1 << (16 + 4 * k + j))
                            | (1 << (32 + 4 * i + j)) for i, j in ((i, j), (j, i))])
    table.setflags(write=False)
    return table


def _dispatch_tasks(
    ordering: str, adaptive: bool, a_packed: np.ndarray, b_packed: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(block, products, tile bits)`` of every T3 task, in TMS dispatch order.

    A block's ``[i, k, j]`` products are byte 3 of the uint32 product
    ``a_packed[i, k] * b_packed[k, j]``
    (:func:`~repro.arch.batch.count_tables`), computed in the ordering's
    walk; a task is a nonzero cell, and the walk is C order: outer is
    ``(block, k, i, j)``, with the adaptive switch transposing every
    layer holding more live rows than live columns to ``(j, i)`` (a
    no-op on a vector B's one-column layers); dot is ``(block, i, j,
    k)`` and row-row ``(block, i, k, j)``.  Mirrors
    :meth:`TileMultiplyScheduler.order_tasks`.  Tile bits are
    :func:`_cell_bits`.
    """
    axes = _ORDER_AXES[ordering]
    cube = np.multiply(a_packed[:, :, :, None].transpose(axes),
                       b_packed[:, None, :, :].transpose(axes), order="C")
    cube >>= 24
    cells = cube[0].size
    flip = None
    if ordering == "outer" and adaptive and cube.shape[3] > 1:
        # A layer row's four live flags as one uint32, byte j each.
        live = (cube > 0).view(np.uint32)[..., 0]                  # [N, k, i]
        rows = ((live != 0).view(np.uint32)[..., 0] * _BYTE_SUM) >> 24
        cols = ((live[:, :, 0] | live[:, :, 1] | live[:, :, 2] | live[:, :, 3])
                * _BYTE_SUM) >> 24
        flip = rows > cols
        if flip.any():
            cube[flip] = cube[flip].swapaxes(1, 2)
        else:
            flip = None
    flat = np.flatnonzero(cube)
    block, cell = flat >> (cells.bit_length() - 1), flat & (cells - 1)
    if flip is not None:
        cell += cells * flip.reshape(-1)[flat >> 4]
    return block, cube.reshape(-1)[flat], _cell_bits(ordering, cube.shape[3])[cell]


def _dispatch_conflicted(
    p: List[int], bits: List[int], lens: List[int], num_dpgs: int, macs: int
) -> Tuple[List[int], List[int]]:
    """Dispatch order and cycle starts of conflicted blocks' task streams.

    The streams lie back to back (block ``q`` has ``lens[q]`` tasks of
    ``p`` products and one-hot output tile ``bits``).  Replays
    :meth:`TileMultiplyScheduler.dispatch` exactly — including
    round-robin conflict skips that re-queue tasks at the front — and
    returns the task indices in dispatch order plus the positions in
    that order where each cycle starts.  Every per-cycle statistic the
    model consumes (products, task count, tile working sets, wakeup
    events) is a function of cycle *membership*, not of intra-cycle
    order, so this is all the downstream array accounting needs.
    """
    order: List[int] = []
    starts: List[int] = []
    take, mark = order.append, starts.append
    hi = 0
    for total in lens:
        lo, hi = hi, hi + total
        # The queue lives reversed in a plain list: the *end* is the
        # front, so popleft is pop() and appendleft is append() — no
        # deque needed, and the 16 possible output tiles fit one int
        # as a "used" bitmask.
        pending = list(range(hi - 1, lo - 1, -1))
        front = pending.pop
        while pending:
            mark(len(order))
            chosen = used = products = 0
            skipped: List[int] = []
            while pending:
                t = front()
                fill = products + p[t]
                if fill > macs:
                    pending.append(t)
                    break
                bit = bits[t]
                if used & bit:
                    skipped.append(t)
                    if len(skipped) >= num_dpgs:
                        break
                    continue
                take(t)
                used |= bit
                products = fill
                chosen += 1
                if chosen == num_dpgs:
                    break
            if skipped:
                skipped.reverse()
                pending += skipped
            if not chosen:
                raise SimulationError("dispatch made no progress; scheduler bug")
    return order, starts


def _pack_lockstep(p: np.ndarray, lens: np.ndarray, num_dpgs: int, macs: int) -> np.ndarray:
    """Cycle starts of several blocks' ordered task streams under the MAC budget.

    The exact greedy rule of :meth:`TileMultiplyScheduler.dispatch` for
    conflict-free streams: fill up to ``num_dpgs`` tasks per cycle, and
    a task that would push the cycle past ``macs`` products starts the
    next cycle.  For a uniform stream of ``p``-product tasks that is
    ``min(num_dpgs, macs // p)`` tasks per cycle, for a DPG-bound one
    ``num_dpgs``.  ``p`` holds the blocks' streams back to back (block
    ``q`` has ``lens[q] >= 0`` tasks); returns a bool per task, true
    where a cycle starts.  Every task must satisfy ``p <= macs``
    (:func:`_evaluate_group` raises on a batch holding an over-budget
    task before packing).

    A sentinel of ``macs + 1`` products after each block never fits, so
    no cycle crosses a block end, and ``num_dpgs`` more pad the stream.
    A cycle opening at task ``t`` ends where the cumulative products
    pass ``cum[t] - p[t] + macs`` or after ``num_dpgs`` tasks; a
    sentinel's (and an over-budget task's) jump lands on itself.  Below
    :data:`_WALK_MIN_TASKS` tasks one ``searchsorted`` finds every
    task's jump, and the cycle starts reachable from each block's first
    task double every step (the starts ``2^s`` to ``2^(s+1) - 1`` cycles
    in are ``2^s`` cycles past the first ``2^s``, and the jump table
    squares itself).  From there on, ``num_dpgs`` shifted compares count
    each jump (whether ``cum[t + d]`` fits is monotone in ``d``), and
    the starts are walked from each block's first task, one cycle of
    every block a step: a binary search per task and a squaring of the
    whole table cost more there than the walk's one step per cycle of
    the longest block.
    """
    slots = lens + 1
    start = np.cumsum(slots) - slots
    size = int(start[-1] + slots[-1])
    stream = np.full(size + num_dpgs, macs + 1, dtype=np.int64)
    is_task = np.ones(size, dtype=bool)
    is_task[start + lens] = False
    stream[:size][is_task] = p
    cum = np.cumsum(stream)
    limit = cum[:size] - stream[:size] + macs
    reached = start[lens > 0]
    first = np.zeros(size, dtype=bool)
    if p.size < _WALK_MIN_TASKS:
        jump = np.minimum(np.searchsorted(cum, limit, side="right"),
                          np.arange(num_dpgs, size + num_dpgs))
        for _ in range(int(lens.max(initial=0)).bit_length() + 1):
            ahead = jump[reached]
            ahead = ahead[is_task[ahead]]
            if not ahead.size:
                break
            reached = np.concatenate((reached, ahead))
            jump = jump[jump]
        else:
            raise SimulationError("lockstep packing made no progress; scheduler bug")
        first[reached] = True
        return first[is_task]
    # A cycle holds at most one block's tasks, so no more compares than
    # its longest block has tasks; the counts add up in uint16 lanes.
    longest = int(lens.max())
    steps = np.zeros(size, dtype=np.uint16)
    for d in range(min(num_dpgs, longest)):
        steps += cum[d:d + size] <= limit
    # A block has at most ``longest`` cycles; an over-budget task never moves.
    for _ in range(longest + 1):
        if not reached.size:
            break
        first[reached] = True
        reached = reached + steps[reached]
        reached = reached[is_task[reached]]
    else:
        raise SimulationError("lockstep packing made no progress; scheduler bug")
    return first[is_task]


def simulate_blocks(stc, batch) -> np.ndarray:
    """Batched block evaluation for a :class:`~repro.arch.unistc.UniSTC`.

    Row ``i`` of the ``[N, VECTOR_WIDTH]`` int64 result is the block
    result of task entry ``i`` of ``batch``.
    """
    return evaluate_packed(batch, _decode_a, _decode_b, partial(_evaluate_group, stc))


def _evaluate_group(stc, a_packed, a_slots, a_lines, a_live,
                    b_packed, b_subsets, b_lines, b_live) -> np.ndarray:
    """Evaluate one chunk of pattern pairs, decoded by :func:`_decode_a` /
    :func:`_decode_b`, into result rows."""
    cfg = stc.config
    count = len(a_packed)
    macs, nd = cfg.macs, cfg.num_dpgs

    # -- T3 tasks in dispatch order, packed into cycles ------------------
    block, pp, bits = _dispatch_tasks(stc.ordering, cfg.adaptive_ordering, a_packed, b_packed)
    tasks = np.bincount(block, minlength=count)
    if macs < _TASK_PRODUCTS_MAX and pp.size and pp.max() > macs:
        # A task over the MAC budget never fits a cycle.
        raise SimulationError("dispatch made no progress; scheduler bug")
    first = _pack_lockstep(pp, tasks, nd, macs)
    starts = np.flatnonzero(first)
    working = np.bitwise_or.reduceat(bits, starts)
    cycle_tasks = np.concatenate((starts[1:], [pp.size])) - starts
    if cfg.conflict_stall:
        # A same-output-tile conflict inside any cycle reshuffles the
        # schedule (round-robin arbitration re-queues skipped tasks at
        # the front) — replay the exact dispatch for those blocks and
        # put their tasks in dispatch order, one contiguous run per cycle.
        clash = popcount(working >> 32) < cycle_tasks
        if clash.any():
            conflicted = np.zeros(count, dtype=bool)
            conflicted[block[starts[clash]]] = True
            # A block's tasks are contiguous, so these are the conflicted
            # blocks' streams back to back.
            task_pos = np.flatnonzero(conflicted[block])
            order, cycle_starts = _dispatch_conflicted(
                pp[task_pos].tolist(), (bits[task_pos] >> 32).tolist(),
                tasks[conflicted].tolist(), nd, macs)
            moved = task_pos[order]
            pp[task_pos], bits[task_pos] = pp[moved], bits[moved]
            first[task_pos] = False
            first[task_pos[cycle_starts]] = True
            starts = np.flatnonzero(first)
            working = np.bitwise_or.reduceat(bits, starts)
            cycle_tasks = np.concatenate((starts[1:], [pp.size])) - starts

    # -- per-cycle accounting, vectorised over every block ----------------
    cycle_block = block[starts]
    bins = np.bincount(cycle_block * 4 + util_bins(np.add.reduceat(pp, starts), macs),
                       minlength=4 * count).reshape(count, 4)
    # The previous cycle's working set and task count (none before a
    # block's first cycle).
    opens = np.ones(starts.size, dtype=bool)
    np.not_equal(cycle_block[1:], cycle_block[:-1], out=opens[1:])
    prev_working = np.concatenate(([0], working))[:-1]
    prev_working[opens] = 0
    fresh = working & ~prev_working
    # Tile fetches: the working set's delta against the previous cycle.
    fetched = popcount(fresh & 0xFFFFFFFF)
    fetches = np.bincount(cycle_block, weights=fetched, minlength=count).astype(np.int64)
    if cfg.dynamic_gating:
        prev_tasks = np.concatenate(([0], cycle_tasks))[:-1]
        prev_tasks[opens] = 0
        exposed = max(0, cfg.dpg_wakeup_cycles - cfg.lookahead_cycles)
        stalls = exposed * np.bincount(cycle_block[cycle_tasks > prev_tasks], minlength=count)
    else:
        stalls = 0

    # -- DPG stage: per-block totals over every tile pair -----------------
    products, t4, a_fetch, b_fetch, c_outputs = _dpg_totals(a_lines, a_slots, b_lines, b_subsets)

    # -- assembly: a zero-product block (Fig. 20's sparse regime) retires
    # in one cycle of metadata processing ---------------------------------
    idle = stalls + (tasks == 0)
    cycles = bins.sum(axis=1) + idle
    bins[:, 0] += idle
    if cfg.dynamic_gating:
        active, gated = tasks, nd * cycles - tasks
    else:
        active, gated = nd * cycles, 0
    return result_rows(cycles, products, bins, {
        "meta_reads": 2 + a_live + b_live,
        "dpg_active_cycles": active,
        "dpg_gated_cycles": gated,
        "sched_cycles": cycles,
        "lane_cycles": macs * cycles,
        "tile_fetches": fetches,
        "queue_ops": 2 * tasks + 2 * t4,
        "a_elem_reads": a_fetch,
        "b_elem_reads": b_fetch,
        "a_net_transfers": a_fetch,
        "b_net_transfers": b_fetch,
        "a_broadcasts": products,
        "b_broadcasts": products,
        "accum_accesses": t4,
        "c_elem_writes": c_outputs,
        "c_net_transfers": c_outputs,
        "mac_ops": products,
    })
