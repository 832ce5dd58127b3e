"""Parity and unit tests for the batched/analytic evaluation fast path.

``repro.arch.fastpath.simulate_blocks`` claims exact equality with the
stepped Uni-STC oracle (``tests/stepped_models.py``) — not "close",
*equal*, because the memo, the result store and every report are built
from its rows.  These tests enforce that claim row for row over every
kernel's block population and over the model configurations the
experiments actually sweep; check ``repro trace``'s cycle-by-cycle walk
against the same rows; pin the order-free DPG totals against the
per-task closed form and the queue-walking decomposition behind it; and
pin the lockstep packer against the per-block greedy walk and the
closed form it replaced.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from repro.arch.base import ACTION_COL, VECTOR_WIDTH, STCModel
from repro.arch.config import Precision, UniSTCConfig, parse_precision
from repro.arch.dataflow_trace import trace_block
from repro.arch.dpg import DotProductGenerator
from repro.arch import fastpath
from repro.arch.batch import b_count_words, count_tables, util_bins
from repro.arch.fastpath import _decode_a, _decode_b, _dpg_totals, _pack_lockstep
from repro.arch.tasks import T1Task
from repro.arch.tms import TileMultiplyScheduler
from repro.arch.unistc import UniSTC
from repro.errors import ConfigError, SimulationError
from repro.formats.bbc import pack_patterns, unpack_patterns
from repro.registry import create_stc

from tests.blocks import (
    PRODUCTS,
    assert_results_equal,
    dnn_tasks,
    engine_batch,
    handmade_tasks,
    kernel_tasks,
    simulate_blocks,
    simulate_cuts,
)
from tests.stepped_models import decode_a_operand, decode_b_operand, dpg_stats, stepped_block


MODEL_VARIANTS = {
    "default": lambda: UniSTC(),
    "4dpg": lambda: UniSTC(UniSTCConfig(num_dpgs=4)),
    "16dpg": lambda: UniSTC(UniSTCConfig(num_dpgs=16)),
    "no-gating": lambda: UniSTC(UniSTCConfig(dynamic_gating=False)),
    "no-conflict": lambda: UniSTC(UniSTCConfig(conflict_stall=False)),
    "no-adaptive": lambda: UniSTC(UniSTCConfig(adaptive_ordering=False)),
    "fp32": lambda: UniSTC(UniSTCConfig(precision=parse_precision("fp32"))),
    "dot": lambda: UniSTC(ordering="dot"),
    "rowrow": lambda: UniSTC(ordering="rowrow"),
    "n-fill": lambda: UniSTC(fill_order="n"),
}


@pytest.fixture(scope="module")
def conv_tasks():
    return dnn_tasks()


class TestBatchedParity:
    @pytest.fixture(scope="class")
    def corpus_tasks(self):
        return kernel_tasks()

    @pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
    def test_kernel_blocks_match_stepped(self, corpus_tasks, variant):
        stc = MODEL_VARIANTS[variant]()
        batch = simulate_blocks(stc, corpus_tasks)
        stepped = [stepped_block(stc, t) for t in corpus_tasks]
        assert_results_equal(batch, stepped, variant)

    @pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
    def test_conv_blocks_match_stepped(self, conv_tasks, variant):
        """MAC-bound dense blocks of ResNet-50's conv layers (about 60
        T3 tasks each, products varying from task to task), as one
        engine-shaped batch."""
        stc = MODEL_VARIANTS[variant]()
        batch = simulate_blocks(stc, conv_tasks, make_batch=engine_batch)
        stepped = [stepped_block(stc, t) for t in conv_tasks]
        assert_results_equal(batch, stepped, f"conv/{variant}")

    @pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
    def test_engine_shaped_batch_matches_stepped(self, corpus_tasks, variant):
        """Pattern tables with unreferenced rows and out-of-order
        indexes, as the engine's miss batches have them."""
        stc = MODEL_VARIANTS[variant]()
        tasks = corpus_tasks + handmade_tasks()
        batch = simulate_blocks(stc, tasks, make_batch=engine_batch)
        stepped = [stepped_block(stc, t) for t in tasks]
        assert_results_equal(batch, stepped, f"engine/{variant}")

    def test_handmade_blocks_match_stepped(self):
        """One batch, then 8-block cuts and one-block calls: most cold
        calls carry few blocks."""
        tasks = handmade_tasks()
        for variant, build in MODEL_VARIANTS.items():
            stc = build()
            stepped = [stepped_block(stc, t) for t in tasks]
            assert_results_equal(simulate_blocks(stc, tasks), stepped, f"handmade/{variant}")
            for size in (8, 1):
                assert_results_equal(simulate_cuts(stc, tasks, size), stepped,
                                     f"handmade/{variant}/cuts of {size}")

    def test_mixed_width_group_order_preserved(self):
        """Matrix-B and vector-B tasks interleaved keep their slots: each
        width's batch indexes its patterns out of order."""
        tasks = handmade_tasks()
        rng = np.random.default_rng(3)
        order = rng.permutation(len(tasks))
        shuffled = [tasks[i] for i in order]
        stc = UniSTC()
        batch = simulate_blocks(stc, shuffled)
        stepped = [stepped_block(stc, t) for t in shuffled]
        assert_results_equal(batch, stepped, "mixed-width")

    def test_baseline_models_honour_block_api(self, corpus_tasks):
        """Baselines answer the same batched API (their array evaluators
        are pinned in depth by test_baseline_batched.py)."""
        some = corpus_tasks[:20]
        for name in ("ds-stc", "rm-stc"):
            stc = create_stc(name)
            batch = simulate_blocks(stc, some)
            stepped = [stepped_block(stc, t) for t in some]
            assert_results_equal(batch, stepped, name)

    def test_zero_product_batch(self):
        """Batches of zero-product blocks only (no T3 task to pack) retire
        each block in one metadata cycle, as stepping does."""
        empty, dense = np.zeros((16, 16), bool), np.ones((16, 16), bool)
        left, bottom = empty.copy(), empty.copy()
        left[:, :8], bottom[8:] = True, True      # nonzero tiles, no product
        tasks = [T1Task.from_bitmaps(empty, dense), T1Task.from_bitmaps(dense, empty),
                 T1Task.from_bitmaps(left, bottom),
                 T1Task.from_bitmaps(dense, np.zeros((16, 1), bool))]
        for variant, build in MODEL_VARIANTS.items():
            stc = build()
            rows = simulate_blocks(stc, tasks)
            assert_results_equal(rows, [stepped_block(stc, t) for t in tasks], variant)
            assert (rows[:, PRODUCTS] == 0).all()

    def test_empty_task_list(self):
        rows = simulate_blocks(UniSTC(), [])
        assert rows.shape == (0, VECTOR_WIDTH) and rows.dtype == np.int64


class TestFallbackRouting:
    def test_regular_and_conflicted_blocks_never_step(self):
        """Uni-STC has one evaluator: no variant carries a stepped
        ``simulate_block``, ``simulate_blocks`` is the abstract method
        every model must implement, and conflicted blocks (the replay
        path) evaluate without one."""
        assert STCModel.__abstractmethods__ == {"simulate_blocks", "macs"}
        for variant, build in MODEL_VARIANTS.items():
            stc = build()
            assert not hasattr(stc, "simulate_block"), variant
        rows = simulate_blocks(UniSTC(), handmade_tasks())
        assert rows.shape == (len(handmade_tasks()), VECTOR_WIDTH)

    def test_over_budget_block_raises(self):
        """A T3 task over the MAC budget can never dispatch: the batch
        raises the stepped path's error instead of mis-scheduling."""
        tiny = UniSTC(UniSTCConfig(precision=Precision("tiny", 64, 32)))
        dense = T1Task.from_bitmaps(
            np.ones((16, 16), bool), np.ones((16, 16), bool)
        )
        sparse = T1Task.from_bitmaps(np.eye(16, dtype=bool), np.eye(16, dtype=bool))
        with pytest.raises(SimulationError, match="no progress") as stepped:
            stepped_block(tiny, dense)
        with pytest.raises(SimulationError) as batched:
            simulate_blocks(tiny, [sparse, dense])
        assert str(batched.value) == str(stepped.value)

    def test_unknown_ordering_matches_stepped_error(self):
        """An unknown ordering or fill order fails when the model is
        built, with the texts the scheduler and the DPG raise."""
        with pytest.raises(ConfigError, match="unknown ordering 'spiral'") as built:
            UniSTC(ordering="spiral")
        with pytest.raises(SimulationError) as stepped:
            TileMultiplyScheduler(UniSTCConfig()).order_tasks([], "spiral")
        assert str(built.value) == str(stepped.value)
        with pytest.raises(ConfigError, match="fill order must be 'z' or 'n'") as built:
            UniSTC(fill_order="q")
        with pytest.raises(ValueError) as stepped:
            DotProductGenerator("q")
        assert str(built.value) == str(stepped.value)


class TestTraceParity:
    """``repro trace`` walks a block through the TMS, DPG and SDPU one
    cycle at a time; its schedule must be the fastpath's."""

    @pytest.fixture(scope="class")
    def parity_tasks(self, conv_tasks):
        return kernel_tasks() + conv_tasks + handmade_tasks()

    @pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
    def test_trace_matches_fastpath(self, parity_tasks, variant):
        """Cycles, lanes and Fig. 5 bins of every parity block's trace
        equal its production row (no variant exposes a wake-up stall,
        which the trace does not model)."""
        stc = MODEL_VARIANTS[variant]()
        rows = simulate_blocks(stc, parity_tasks)
        for index, (task, row) in enumerate(zip(parity_tasks, rows)):
            trace = trace_block(task, stc.config, stc.ordering, stc.fill_order)
            lanes = np.array([cyc.lanes_used for cyc in trace.cycles])
            bins = np.bincount(util_bins(lanes, stc.macs), minlength=4)
            assert [len(lanes), lanes.sum(), *bins] == row[:6].tolist(), (variant, index)


class TestBatchedDecode:
    """The packed count words every model reads, against the scalar
    tile decoders: byte ``kk`` of an A word counts its tile's column
    ``kk``, byte ``3 - kk`` of a B word its tile's row ``kk``."""

    def test_decode_a_matches_scalar(self):
        rng = np.random.default_rng(5)
        stack = rng.random((40, 16, 16)) < 0.35
        words = count_tables()[0][pack_patterns(stack)].reshape(-1, 4, 4)
        for p in range(stack.shape[0]):
            _, ref_cols = decode_a_operand(stack[p])
            assert np.array_equal(words[p].view(np.uint8).reshape(4, 4, 4), ref_cols)

    @pytest.mark.parametrize("width", [16, 1])
    def test_decode_b_matches_scalar(self, width):
        rng = np.random.default_rng(6)
        stack = rng.random((40, 16, width)) < 0.4
        words = b_count_words(pack_patterns(stack))
        for p in range(stack.shape[0]):
            ref_tiles, ref_rows, ref_n = decode_b_operand(stack[p])
            assert words.shape[2] == ref_n
            assert np.array_equal(words[p] != 0, ref_tiles != 0)
            assert np.array_equal(words[p].view(np.uint8).reshape(4, ref_n, 4)[..., ::-1],
                                  ref_rows)

    def test_decode_b_rejects_unknown_width(self):
        with pytest.raises(SimulationError):
            b_count_words(np.zeros((3, 7), dtype=np.uint16))


#: popcount of every 4-bit value (dot patterns are 4-bit masks).
_POP4 = np.array([bin(v).count("1") for v in range(16)], dtype=np.int64)
#: Same table in uint8 — gathers over [T, 4, 4] pattern arrays stay
#: byte-wide, with the widening deferred to the dtype of the final sum.
_POP4_U8 = _POP4.astype(np.uint8)

#: 16-bit tile bitmap -> its four 4-bit row masks / column masks, as
#: one-gather lookup tables (256 KiB each); the uint8 domain keeps the
#: [T, 4, 4] dot-pattern intermediates small.
_ROW_MASKS = (
    (np.arange(65536, dtype=np.uint32)[:, None] >> (4 * np.arange(4))) & 0xF
).astype(np.uint8)
_COL_MASKS = np.zeros((65536, 4), dtype=np.uint8)
for _n in range(4):
    for _k in range(4):
        _COL_MASKS[:, _n] |= (
            ((np.arange(65536) >> (4 * _k + _n)) & 1) << _k
        ).astype(np.uint8)
del _n, _k


def _dpg_stats_batch(
    a_tile_bitmaps: np.ndarray, b_tile_bitmaps: np.ndarray, n_cols: int
) -> np.ndarray:
    """Closed-form :func:`~tests.stepped_models.dpg_stats` over flat task arrays.

    Returns a ``[T, 6]`` per-T3-task stat matrix in
    :data:`~tests.stepped_models.DPG_STAT_FIELDS` order.  The stepped path's
    :meth:`~repro.arch.dpg.DotProductGenerator.decompose` walks the
    queue-fill order accumulating per-group ``seen`` masks; its fetch
    totals reduce to popcounts of bitwise unions — an operand element is
    fetched once per column-pair group in which any dot pattern uses it:

    - ``pattern[m][n] = a_row[m] & b_col[n]`` (4-bit masks);
    - ``a_elem_fetches = sum over (group, m) of popcount(union over the
      group's columns of pattern[m][n])``;
    - ``b_elem_fetches = sum over n of popcount(b_col[n] & union of all
      a_row[m])`` (every group spans all four rows);
    - broadcasts are total pattern popcounts; T4 task count and C
      writes are the number of nonzero patterns.

    Unions are insensitive to intra-group order, so the ``z`` and ``n``
    fill orders yield identical stats and the fill order needs no
    parameter here.  ``tests/test_fastpath.py`` cross-checks this
    against ``decompose`` exhaustively.
    """
    a_rows = _ROW_MASKS[a_tile_bitmaps]                          # [T, m]
    if n_cols == 4:
        b_cols = _COL_MASKS[b_tile_bitmaps]                      # [T, n]
    else:
        b_cols = (np.asarray(b_tile_bitmaps) & 0xF).astype(np.uint8)[:, None]
    pat = a_rows[:, :, None] & b_cols[:, None, :]                # [T, m, n]
    t4 = np.count_nonzero(pat, axis=(1, 2)).astype(np.int64)
    casts = _POP4_U8[pat].sum(axis=(1, 2), dtype=np.int64)
    union_a = a_rows[:, 0] | a_rows[:, 1] | a_rows[:, 2] | a_rows[:, 3]
    b_fetch = _POP4_U8[b_cols & union_a[:, None]].sum(axis=1, dtype=np.int64)
    if n_cols == 4:
        a_fetch = (
            _POP4_U8[pat[:, :, 0] | pat[:, :, 1]].sum(axis=1, dtype=np.int64)
            + _POP4_U8[pat[:, :, 2] | pat[:, :, 3]].sum(axis=1, dtype=np.int64)
        )
    else:
        a_fetch = _POP4_U8[pat[:, :, 0]].sum(axis=1, dtype=np.int64)
    return np.stack([t4, a_fetch, b_fetch, casts, casts, t4], axis=1)


def _block_totals(a_patterns, b_patterns):
    """``_dpg_totals`` of packed blocks as ``[N, 5]``: products, T4 tasks,
    A fetches, B fetches and C outputs."""
    a, b = _decode_a(a_patterns), _decode_b(b_patterns)
    return np.stack(_dpg_totals(a[2], a[1], b[2], b[1]), axis=1)


def _per_task_totals(a, b, n_cols):
    """``_dpg_totals`` with every task its own block: per-task stats.

    Block ``t`` holds A tile ``a[t]`` at tile (0, 0) and B tile
    ``b[t]`` at tile (0, 0) (a vector B's nibble 0), its one tile pair;
    each distinct pattern is decoded once, as ``simulate_blocks`` does.
    Returns ``[T, 3]`` (T4 tasks, A fetches, B fetches), checking on the
    way that each block's products are the pair's multiplies and its C
    outputs its T4 tasks.
    """
    tables = []
    b_width = 16 if n_cols == 4 else 1
    for tiles, width, decode in ((a, 16, _decode_a), (b, b_width, _decode_b)):
        distinct, index = np.unique(tiles, return_inverse=True)
        patterns = np.zeros((distinct.size, width), dtype=np.uint16)
        patterns[:, 0] = distinct
        _, slots, lines, _ = decode(patterns)
        tables.append((lines, slots, index.reshape(-1)))
    (a_lines, a_slots, a_index), (b_lines, b_subsets, b_index) = tables
    got = []
    for lo in range(0, len(a), 1 << 16):
        part = slice(lo, lo + (1 << 16))
        ai, bi = a_index[part], b_index[part]
        totals = np.stack(_dpg_totals(a_lines[ai], a_slots[ai], b_lines[bi], b_subsets[bi]),
                          axis=1)
        assert np.array_equal(totals[:, 0], _tile_products(a[part], b[part], n_cols))
        assert np.array_equal(totals[:, 4], totals[:, 1])
        got.append(totals[:, 1:4])
    return np.concatenate(got)


def _tile_products(a, b, n_cols):
    """Multiplies of each T3 task: sum over kk of |A col kk| * |B row kk|."""
    b_rows = [_POP4[(b >> (4 * kk)) & 0xF] if n_cols == 4 else (b >> kk) & 1
              for kk in range(4)]
    return sum(
        sum((a >> (4 * m + kk)) & 1 for m in range(4)) * b_rows[kk]
        for kk in range(4)
    )


class TestDpgStatsBatch:
    """The order-free block totals against the per-task closed form (the
    oracle)."""

    @pytest.mark.parametrize("row", range(4))
    def test_every_row_mask_and_b_tile(self, row):
        """All 16 row masks x all 65,536 B tiles, A row in one position."""
        masks = np.repeat(np.arange(16, dtype=np.int64), 1 << 16)
        a = masks << (4 * row)
        b = np.tile(np.arange(1 << 16, dtype=np.int64), 16)
        assert np.array_equal(_per_task_totals(a, b, 4),
                              _dpg_stats_batch(a, b, 4)[:, :3])

    def test_every_row_mask_and_vector_b(self):
        masks, b = np.divmod(np.arange(256, dtype=np.int64), 16)
        for row in range(4):
            a = masks << (4 * row)
            assert np.array_equal(_per_task_totals(a, b, 1),
                                  _dpg_stats_batch(a, b, 1)[:, :3]), row

    @pytest.mark.parametrize("n_cols,mask", [(4, 0xFFFF), (1, 0xF)])
    def test_matches_decompose(self, n_cols, mask):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 1 << 16, size=3000, dtype=np.int64)
        b = rng.integers(0, mask + 1, size=3000, dtype=np.int64)
        a[:4] = [0, 0xFFFF, 0x8001, 0x00F0]
        b[:4] = [0, mask, mask, 0]
        got = _per_task_totals(a, b, n_cols)
        # The summary stats are unions/popcounts, insensitive to the
        # queue-fill order — both fills must agree with the tables.
        for fill in ("z", "n"):
            gen = DotProductGenerator(fill)
            for i in range(200):
                out = gen.decompose(int(a[i]), int(b[i]), n_cols)
                assert tuple(got[i]) == (
                    len(out.t4_tasks),
                    out.a_elem_fetches,
                    out.b_elem_fetches,
                ), (n_cols, fill, int(a[i]), int(b[i]))
                assert out.a_broadcasts == out.b_broadcasts == out.products
                assert out.c_writes == len(out.t4_tasks)

    def test_matches_memoised_stepping_helper(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        b = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        got = _per_task_totals(a, b, 4)
        for i in range(a.size):
            assert tuple(got[i]) == dpg_stats(int(a[i]), int(b[i]), 4, "z")[:3]

    @pytest.mark.parametrize("n_cols,mask", [(4, 0xFFFF), (1, 0xF)])
    def test_broadcasts_and_writes_identities(self, n_cols, mask):
        """The stats the tables skip: both broadcast counts equal the
        task's products, and C writes equal its T4 count."""
        rng = np.random.default_rng(11)
        a = rng.integers(0, 1 << 16, size=20000, dtype=np.int64)
        b = rng.integers(0, mask + 1, size=20000, dtype=np.int64)
        ref = _dpg_stats_batch(a, b, n_cols)
        products = _tile_products(a, b, n_cols)
        assert np.array_equal(ref[:, 3], products)
        assert np.array_equal(ref[:, 4], products)
        assert np.array_equal(ref[:, 5], ref[:, 0])

    @pytest.mark.parametrize("n_cols,mask", [(4, 0xFFFF), (1, 0xF)])
    def test_block_sums(self, n_cols, mask):
        """Per-block totals equal the oracle summed over all of a block's
        ``(i, k, j)`` tile pairs (a pair with no products adds zero), up
        to a dense block (every packed field at its maximum); the C
        outputs are the nonzeros of the block's product."""
        rng = np.random.default_rng(12)
        tiles = rng.integers(0, 1 << 16, size=(300, 16))
        tiles[rng.random(tiles.shape) < 0.3] = 0
        b_tiles = rng.integers(0, mask + 1, size=(300, 4 * n_cols))
        b_tiles[rng.random(b_tiles.shape) < 0.3] = 0
        tiles[0], b_tiles[0] = 0xFFFF, mask
        tiles[1] = 0
        i, k, j = np.indices((4, 4, n_cols)).reshape(3, -1)
        ref = _dpg_stats_batch(tiles[:, 4 * i + k].ravel(), b_tiles[:, n_cols * k + j].ravel(),
                               n_cols).reshape(300, -1, 6).sum(axis=1)
        if n_cols == 1:
            b_tiles = (b_tiles << (4 * np.arange(4))).sum(axis=1, keepdims=True)
        a_patterns, b_patterns = tiles.astype(np.uint16), b_tiles.astype(np.uint16)
        got = _block_totals(a_patterns, b_patterns)
        assert np.array_equal(got[:, 1:4], ref[:, :3])
        assert np.array_equal(got[:, 0], ref[:, 3])
        product = (unpack_patterns(a_patterns).astype(np.int64)
                   @ unpack_patterns(b_patterns).astype(np.int64))
        assert np.array_equal(got[:, 4], np.count_nonzero(product, axis=(1, 2)))
        assert not got[1].any()
        if n_cols == 4:
            assert tuple(got[0]) == (4096, 1024, 2048, 1024, 256)


def _pack_sequential(p: np.ndarray, num_dpgs: int, macs: int):
    """Reference greedy packing of one block's ordered task stream.

    The exact rule of :meth:`TileMultiplyScheduler.dispatch` for
    conflict-free streams, one cycle at a time: fill up to ``num_dpgs``
    tasks per cycle, and a task that would push the cycle past ``macs``
    products starts the next one.  Returns ``(cycle ids, cycles)``.
    """
    cum = list(accumulate(p.tolist()))
    cyc = np.empty(len(cum), dtype=np.int64)
    pos = cycle = 0
    while pos < len(cum):
        budget = (cum[pos - 1] if pos else 0) + macs
        nxt = min(pos + num_dpgs, bisect_right(cum, budget))
        cyc[pos:nxt] = cycle
        cycle += 1
        pos = nxt
    return cyc, cycle


def _pack_closed_form(p: np.ndarray, num_dpgs: int, macs: int) -> np.ndarray:
    """Cycle ids of one uniform or DPG-bound stream in closed form.

    On these streams greedy packing needs no search: a uniform stream
    of ``p``-product tasks fills ``min(num_dpgs, macs // p)`` tasks per
    cycle, a DPG-bound one (no aligned window of ``num_dpgs`` tasks over
    ``macs`` products) ``num_dpgs``; task ``pos`` runs in cycle ``pos //
    step``.  The evaluator packs every stream with
    :func:`_pack_lockstep`, which must agree.
    """
    step = num_dpgs if p.min() != p.max() else min(num_dpgs, macs // int(p[0]))
    return np.arange(p.size) // step


def _pack_cycles(p, lens, num_dpgs, macs):
    """``_pack_lockstep``'s cycle starts as each block's ``(cycle ids, cycles)``."""
    first = _pack_lockstep(p, lens, num_dpgs, macs)
    assert first.shape == p.shape and first.dtype == bool
    ends = np.cumsum(lens)
    return [(np.cumsum(first[lo:hi]) - 1, int(first[lo:hi].sum()))
            for lo, hi in zip(ends - lens, ends)]


def _assert_packing_matches(p, lens, num_dpgs, macs):
    ends = np.cumsum(lens)
    packed = _pack_cycles(p, lens, num_dpgs, macs)
    for q, ((cyc, ncyc), lo, hi) in enumerate(zip(packed, ends - lens, ends)):
        ref_cyc, ref_n = _pack_sequential(p[lo:hi], num_dpgs, macs)
        assert ncyc == ref_n, (q, num_dpgs, macs)
        assert np.array_equal(cyc, ref_cyc), (q, num_dpgs, macs)


_PACKING_FORMS = ("searched", "walked")


def _force_packing_form(monkeypatch, form):
    """Make :func:`_pack_lockstep` take one form whatever the stream length."""
    monkeypatch.setattr(fastpath, "_WALK_MIN_TASKS", 0 if form == "walked" else 1 << 62)


def _random_streams(rng, blocks, max_len, macs, low=1):
    lens = rng.integers(1, max_len + 1, size=blocks)
    return rng.integers(low, macs + 1, size=int(lens.sum())), lens


class TestLockstepPacking:
    """The lockstep packer against the per-block greedy reference, and
    against the closed form it replaced on uniform and DPG-bound streams."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, seed, monkeypatch):
        """Both packer forms (one binary search per task and doubled
        starts; shifted compares and a walk) on every stream, including
        ones the size of an ``infer-stream`` request's."""
        rng = np.random.default_rng(seed)
        streams = []
        for _ in range(40):
            macs = int(rng.choice([4, 16, 64, 128]))
            num_dpgs = int(rng.choice([1, 2, 4, 8, 16]))
            streams.append((*_random_streams(rng, int(rng.integers(1, 12)), 64, macs),
                            num_dpgs, macs))
        for num_dpgs, macs in ((8, 64), (16, 16), (16, 64)):
            p, lens = _random_streams(rng, 640, 64, macs)
            assert p.size >= 20_000
            streams.append((p, lens, num_dpgs, macs))
        for form in _PACKING_FORMS:
            _force_packing_form(monkeypatch, form)
            for stream in streams:
                _assert_packing_matches(*stream)

    def test_products_at_the_budget(self):
        rng = np.random.default_rng(1)
        for macs in (4, 64):
            p, lens = _random_streams(rng, 9, 40, macs, low=macs // 2)
            p[::3] = macs
            _assert_packing_matches(p, lens, 8, macs)
            full = np.full(int(lens.sum()), macs)
            _assert_packing_matches(full, lens, 8, macs)
            assert _pack_lockstep(full, lens, 8, macs).all()  # one task per cycle

    def test_single_dpg(self):
        rng = np.random.default_rng(2)
        p, lens = _random_streams(rng, 7, 64, 64)
        _assert_packing_matches(p, lens, 1, 64)
        assert _pack_lockstep(p, lens, 1, 64).all()

    def test_one_task_blocks(self):
        rng = np.random.default_rng(3)
        lens = np.ones(25, dtype=np.int64)
        p = rng.integers(1, 65, size=25)
        _assert_packing_matches(p, lens, 8, 64)
        assert _pack_lockstep(p, lens, 8, 64).all()

    def test_empty_blocks_between_streams(self):
        """Blocks with no tasks (a batch's zero-product blocks) add no
        cycle start and split no neighbour's stream."""
        rng = np.random.default_rng(5)
        p, lens = _random_streams(rng, 12, 64, 64)
        lens[[0, 4, 5, 11]] = 0
        p = p[:int(lens.sum())]
        _assert_packing_matches(p, lens, 8, 64)
        assert not _pack_lockstep(p[:0], np.zeros(3, dtype=np.int64), 8, 64).size

    @pytest.mark.parametrize("num_dpgs", [1, 4, 8, 16])
    def test_single_full_block_per_call(self, num_dpgs):
        rng = np.random.default_rng(num_dpgs)
        for macs in (16, 64):
            for _ in range(10):
                p = rng.integers(1, macs + 1, size=64)
                _assert_packing_matches(p, np.array([64]), num_dpgs, macs)

    @pytest.mark.parametrize("num_dpgs", [1, 4, 8, 16])
    def test_uniform_and_dpg_bound_streams_match_closed_form(self, num_dpgs):
        rng = np.random.default_rng(20 + num_dpgs)
        for macs in (16, 64, 256):
            lens = rng.integers(1, 65, size=30)
            uniform = np.repeat(rng.integers(1, macs + 1, size=30), lens)
            dpg_bound = rng.integers(1, max(macs // num_dpgs, 1) + 1, size=int(lens.sum()))
            ends = np.cumsum(lens)
            for p in (uniform, dpg_bound):
                packed = _pack_cycles(p, lens, num_dpgs, macs)
                for q, ((cyc, ncyc), lo, hi) in enumerate(zip(packed, ends - lens, ends)):
                    want = _pack_closed_form(p[lo:hi], num_dpgs, macs)
                    assert np.array_equal(cyc, want), (q, num_dpgs, macs)
                    assert ncyc == want[-1] + 1

    def test_over_budget_task_raises(self, monkeypatch):
        """An over-budget task's jump is itself: both forms stop and raise."""
        for form in _PACKING_FORMS:
            _force_packing_form(monkeypatch, form)
            with pytest.raises(SimulationError, match="no progress"):
                _pack_lockstep(np.array([3, 65, 2]), np.array([3]), 8, 64)

    @pytest.mark.parametrize("variant", ["default", "no-conflict", "4dpg", "16dpg", "fp32"])
    def test_mixed_uniform_and_packed_batch(self, variant, monkeypatch):
        """A batch mixing uniform, MAC-bound non-uniform and empty blocks
        equals stepping, and every block reaches the batch's one
        ``_pack_lockstep`` call with all its T3 tasks (none for the empty
        one): no block is packed any other way."""
        packed = []
        monkeypatch.setattr(fastpath, "_pack_lockstep", lambda p, lens, *rest: (
            packed.append(lens.copy()), _pack_lockstep(p, lens, *rest))[1])
        rng = np.random.default_rng(4)
        dense = np.ones((16, 16), bool)
        tasks = [T1Task.from_bitmaps(dense, dense),
                 T1Task.from_bitmaps(np.zeros((16, 16), bool), dense)]
        for density in (0.3, 0.5, 0.7, 0.9):
            for _ in range(4):
                tasks.append(T1Task.from_bitmaps(rng.random((16, 16)) < density,
                                                 rng.random((16, 16)) < density))
            tasks.append(T1Task.from_bitmaps(dense, dense))
        stc = MODEL_VARIANTS[variant]()
        batch = simulate_blocks(stc, tasks)
        assert_results_equal(batch, [stepped_block(stc, t) for t in tasks], variant)
        t3_tasks = batch[:, ACTION_COL["queue_ops"]] // 2 - batch[:, ACTION_COL["accum_accesses"]]
        assert len(packed) == 1 and np.array_equal(packed[0], t3_tasks)
        assert np.array_equal(packed[0] > 0, batch[:, PRODUCTS] > 0)
        assert (packed[0] > 0).sum() == len(tasks) - 1
