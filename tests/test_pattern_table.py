"""The pattern table behind the int memo keys (:class:`PatternTable`).

Every memo key is one int over two interned pattern ids.  These tests
pin the table's contract, with tiny bounds set inside the tests that
need them: it never outgrows the bound, a sweep across several epochs
reports what an unbounded one does, a key made before a reset never
reaches another pattern's row or store record, a warm case interns no
matrix pattern, and concurrent interning gives one id per pattern.
The store half pins that addresses rendered from ids are the schema-4
bytes, so stores written with byte keys still serve.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.arch.base import VECTOR_WIDTH
from repro.arch.unistc import UniSTC
from repro.errors import ConfigError
from repro.formats import bbc
from repro.formats.bbc import (DEFAULT_PATTERN_BOUND, ID_BITS, PAIR_BITS, PATTERNS,
                               BBCMatrix, PatternKeys, PatternTable)
from repro.kernels import KERNELS
from repro.kernels.batched import coalesce_raw, kernel_task_batches
from repro.kernels.vector import SparseVector
from repro.perf.bench import report_digest
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.store import ResultStore, encode_record
from repro.store.resultstore import _render
from repro.workloads import synthetic


@pytest.fixture()
def bound():
    """Sets the process table's bound for one test (a reset if it is
    already past it), and restores the default afterwards."""
    yield PATTERNS.rebound
    PATTERNS.rebound(DEFAULT_PATTERN_BOUND)


def _row(i: int) -> bytes:
    return np.full(VECTOR_WIDTH, i, dtype="<i8").tobytes()


def _pattern(i: int) -> bytes:
    return np.full(16, i, dtype="<u2").tobytes()


def _sweep_cases():
    """Small matrices x the four kernels, each case with its operands."""
    rng = np.random.default_rng(5)
    mats = [BBCMatrix.from_coo(synthetic.banded(96, 10, 0.5, seed=s)) for s in (1, 2)]
    mats += [BBCMatrix.from_coo(synthetic.random_uniform(80, 80, 0.06, seed=s))
             for s in (3, 4)]
    for a in mats:
        for kernel in KERNELS:
            operands = {}
            if kernel == "spmspv":
                dense = rng.random(a.shape[1]) * (rng.random(a.shape[1]) < 0.4)
                operands["x"] = SparseVector.from_dense(dense)
            elif kernel == "spmm":
                operands["b_cols"] = 40
            yield kernel, a, operands


def _sweep(cache: BlockCache):
    stc = UniSTC()
    return [report_digest(simulate_kernel(kernel, a, stc, cache=cache, **ops))
            for kernel, a, ops in _sweep_cases()]


def _pair_bytes(batch, namespace):
    """Each entry's ``(namespace, A key, B key)``, read off its patterns."""
    return [(namespace, batch.a_patterns[ai].tobytes(), batch.b_patterns[bi].tobytes())
            for ai, bi in zip(batch.a_index.tolist(), batch.b_index.tolist())]


class TestBound:
    def test_never_exceeds_the_bound(self):
        table = PatternTable(bound=12)
        rng = np.random.default_rng(0)
        epochs = set()
        for _ in range(200):
            keys = [_pattern(int(i)) for i in rng.integers(0, 40, rng.integers(1, 9))]
            epoch, (ids,) = table.intern(keys)
            assert len(table) <= 12
            assert table.epoch == epoch
            assert [table._state.fields[i] for i in ids.tolist()] == keys
            epochs.add(epoch)
        assert len(epochs) >= 3

    def test_one_call_past_the_bound_gets_an_epoch_of_its_own(self):
        table = PatternTable(bound=4)
        table.intern([_pattern(0)])
        epoch, (a, b) = table.intern([_pattern(i) for i in range(1, 4)],
                                     [_pattern(i) for i in range(3, 7)])
        assert epoch == 1 and len(table) == 6
        assert a.tolist() == [0, 1, 2] and b.tolist() == [2, 3, 4, 5]
        assert table.intern([_pattern(1)])[0] == 1  # nothing new: no reset
        assert table.intern([_pattern(9)])[0] == 2 and len(table) == 1

    def test_one_call_past_the_id_bits_is_refused(self, monkeypatch):
        monkeypatch.setattr(bbc, "ID_BITS", 3)
        table = PatternTable(bound=4)
        with pytest.raises(ConfigError, match="ids a memo key can carry"):
            table.intern([_pattern(i) for i in range(9)])
        assert len(table) == 0 and table.epoch == 0

    @pytest.mark.parametrize("bad", (0, -1, (1 << ID_BITS) + 1))
    def test_bound_must_fit_an_id(self, bad):
        with pytest.raises(ConfigError):
            PatternTable(bound=bad)

    def test_sweep_across_epochs_matches_an_unbounded_run(self, bound, tmp_path):
        """With a bound a few matrices wide the sweep crosses several
        epochs; its reports are byte-identical to an unbounded run's,
        and the store it writes through serves a later replay whole."""
        unbounded = _sweep(BlockCache(capacity=None))
        bound(48)
        first = PATTERNS.epoch
        with ResultStore(tmp_path / "store") as store:
            bounded = _sweep(BlockCache(capacity=None, store=store))
        assert PATTERNS.epoch - first >= 3
        assert len(PATTERNS) <= 48
        assert bounded == unbounded
        bound(DEFAULT_PATTERN_BOUND)
        with ResultStore(tmp_path / "store") as store:
            cache = BlockCache(store=store)
            assert _sweep(cache) == unbounded
            assert cache.stats.store_misses == 0 and cache.stats.store_hits > 0


class TestWarmCases:
    def test_a_warm_case_interns_no_matrix_pattern(self, monkeypatch):
        """Matrices, the SpMV/SpMM module tables and SpMSpV's vectors
        cache their ids, so enumerating a case a second time interns
        nothing at all."""
        cases = list(_sweep_cases())
        for kernel, a, operands in cases:
            kernel_task_batches(kernel, a, **operands)
        interned = []
        intern = PATTERNS.intern
        monkeypatch.setattr(PATTERNS, "intern",
                            lambda *lists: interned.append(lists) or intern(*lists))
        for kernel, a, operands in cases:
            kernel_task_batches(kernel, a, **operands)
        assert interned == []

    def test_a_vector_enumerated_after_a_reset_carries_current_ids(self, bound):
        """A vector's cached segments re-intern in a new epoch, as a
        matrix's patterns do: the batch's ids and keys are the new
        epoch's, and name the same pattern bytes."""
        for kernel, a, operands in _sweep_cases():
            if kernel != "spmspv":
                continue
            (before,) = kernel_task_batches(kernel, a, **operands)
            bound(1)
            bound(DEFAULT_PATTERN_BOUND)
            (after,) = kernel_task_batches(kernel, a, **operands)
            assert before.epoch < after.epoch == PATTERNS.epoch
            pairs = coalesce_raw(after)
            keys = pairs.cache_keys("ns")
            assert [PATTERNS.key_bytes(k) for k in keys] == _pair_bytes(pairs, "ns")
            assert np.array_equal(before.b_patterns, after.b_patterns)
            assert np.array_equal(before.b_index, after.b_index)


class TestStaleKeys:
    def test_a_copied_key_list_interns_afresh(self):
        """Ids belong to one process's table, so a pickled or copied key
        list carries none of them."""
        keys = PatternKeys([_pattern(1), _pattern(2)])
        epoch, (ids,) = PATTERNS.ids(keys)
        for copied in (pickle.loads(pickle.dumps(keys)), copy.copy(keys), copy.deepcopy(keys)):
            assert copied == keys and copied.interned == (-1, None)
            assert PATTERNS.ids(copied)[1][0].tolist() == ids.tolist()

    def test_a_key_from_before_a_reset_never_reaches_another_pattern(self, bound, tmp_path):
        a1, b1, a2, b2 = (_pattern(i) for i in (1, 2, 3, 4))
        bound(4)  # resets: the process table is far fuller than 4
        with ResultStore(tmp_path / "store") as store:
            cache = BlockCache(store=store)
            old = PATTERNS.memo_key("ns", a1, b1)
            cache.insert(old, _row(1))
            PATTERNS.intern([_pattern(i) for i in range(10, 13)])  # reset
            new = PATTERNS.memo_key("ns", a2, b2)                # reset again
            # Same id bits, another prefix: the keys differ.
            assert new & ((1 << PAIR_BITS) - 1) == old & ((1 << PAIR_BITS) - 1)
            assert new != old
            assert PATTERNS.address(old) is None and PATTERNS.key_bytes(old) is None
            assert cache.lookup(new) is None and store.lookup(new) is None
            assert store.lookup(old) is None and store.insert(old, _row(9)) is False
            assert cache.lookup(old) == _row(1)  # its own row, still
            cache.insert(new, _row(2))
            assert store.lookup(new) == _row(2)
            # Re-keyed in the current epoch, the old triple finds its record.
            assert store.lookup(PATTERNS.memo_key("ns", a1, b1)) == _row(1)
            assert store.verify(strict=True)["records"] == 2

    def test_a_batch_built_before_a_reset_keys_a_fresh_prefix(self, bound):
        a = BBCMatrix.from_coo(synthetic.banded(64, 8, 0.5, seed=7))
        (batch,) = kernel_task_batches("spmv", a)
        keys = coalesce_raw(batch).cache_keys("ns")
        bound(1)
        bound(DEFAULT_PATTERN_BOUND)
        stale = coalesce_raw(batch).cache_keys("ns")
        assert not set(stale) & set(keys)
        assert all(PATTERNS.address(k) is None for k in stale + keys)
        (rebuilt,) = kernel_task_batches("spmv", a)
        assert rebuilt.epoch == PATTERNS.epoch != batch.epoch
        fresh = coalesce_raw(rebuilt).cache_keys("ns")
        assert [PATTERNS.key_bytes(k) for k in fresh] == _pair_bytes(coalesce_raw(rebuilt), "ns")


def _run_threads(work, count: int = 8) -> None:
    """``work(t)`` on ``count`` threads released together, with a short
    switch interval so they interleave inside the table's methods."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


class TestThreads:
    def test_eight_threads_get_one_id_per_pattern(self):
        table = PatternTable()
        patterns = [_pattern(i) for i in range(400)]
        start = threading.Barrier(8)
        got = [None] * 8

        def work(t):
            rng = np.random.default_rng(t)
            keys = [patterns[i] for i in rng.integers(0, 400, 600)]
            start.wait(timeout=60)
            seen = {}
            for lo in range(0, 600, 50):
                epoch, (ids,) = table.intern(keys[lo:lo + 50])
                assert epoch == 0
                for key, i in zip(keys[lo:lo + 50], ids.tolist()):
                    assert seen.setdefault(key, i) == i
            got[t] = seen

        _run_threads(work)
        merged = {}
        for seen in got:
            for key, i in seen.items():
                assert merged.setdefault(key, i) == i
        assert sorted(merged.values()) == list(range(len(table))) == list(range(len(merged)))

    def test_concurrent_namespaces_get_distinct_prefixes(self):
        table = PatternTable()
        start = threading.Barrier(8)
        bases = [None] * 8

        def work(t):
            start.wait(timeout=60)
            bases[t] = [table.key_base(f"ns{i}", 0) for i in range(50)]

        _run_threads(work)
        assert all(b == bases[0] for b in bases)
        assert len(set(bases[0])) == 50


class TestStoreAddresses:
    def test_addresses_from_ids_are_the_byte_keys_rendering(self):
        """For every key of a corpus sweep the address the store renders
        from interned fields is ``_render`` of the byte key."""
        namespace = UniSTC().cache_key()
        checked = 0
        for kernel, a, operands in _sweep_cases():
            for batch in kernel_task_batches(kernel, a, **operands):
                pairs = coalesce_raw(batch)
                keys = pairs.cache_keys(namespace)
                for key, byte_key in zip(keys, _pair_bytes(pairs, namespace)):
                    assert PATTERNS.address(key) == _render(byte_key, {})
                    assert PATTERNS.key_bytes(key) == byte_key
                checked += len(keys)
        assert checked > 500

    def test_a_store_of_byte_keyed_records_serves_every_lookup(self, tmp_path):
        """A segment of ``encode_record`` frames, the schema-4 bytes
        written from byte keys (pinned by ``TestSchema4Records``), serves
        a sweep through an int-keyed cache with no miss."""
        stc = UniSTC()
        namespace = stc.cache_key()
        memo = BlockCache(capacity=None)
        want = _sweep(memo)
        frames = []
        for kernel, a, operands in _sweep_cases():
            for batch in kernel_task_batches(kernel, a, **operands):
                pairs = coalesce_raw(batch)
                for key, byte_key in zip(pairs.cache_keys(namespace),
                                         _pair_bytes(pairs, namespace)):
                    frames.append(encode_record(byte_key, memo[key]))
        root = tmp_path / "store"
        ResultStore(root).close()
        (root / "segments" / "bytes.seg").write_bytes(b"".join(frames))
        with ResultStore(root) as store:
            assert store.verify(strict=True)["errors"] == []
            cache = BlockCache(store=store)
            assert _sweep(cache) == want
            assert cache.stats.store_misses == 0
            assert cache.stats.store_hits == store.stats.hits > 0
