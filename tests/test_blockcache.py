"""The bounded LRU block cache: stats, bound, sharing, engine wiring."""

import numpy as np
import pytest

from repro.arch.base import VECTOR_WIDTH, STCModel
from repro.arch.unistc import UniSTC
from repro.errors import ConfigError
from repro.formats.bbc import BBCMatrix
from repro.kernels.batched import kernel_task_batches
from repro.perf.bench import report_digest
from repro.sim import engine
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_batches, simulate_kernel
from repro.sim.parallel import (
    block_row_work,
    partition_block_rows,
    simulate_parallel,
)
from repro.workloads import synthetic


def _key(i):
    return ("stc", bytes([i]) * 4, bytes([i]) * 2)


def _row(i):
    """A result row in the memo's byte form: every column ``i``."""
    return np.full(VECTOR_WIDTH, i, dtype="<i8").tobytes()


class _BufferReusingSTC(STCModel):
    """Uni-STC's rows, returned in one buffer that every call overwrites.

    Models own their output arrays; the memo must not keep views into
    them.
    """

    name = "buffer-reuse"

    def __init__(self):
        self._inner = UniSTC()
        self._buffer = np.zeros((4096, VECTOR_WIDTH), dtype=np.int64)
        self.calls = 0

    @property
    def macs(self):
        return self._inner.macs

    def cache_key(self):
        return f"{self.name}/{self._inner.cache_key()}"

    def simulate_blocks(self, batch):
        self.calls += 1
        out = self._buffer[:len(batch)]
        out[:] = self._inner.simulate_blocks(batch)
        return out


@pytest.fixture()
def bbc():
    return BBCMatrix.from_coo(synthetic.banded(192, 24, 0.4, seed=11))


class TestStats:
    def test_hit_miss_insert_counting(self):
        cache = BlockCache()
        assert cache.lookup(_key(1)) is None
        cache.insert(_key(1), _row(1))
        assert cache.lookup(_key(1)) == _row(1)
        assert cache.lookup(_key(2)) is None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.inserts) == (1, 2, 1)
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_zero_before_any_lookup(self):
        assert BlockCache().stats.hit_rate == 0.0

    def test_reset_and_clear(self):
        cache = BlockCache()
        cache.insert(_key(1), _row(1))
        cache.lookup(_key(1))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0 and cache.stats.inserts == 0
        cache.insert(_key(2), _row(2))
        cache.clear(reset_stats=False)
        assert len(cache) == 0 and cache.stats.inserts == 1

    def test_as_dict_round_trips_to_json_scalars(self):
        cache = BlockCache()
        cache.insert(_key(1), _row(1))
        cache.lookup(_key(1))
        d = cache.stats.as_dict()
        assert d == {"hits": 1, "misses": 0, "evictions": 0, "inserts": 1,
                     "hit_rate": 1.0}

    def test_mapping_protocol_is_stats_neutral(self):
        cache = BlockCache()
        cache[_key(1)] = _row(1)
        assert _key(1) in cache
        assert cache[_key(1)] == _row(1)
        assert cache.get(_key(2)) is None
        assert dict(cache.items())
        cache.update({_key(2): _row(2)})
        assert len(cache) == 2 and set(cache) == {_key(1), _key(2)}
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.inserts, stats.evictions) == (
            0, 0, 0, 0,
        )


class TestLRUBound:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigError):
            BlockCache(capacity=0)
        with pytest.raises(ConfigError):
            BlockCache(capacity=-3)

    def test_unbounded_when_none(self):
        cache = BlockCache(capacity=None)
        for i in range(256):
            cache.insert(_key(i), _row(i))
        assert len(cache) == 256 and cache.stats.evictions == 0

    def test_evicts_least_recently_used(self):
        cache = BlockCache(capacity=2)
        cache.insert(_key(1), _row(1))
        cache.insert(_key(2), _row(2))
        cache.lookup(_key(1))  # refresh 1; 2 becomes LRU
        cache.insert(_key(3), _row(3))
        assert _key(1) in cache and _key(3) in cache
        assert _key(2) not in cache
        assert cache.stats.evictions == 1

    def test_mapping_inserts_respect_bound(self):
        cache = BlockCache(capacity=3)
        for i in range(6):
            cache[_key(i)] = _row(i)
        assert len(cache) == 3
        cache.update({_key(i): _row(i) for i in range(10, 16)})
        assert len(cache) == 3

    def test_rebound_shrink_evicts_now(self):
        cache = BlockCache(capacity=None)
        for i in range(8):
            cache.insert(_key(i), _row(i))
        cache.lookup(_key(0))  # refresh 0 so it survives the shrink
        cache.rebound(3)
        assert cache.capacity == 3 and len(cache) == 3
        assert _key(0) in cache and _key(7) in cache
        assert cache.stats.evictions == 5

    def test_rebound_grow_and_unbind_keep_entries(self):
        cache = BlockCache(capacity=2)
        cache.insert(_key(1), _row(1))
        cache.insert(_key(2), _row(2))
        cache.rebound(64)
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.rebound(None)
        for i in range(10, 110):
            cache.insert(_key(i % 256), _row(i))
        assert len(cache) == 102 and cache.stats.evictions == 0

    def test_rebound_rejects_non_positive(self):
        cache = BlockCache()
        with pytest.raises(ConfigError):
            cache.rebound(0)
        with pytest.raises(ConfigError):
            cache.rebound(-1)

    def test_bound_holds_under_sweep(self, bbc):
        """A capacity-bounded cache never exceeds its bound across a
        multi-kernel sweep, and eviction accounting balances."""
        cache = BlockCache(capacity=16)
        for kernel in ("spmv", "spmm", "spgemm"):
            simulate_kernel(kernel, bbc, UniSTC(), cache=cache)
            assert len(cache) <= 16
        stats = cache.stats
        assert stats.inserts - stats.evictions == len(cache)
        assert stats.evictions > 0  # the sweep has > 16 distinct patterns

    def test_bounded_sweep_same_report_as_unbounded(self, bbc):
        """Eviction changes performance, never results."""
        bounded = simulate_kernel(
            "spgemm", bbc, UniSTC(), cache=BlockCache(capacity=8)
        )
        unbounded = simulate_kernel(
            "spgemm", bbc, UniSTC(), cache=BlockCache(capacity=None)
        )
        assert bounded.cycles == unbounded.cycles
        assert bounded.products == unbounded.products
        assert bounded.energy_pj == pytest.approx(unbounded.energy_pj)

    def test_cached_rows_never_alias_a_models_output(self, bbc):
        """A later ``simulate_blocks`` call overwriting its output buffer
        changes neither the memoised rows nor a warm replay's report."""
        stc = _BufferReusingSTC()
        cache = BlockCache()
        cold = simulate_kernel("spmv", bbc, stc, energy_model=None, cache=cache)
        rows = {key: bytes(row) for key, row in cache.items()}
        calls = stc.calls
        simulate_kernel("spgemm", bbc, stc, energy_model=None, cache=cache)
        assert stc.calls > calls  # spgemm's misses overwrote the buffer
        assert {key: bytes(cache[key]) for key in rows} == rows
        calls = stc.calls
        warm = simulate_kernel("spmv", bbc, stc, energy_model=None, cache=cache)
        assert stc.calls == calls  # served by the memo alone
        assert report_digest(warm) == report_digest(cold)


class TestSharing:
    def test_shared_cache_matches_isolated_caches(self, bbc):
        """Cross-core sharing is invisible in the reports: every core
        produces the same SimReport whether the memo is shared or not."""
        kernel = "spgemm"
        shared = simulate_parallel(
            kernel, bbc, UniSTC, n_cores=4, cache=BlockCache()
        )
        work = block_row_work(bbc, kernel)
        parts = partition_block_rows(work, 4)
        isolated = [
            simulate_batches(
                UniSTC(), kernel_task_batches(kernel, bbc, rows=rows),
                kernel=kernel, cache=BlockCache(),
            )
            for rows in parts
        ]
        assert len(shared.per_core) == len(isolated)
        for ours, ref in zip(shared.per_core, isolated):
            assert ours.cycles == ref.cycles
            assert ours.products == ref.products
            assert ours.t1_tasks == ref.t1_tasks
            assert np.array_equal(ours.util_hist.bins, ref.util_hist.bins)
            assert ours.energy_pj == pytest.approx(ref.energy_pj)

    def test_shared_cache_turns_repeats_into_hits(self, bbc):
        cache = BlockCache()
        simulate_parallel("spmv", bbc, UniSTC, n_cores=4, cache=cache)
        first = cache.stats.hits
        simulate_parallel("spmv", bbc, UniSTC, n_cores=4, cache=cache)
        assert cache.stats.misses == cache.stats.inserts  # no re-simulations
        assert cache.stats.hits > first


class TestEngineWiring:
    def test_process_cache_api(self, bbc):
        engine.clear_cache()
        assert engine.cache_size() == 0
        simulate_kernel("spmv", bbc, UniSTC())
        assert engine.cache_size() > 0
        assert engine.get_cache() is engine._BLOCK_CACHE
        assert engine.cache_stats().inserts == engine.cache_size()
        engine.clear_cache()
        assert engine.cache_size() == 0 and engine.cache_stats().lookups == 0

    def test_set_cache_capacity_evicts_now(self, bbc):
        engine.clear_cache()
        simulate_kernel("spgemm", bbc, UniSTC())
        assert engine.cache_size() > 4
        try:
            engine.set_cache_capacity(4)
            assert engine.cache_size() == 4
            assert engine.cache_stats().evictions > 0
        finally:
            engine.set_cache_capacity(None)
            engine.clear_cache()
