"""The persistent content-addressed result store (:mod:`repro.store`).

Covers the on-disk format and its failure modes (torn tails, interior
corruption, manifest drift), multi-writer convergence, gc/compaction,
cross-process fingerprint stability, the block-cache second tier, and
the legacy ``cachestore`` shim that routes store paths here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch.base import ACTION_COL, VECTOR_WIDTH
from repro.arch.config import FP32, UniSTCConfig
from repro.arch.unistc import UniSTC
from repro.errors import DataCorruptionError, FormatError
from repro.formats.bbc import BBCMatrix
from repro.sim import cachestore, engine
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.store import (
    MANIFEST_NAME,
    ResultStore,
    STORE_SCHEMA,
    encode_record,
    key_digest,
)
from repro.store import resultstore
from repro.workloads.synthetic import banded

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _key(i: int, ns: str = "ns"):
    return (ns, bytes([i]) * 4, bytes([i % 251, i % 7]))


def _row(i: int) -> np.ndarray:
    """A result row: cycles i, products 2i, bins [i, 0, 2i, 1], mac_ops 3i."""
    row = np.zeros(VECTOR_WIDTH, dtype=np.int64)
    row[:6] = [i, 2 * i, i, 0, 2 * i, 1]
    row[ACTION_COL["mac_ops"]] = 3 * i
    return row


def _segments(store: ResultStore):
    return sorted(store.segment_dir.glob("*.seg"))


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    engine.clear_cache()
    engine.unbind_store()
    yield
    engine.clear_cache()
    engine.unbind_store()


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "blockstore"


class TestFormat:
    def test_insert_lookup_roundtrip(self, root):
        with ResultStore(root) as store:
            assert store.lookup(_key(1)) is None
            assert store.insert(_key(1), _row(1)) is True
            got = store.lookup(_key(1))
        assert got.dtype == np.int64 and np.array_equal(got, _row(1))

    def test_record_payload_ends_in_the_row_bytes(self):
        record = encode_record(_key(3), _row(3))
        assert record.endswith(_row(3).astype("<i8").tobytes())

    def test_persists_across_reopen(self, root):
        with ResultStore(root) as store:
            for i in range(1, 6):
                store.insert(_key(i), _row(i))
            store.flush()
        with ResultStore(root) as store:
            assert len(store) == 5
            assert store.lookup(_key(3))[0] == 3

    def test_duplicate_insert_is_dropped(self, root):
        with ResultStore(root) as store:
            assert store.insert(_key(1), _row(1)) is True
            assert store.insert(_key(1), _row(1)) is False
            assert len(store) == 1
            assert store.stats.appends == 1
            assert store.stats.duplicates == 1

    def test_insert_hashes_once_and_never_frames_a_duplicate(self, root, monkeypatch):
        calls = {"digest": 0, "encode": 0}

        def spy(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        monkeypatch.setattr(resultstore, "key_digest",
                            spy("digest", resultstore.key_digest))
        monkeypatch.setattr(resultstore, "_encode_payload",
                            spy("encode", resultstore._encode_payload))
        with ResultStore(root) as store:
            assert store.insert(_key(1), _row(1)) is True
            assert calls == {"digest": 1, "encode": 1}
            assert store.insert(_key(1), _row(1)) is False
            assert calls == {"digest": 2, "encode": 1}

    def test_stats_traffic_accounting(self, root):
        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            store.lookup(_key(1))
            store.lookup(_key(2))
            stats = store.stats
            assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
            assert stats.hit_rate == pytest.approx(0.5)
            assert stats.served_bytes > 0
            d = stats.as_dict()
            assert d["hits"] == 1 and d["misses"] == 1

    def test_describe_is_json_ready(self, root):
        import json

        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            store.flush()
            doc = store.describe()
        assert doc["kind"] == "repro.store"
        assert doc["schema"] == STORE_SCHEMA
        assert doc["records"] == 1 and doc["segments"] == 1
        assert doc["bytes"] > 0
        json.dumps(doc)  # must not raise

    def test_refresh_sees_foreign_appends(self, root):
        writer = ResultStore(root)
        reader = ResultStore(root)
        try:
            writer.insert(_key(1), _row(1))
            writer.flush()
            assert reader.lookup(_key(1)) is None  # not yet scanned
            assert reader.refresh() == 1
            assert reader.lookup(_key(1))[0] == 1
        finally:
            writer.close()
            reader.close()


class TestManifest:
    def test_missing_store_without_create_is_an_error(self, root):
        with pytest.raises(FormatError, match="no result store"):
            ResultStore(root, create=False)

    def test_schema_drift_is_rejected(self, root):
        import json

        ResultStore(root).close()
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["schema"] = STORE_SCHEMA + 99
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="schema"):
            ResultStore(root)

    def test_schema_1_store_must_be_rebuilt(self, root):
        """Schema 1 held float64 counts where schema 2 holds int64 ones,
        in records of the same size: only the manifest tells them apart."""
        import json

        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["schema"] = 1
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="rebuild it: delete"):
            ResultStore(root)

    def test_actions_vocabulary_drift_is_rejected(self, root):
        import json

        ResultStore(root).close()
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["actions"] = manifest["actions"][:-1]
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="ACTIONS"):
            ResultStore(root)

    def test_foreign_manifest_kind_is_rejected(self, root):
        root.mkdir(parents=True)
        (root / MANIFEST_NAME).write_text('{"kind": "something-else"}')
        with pytest.raises(FormatError, match="not a repro.store"):
            ResultStore(root)


class TestCrashSemantics:
    def _store_with_torn_tail(self, root, records=3, torn=20):
        """A closed store whose single segment ends mid-record."""
        with ResultStore(root) as store:
            for i in range(1, records + 1):
                store.insert(_key(i), _row(i))
            store.flush()
            (seg,) = _segments(store)
        clean = seg.stat().st_size
        extra = encode_record(_key(99), _row(99))[:torn]
        with open(seg, "ab") as fh:
            fh.write(extra)
        return seg, clean

    def test_torn_tail_tolerated_without_repair(self, root):
        seg, clean = self._store_with_torn_tail(root)
        with ResultStore(root) as store:
            assert len(store) == 3
            assert store.lookup(_key(2))[0] == 2
        # A live reader must not touch a foreign segment: the tail may
        # be another writer's append in progress.
        assert seg.stat().st_size == clean + 20

    def test_torn_tail_truncated_with_repair(self, root):
        seg, clean = self._store_with_torn_tail(root)
        with ResultStore(root, repair=True) as store:
            assert len(store) == 3
        assert seg.stat().st_size == clean

    def test_torn_payload_tolerated_too(self, root):
        # Tail cut inside the payload (prefix complete): still a torn
        # append, not interior corruption.
        seg, clean = self._store_with_torn_tail(root, torn=60)
        with ResultStore(root) as store:
            assert len(store) == 3
            assert store.stats.quarantined == 0

    def test_shrunk_segment_rescans_without_zero_extension(self, root):
        # A foreign gc/quarantine may *shrink* a segment a reader has
        # already scanned.  The resume offset must clamp to the new
        # EOF: a repair-mode truncate at the stale offset would
        # zero-extend the file, manufacturing framing garbage that the
        # next scan quarantines.
        with ResultStore(root) as writer:
            for i in range(1, 5):
                writer.insert(_key(i), _row(i))
            writer.flush()
            (seg,) = _segments(writer)
            full = seg.stat().st_size

            reader = ResultStore(root, repair=True)
            assert len(reader) == 4
            shrunk = full // 2
            seg.write_bytes(seg.read_bytes()[:shrunk])
            assert reader.refresh() == 0
            # No zero-extension past the new EOF, and no quarantine.
            assert seg.stat().st_size <= shrunk
            assert reader.stats.quarantined == 0
            # Stale beyond-EOF index entries degrade to misses, and
            # the segment is rescanned once it grows again.
            assert reader.lookup(_key(4)) is None
            writer.insert(_key(9), _row(9))
            writer.flush()
            assert reader.refresh() >= 1
            assert reader.lookup(_key(9))[0] == 9
            reader.close()

    def test_interior_corruption_quarantines_segment(self, root):
        with ResultStore(root) as store:
            for i in range(1, 4):
                store.insert(_key(i), _row(i))
            store.flush()
            (seg,) = _segments(store)
        data = bytearray(seg.read_bytes())
        data[60] ^= 0xFF  # flip one payload byte of the first record
        seg.write_bytes(bytes(data))
        with ResultStore(root) as store:
            assert len(store) == 0  # whole segment dropped from index
            assert store.stats.quarantined == 1
            assert not _segments(store)
            quarantined = list(store.segment_dir.glob("*.quarantined*"))
            assert len(quarantined) == 1
            # The store stays writable after quarantine.
            assert store.insert(_key(7), _row(7)) is True
            assert store.lookup(_key(7))[0] == 7

    def test_bad_magic_quarantines_segment(self, root):
        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            store.flush()
            (seg,) = _segments(store)
        data = bytearray(seg.read_bytes())
        data[0:4] = b"JUNK"
        seg.write_bytes(bytes(data))
        with ResultStore(root) as store:
            assert len(store) == 0
            assert store.stats.quarantined == 1

    def test_verify_clean_and_corrupt(self, root):
        with ResultStore(root) as store:
            for i in range(1, 4):
                store.insert(_key(i), _row(i))
            store.flush()
            report = store.verify()
            assert report["records"] == 3 and report["errors"] == []
            (seg,) = _segments(store)
        # Corrupt a record *after* indexing: verify's CRC re-read (not
        # the open-time scan) must catch it.
        store = ResultStore(root)
        try:
            assert len(store) == 3
            data = bytearray(seg.read_bytes())
            data[-5] ^= 0xFF
            seg.write_bytes(bytes(data))
            report = store.verify()
            assert report["records"] < 3
            assert report["errors"]
            with pytest.raises(DataCorruptionError):
                store.verify(strict=True)
        finally:
            store.close()

    def test_concurrent_writers_converge(self, root):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.store import ResultStore\n"
            "from repro.arch.base import VECTOR_WIDTH\n"
            "root, tag = sys.argv[1], int(sys.argv[2])\n"
            "with ResultStore(root) as store:\n"
            "    for i in range(40):\n"
            "        store.insert(('ns', b'\\x01\\x02', b'\\x03'),\n"
            "                     np.full(VECTOR_WIDTH, 11, dtype=np.int64))\n"
            "        store.insert(('w%d' % tag, bytes([i]), b'x'),\n"
            "                     np.full(VECTOR_WIDTH, i, dtype=np.int64))\n"
            "    store.flush()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(tag)],
                env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            )
            for tag in (1, 2)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        with ResultStore(root) as store:
            # The racing key converged to exactly one readable record...
            got = store.lookup(("ns", b"\x01\x02", b"\x03"))
            assert got is not None and got[0] == 11
            # ...and nothing either writer appended was lost.
            assert len(store) == 1 + 2 * 40
            assert store.verify()["errors"] == []


class TestThreadSafety:
    def test_one_handle_shared_across_threads(self, root):
        # ThreadingHTTPServer hands one store handle to many handler
        # threads; interleaved insert (shared writer offset) and
        # lookup (shared reader seek/read) must stay coherent.
        from concurrent.futures import ThreadPoolExecutor

        with ResultStore(root) as store:
            def work(i):
                for j in range(40):
                    key = _key(j % 251, ns=f"t{i}")
                    assert store.insert(key, _row(j % 100)) is True
                    got = store.lookup(key)
                    assert got is not None and got[0] == j % 100

            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(work, range(8)))
            assert len(store) == 8 * 40
            report = store.verify(strict=True)
            assert report["records"] == 8 * 40 and report["errors"] == []


class TestGC:
    def test_gc_compacts_to_one_segment(self, root):
        for generation in range(3):  # three writer sessions -> 3 segments
            with ResultStore(root) as store:
                for i in range(1, 5):
                    store.insert(_key(10 * generation + i),
                                 _row(10 * generation + i))
                store.flush()
        with ResultStore(root, repair=True) as store:
            assert store.segments == 3
            report = store.gc()
            assert report.kept == 12 and report.dropped == 0
            assert report.segments_removed == 3
            assert store.segments == 1
            assert len(store) == 12
            assert store.lookup(_key(21))[0] == 21
        # The compacted store reopens clean.
        with ResultStore(root) as store:
            assert len(store) == 12
            assert store.verify()["errors"] == []

    def test_gc_budget_keeps_newest(self, root):
        with ResultStore(root) as store:
            for i in range(1, 11):
                store.insert(_key(i), _row(i))
            store.flush()
            per_record = store.bytes // 10
            report = store.gc(max_bytes=3 * per_record)
            assert report.kept == 3 and report.dropped == 7
            assert store.bytes <= 3 * per_record
            # Newest-append-first survival: the last three keys live on.
            for i in (8, 9, 10):
                assert store.lookup(_key(i)) is not None
            for i in (1, 2, 3):
                assert store.lookup(_key(i)) is None


class TestFingerprintStability:
    def test_digest_is_stable_across_processes(self, root):
        key = (UniSTC().cache_key(), b"\x01\x02\x03", b"\x04\x05")
        script = (
            "from repro.arch.unistc import UniSTC\n"
            "from repro.store import key_digest\n"
            "print(key_digest((UniSTC().cache_key(),\n"
            "                  b'\\x01\\x02\\x03', b'\\x04\\x05')).hex())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == key_digest(key).hex()

    def test_every_knob_changes_the_key(self):
        baseline = UniSTC().cache_key()
        variants = [
            UniSTC(UniSTCConfig(precision=FP32)),
            UniSTC(UniSTCConfig(num_dpgs=4)),
            UniSTC(UniSTCConfig(adaptive_ordering=False)),
            UniSTC(UniSTCConfig(dynamic_gating=False)),
            UniSTC(UniSTCConfig(conflict_stall=False)),
            UniSTC(UniSTCConfig(dpg_wakeup_cycles=3)),
            UniSTC(UniSTCConfig(lookahead_cycles=2)),
            UniSTC(ordering="inner"),
            UniSTC(fill_order="n"),
        ]
        keys = [stc.cache_key() for stc in variants]
        assert baseline not in keys
        assert len(set(keys)) == len(keys)  # pairwise distinct too
        digests = {
            key_digest((ns, b"a", b"b")) for ns in keys + [baseline]
        }
        assert len(digests) == len(keys) + 1

    def test_identical_configs_share_a_namespace(self):
        assert UniSTC().cache_key() == UniSTC(UniSTCConfig()).cache_key()


class TestBlockCacheTier:
    def test_store_hit_promotes_into_lru(self, root):
        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
            cache = BlockCache(store=store)
            assert cache.lookup(_key(1))[0] == 1
            assert (cache.stats.hits, cache.stats.store_hits) == (1, 1)
            # Promotion: the second lookup is pure LRU.
            assert cache.lookup(_key(1))[0] == 1
            assert (cache.stats.hits, cache.stats.store_hits) == (2, 1)
            assert store.stats.hits == 1

    def test_store_miss_counts_once(self, root):
        with ResultStore(root) as store:
            cache = BlockCache(store=store)
            assert cache.lookup(_key(1)) is None
            assert (cache.stats.misses, cache.stats.store_misses) == (1, 1)

    def test_insert_writes_through(self, root):
        with ResultStore(root) as store:
            cache = BlockCache(store=store)
            cache.insert(_key(5), _row(5))
            assert store.lookup(_key(5))[0] == 5

    def test_as_dict_keys_appear_only_with_store_traffic(self, root):
        cache = BlockCache()
        cache.insert(_key(1), _row(1))
        cache.lookup(_key(1))
        assert "store_hits" not in cache.stats.as_dict()
        with ResultStore(root) as store:
            tiered = BlockCache(store=store)
            tiered.lookup(_key(2))
            d = tiered.stats.as_dict()
            assert d["store_misses"] == 1 and d["store_hits"] == 0
            assert "store_hit_rate" in d

    def test_store_tier_context_manager(self, root):
        with ResultStore(root) as store:
            assert engine.bound_store() is None
            with engine.store_tier(store):
                assert engine.bound_store() is store
            assert engine.bound_store() is None

    def test_fresh_lru_replays_entirely_from_store(self, root):
        bbc = BBCMatrix.from_coo(banded(96, 10, 0.4, seed=3))
        with ResultStore(root) as store:
            cold = BlockCache(store=store)
            first = simulate_kernel("spmv", bbc, UniSTC(), cache=cold)
            assert cold.stats.inserts > 0
            store.flush()

            warm = BlockCache(store=store)  # a "new process": empty LRU
            second = simulate_kernel("spmv", bbc, UniSTC(), cache=warm)
            assert warm.stats.inserts == 0       # nothing re-simulated
            assert warm.stats.store_misses == 0  # every block served
            assert warm.stats.store_hits == cold.stats.inserts
        assert second.cycles == first.cycles
        assert second.products == first.products
        assert second.counters.as_dict() == first.counters.as_dict()


class TestCachestoreShim:
    def _warm_engine(self):
        bbc = BBCMatrix.from_coo(banded(96, 10, 0.4, seed=1))
        simulate_kernel("spmv", bbc, UniSTC())
        assert engine.cache_size() > 0

    def test_is_store_path(self, root, tmp_path):
        assert cachestore.is_store_path(root) is False  # nothing there yet
        ResultStore(root).close()
        assert cachestore.is_store_path(root) is True
        npz = tmp_path / "cache.npz"
        npz.write_bytes(b"")
        assert cachestore.is_store_path(npz) is False
        # An empty directory may become a store; a non-empty directory
        # without a manifest (a typo'd path, an output dir) must not be
        # silently initialised as one.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cachestore.is_store_path(empty) is True
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        (outputs / "report.json").write_text("{}")
        assert cachestore.is_store_path(outputs) is False

    def test_save_cache_routes_to_store(self, root):
        # An existing store directory routes the save; a path yet to
        # be created is by contract a legacy .npz target (Session
        # creates the store before any save reaches the shim).
        ResultStore(root).close()
        self._warm_engine()
        written = cachestore.save_cache(root)
        assert written == engine.cache_size()
        with ResultStore(root) as store:
            assert len(store) == written
        # Re-saving writes nothing new: the return value counts
        # appended records, not the store's total.
        assert cachestore.save_cache(root) == 0

    def test_load_cache_or_cold_binds_store(self, root):
        ResultStore(root).close()
        self._warm_engine()
        entries = engine.cache_size()
        cachestore.save_cache(root)
        engine.clear_cache()
        assert engine.bound_store() is None
        assert cachestore.load_cache_or_cold(root) == entries
        assert engine.bound_store() is not None
        assert engine.bound_store().root == Path(root)

    def test_migrate_cache_from_legacy_npz(self, root, tmp_path):
        self._warm_engine()
        npz = tmp_path / "cache.npz"
        written = cachestore.save_cache(npz)
        engine.clear_cache()
        appended = cachestore.migrate_cache(npz, root)
        assert appended == written
        # Re-migration is a no-op: everything deduplicates.
        assert cachestore.migrate_cache(npz, root) == 0
        with ResultStore(root) as store:
            assert len(store) == written
            assert store.verify()["errors"] == []

    def test_resilient_runner_end_to_end(self, root):
        from repro.resilience.runner import ResilientRunner
        from repro.sim.sweep import Sweep

        ResultStore(root).close()  # an existing store routes the shim
        matrices = {"banded": banded(96, 10, 0.4, seed=2)}
        sweep = Sweep.from_names(matrices, ["uni-stc"], ["spmv"])
        first = ResilientRunner(sweep=sweep, cache_path=root).run()
        engine.clear_cache()
        engine.unbind_store()
        with ResultStore(root) as store:
            records = len(store)
        assert records > 0

        before = engine.cache_stats().snapshot()
        second = ResilientRunner(sweep=sweep, cache_path=root).run()
        delta = engine.cache_stats().delta(before)
        assert delta.store_hits == records  # replayed, not re-simulated
        assert delta.store_misses == 0
        r1 = first.results[0].report
        r2 = second.results[0].report
        assert (r1.cycles, r1.products) == (r2.cycles, r2.products)
        assert r1.counters.as_dict() == r2.counters.as_dict()
