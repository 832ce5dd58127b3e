"""The persistent content-addressed result store (:mod:`repro.store`).

Covers the on-disk format and its failure modes (torn tails, interior
corruption, manifest drift), multi-writer convergence, gc/compaction,
cross-process fingerprint stability, and the block-cache second tier
as runs reach it through the engine's store binding.
"""

from __future__ import annotations

import signal
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
from repro.kernels.vector import SparseVector
from repro.sim import engine
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.store import (
    MANIFEST_NAME,
    ResultStore,
    STORE_SCHEMA,
    encode_record,
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

    def test_insert_renders_once_and_never_frames_a_duplicate(self, root, monkeypatch):
        calls = {"render": 0, "frame": 0}

        def spy(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        monkeypatch.setattr(resultstore, "_render",
                            spy("render", resultstore._render))
        monkeypatch.setattr(resultstore, "_frame",
                            spy("frame", resultstore._frame))
        with ResultStore(root) as store:
            assert store.insert(_key(1), _row(1)) is True
            assert calls == {"render": 1, "frame": 1}
            (seg,) = _segments(store)
            size = seg.stat().st_size
            assert store.insert(_key(1), _row(1)) is False
            assert calls == {"render": 2, "frame": 1}
            assert seg.stat().st_size == size

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

    @pytest.mark.parametrize("schema", [1, 2, 3])
    def test_old_schema_store_must_be_rebuilt(self, root, schema):
        """Schema 1 held float64 counts, schema 2 bool-grid keys and
        schema 3 a key digest in every frame, where schema 4 addresses
        int64 rows by their packed-pattern key bytes; the manifest
        refuses them before any frame is read."""
        import json

        with ResultStore(root) as store:
            store.insert(_key(1), _row(1))
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["schema"] = schema
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

    def test_non_empty_directory_is_never_initialised(self, tmp_path):
        # A non-empty directory without a manifest is a mistyped path
        # (an output directory, the working directory): refused and
        # left exactly as it was.
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        (outputs / "report.json").write_text("{}")
        with pytest.raises(FormatError, match="non-empty directory"):
            ResultStore(outputs)
        assert sorted(p.name for p in outputs.iterdir()) == ["report.json"]
        # An empty directory, like a missing path, becomes a store.
        empty = tmp_path / "empty"
        empty.mkdir()
        with ResultStore(empty) as store:
            store.insert(_key(1), _row(1))
        with ResultStore(empty) as store:
            assert store.lookup(_key(1))[0] == 1


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

    @pytest.mark.parametrize("torn", [False, True])
    def test_killed_writer_keeps_every_returned_insert(self, root, torn):
        """Each insert that returned True is one write() that reached the
        OS: a writer SIGKILLed with no flush and no close leaves all of
        its records readable.  This shows what reached the OS (the page
        cache), not what reached the disk; only flush()/close() fsync."""
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from repro.arch.base import VECTOR_WIDTH\n"
            "from repro.store import ResultStore\n"
            "store = ResultStore(sys.argv[1])\n"
            "for i in range(1, 51):\n"
            "    key = ('ns', bytes([i]) * 4, bytes([i % 251, i % 7]))\n"
            "    row = np.arange(VECTOR_WIDTH, dtype=np.int64) * i\n"
            "    assert store.insert(key, row)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(root)],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.wait(timeout=60) == -signal.SIGKILL
        (seg,) = sorted((root / "segments").glob("*.seg"))
        clean = seg.stat().st_size
        if torn:  # the kill landed mid-append: half a frame at the tail
            record = encode_record(_key(99), _row(99))
            with open(seg, "ab") as fh:
                fh.write(record[:len(record) // 2])
        with ResultStore(root) as store:
            assert len(store) == 50 and store.stats.quarantined == 0
            for i in range(1, 51):
                want = np.arange(VECTOR_WIDTH, dtype=np.int64) * i
                assert np.array_equal(store.lookup(_key(i)), want)
        with ResultStore(root, repair=True) as store:
            assert len(store) == 50
        assert seg.stat().st_size == clean

    def test_short_write_raises_and_indexes_nothing(self, root):
        class HalfWriter:
            """An append handle whose next write() lands half the frame."""

            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                return self.raw.write(data[:len(data) // 2])

            def __getattr__(self, name):
                return getattr(self.raw, name)

        with ResultStore(root) as store:
            assert store.insert(_key(1), _row(1)) is True
            (seg,) = _segments(store)
            clean = seg.stat().st_size
            raw = store._writer
            store._writer = HalfWriter(raw)
            with pytest.raises(OSError, match="short write"):
                store.insert(_key(2), _row(2))
            store._writer = raw
            assert len(store) == 1 and store.lookup(_key(2)) is None
            assert seg.stat().st_size == clean  # the half frame is gone
            assert store.insert(_key(3), _row(3)) is True
        with ResultStore(root) as store:
            assert len(store) == 2 and store.stats.quarantined == 0
            assert store.lookup(_key(3))[0] == 3

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
        # threads; interleaved insert (the writer's end offset) and
        # lookup (the reader table, one pread each) must stay coherent.
        # The second input, 16 threads, outnumbers a CI runner's cores,
        # and a short switch interval preempts threads mid-call.
        from concurrent.futures import ThreadPoolExecutor

        def work(store, i):
            for j in range(40):
                key = _key(j % 251, ns=f"t{i}")
                assert store.insert(key, _row(j % 100)) is True
                got = store.lookup(key)
                assert got is not None and got[0] == j % 100

        for threads in (8, 16):
            path = root / f"threads-{threads}"
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ResultStore(path) as store:
                    with ThreadPoolExecutor(max_workers=threads) as pool:
                        futures = [pool.submit(work, store, i)
                                   for i in range(threads)]
                        for future in futures:
                            future.result(timeout=120)
                    assert len(store) == threads * 40
                    report = store.verify(strict=True)
                    assert report["records"] == threads * 40
            finally:
                sys.setswitchinterval(interval)
            with ResultStore(path) as fresh:
                report = fresh.verify(strict=True)
            assert report["records"] == threads * 40
            assert report["errors"] == []


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
    def test_record_bytes_are_stable_across_processes(self, root):
        # The record's key bytes are its address: another process must
        # frame the same key and row byte for byte.
        key = (UniSTC().cache_key(), b"\x01\x02\x03", b"\x04\x05")
        row = np.arange(VECTOR_WIDTH, dtype=np.int64)
        script = (
            "import numpy as np\n"
            "from repro.arch.base import VECTOR_WIDTH\n"
            "from repro.arch.unistc import UniSTC\n"
            "from repro.store import encode_record\n"
            "print(encode_record((UniSTC().cache_key(),\n"
            "                     b'\\x01\\x02\\x03', b'\\x04\\x05'),\n"
            "                    np.arange(VECTOR_WIDTH, dtype=np.int64)).hex())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == encode_record(key, row).hex()

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
        records = {
            encode_record((ns, b"a", b"b"), _row(1)) for ns in keys + [baseline]
        }
        assert len(records) == len(keys) + 1

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

    def test_uni_stc_sweep_keys_hold_packed_patterns(self, root):
        """A real sweep's records key on packed patterns: 32 bytes per A
        block and 16-wide B panel, 2 per vector segment, so at most 64
        operand bytes per payload key."""
        bbc = BBCMatrix.from_coo(banded(96, 10, 0.4, seed=3))
        x = SparseVector.from_dense(np.arange(96) % 3 == 0)
        with ResultStore(root) as store:
            cache = BlockCache(store=store)
            for kernel, operands in (("spmv", {}), ("spmspv", {"x": x}),
                                     ("spmm", {"b_cols": 40}), ("spgemm", {})):
                simulate_kernel(kernel, bbc, UniSTC(), cache=cache, **operands)
            store.flush()
            records = len(store)
        keys = []
        for seg in _segments(store):
            blob, offset = seg.read_bytes(), 0
            while offset < len(blob):
                _, length, _ = resultstore._PREFIX.unpack_from(blob, offset)
                offset += resultstore._PREFIX.size
                keys.append(resultstore._payload_key(blob[offset:offset + length]))
                offset += length
        assert len(keys) == records == cache.stats.inserts > 0
        assert {(len(a), len(b)) for _, a, b in keys} == {(32, 2), (32, 32)}
        assert max(len(a) + len(b) for _, a, b in keys) <= 64

    def test_resilient_runner_end_to_end(self, root):
        from repro.resilience.runner import ResilientRunner
        from repro.sim.sweep import Sweep

        matrices = {"banded": banded(96, 10, 0.4, seed=2)}
        sweep = Sweep.from_names(matrices, ["uni-stc"], ["spmv"])
        engine.clear_cache()
        with ResultStore(root) as store, engine.store_tier(store):
            first = ResilientRunner(sweep=sweep).run()
        engine.clear_cache()
        with ResultStore(root) as store:
            records = len(store)
            assert records > 0
            before = engine.cache_stats().snapshot()
            with engine.store_tier(store):
                second = ResilientRunner(sweep=sweep).run()
        delta = engine.cache_stats().delta(before)
        assert delta.store_hits == records  # replayed, not re-simulated
        assert delta.store_misses == 0
        r1 = first.results[0].report
        r2 = second.results[0].report
        assert (r1.cycles, r1.products) == (r2.cycles, r2.products)
        assert r1.counters.as_dict() == r2.counters.as_dict()


class TestStoreCLI:
    @pytest.mark.parametrize("schema", [1, 2, 3])
    def test_old_schema_store_is_one_error_line(self, root, tmp_path, capsys, schema):
        import json

        from repro.cli import main

        ResultStore(root).close()
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["schema"] = schema
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        argv = ["corpus", "--limit", "1", "--store", str(root),
                "--run-dir", str(tmp_path / "runs")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rebuild it" in err
        assert "Traceback" not in err

    def test_non_empty_directory_is_refused(self, tmp_path, capsys):
        from repro.cli import main

        outputs = tmp_path / "outputs"
        outputs.mkdir()
        (outputs / "report.json").write_text("{}")
        argv = ["corpus", "--limit", "1", "--store", str(outputs),
                "--run-dir", ""]
        assert main(argv) == 2
        assert "non-empty directory" in capsys.readouterr().err
        assert sorted(p.name for p in outputs.iterdir()) == ["report.json"]

    def test_store_actions_are_stat_verify_gc(self, root, capsys):
        from repro.cli import main

        ResultStore(root).close()
        with pytest.raises(SystemExit) as exc:
            main(["store", "import", str(root)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
