"""Tests for the hardened block-cache persistence layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.unistc import UniSTC
from repro.errors import FormatError
from repro.formats.bbc import BBCMatrix
from repro.sim import cachestore, engine
from repro.sim.engine import simulate_kernel
from repro.workloads.synthetic import banded


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    engine.clear_cache()
    yield
    engine.clear_cache()


def warm_cache():
    bbc = BBCMatrix.from_coo(banded(96, 10, 0.4, seed=1))
    simulate_kernel("spmv", bbc, UniSTC())
    assert engine.cache_size() > 0


class TestChecksum:
    def test_roundtrip_carries_checksum(self, tmp_path):
        warm_cache()
        path = tmp_path / "cache.npz"
        written = cachestore.save_cache(path)
        with np.load(path, allow_pickle=True) as data:
            assert int(data["version"][0]) == cachestore.CACHE_VERSION
            assert "checksum" in data
        engine.clear_cache()
        assert cachestore.load_cache(path) == written

    def test_payload_tamper_is_rejected(self, tmp_path):
        """A bit-level upset anywhere in the payload fails the checksum."""
        warm_cache()
        path = tmp_path / "cache.npz"
        cachestore.save_cache(path)
        data = dict(np.load(path, allow_pickle=True))
        data["scalars"] = data["scalars"].copy()
        data["scalars"][0, 0] += 1  # one cycle count nudged
        np.savez_compressed(path, **data)
        with pytest.raises(FormatError, match="checksum"):
            cachestore.load_cache(path)

    def test_roundtrip_restores_identical_rows(self, tmp_path):
        warm_cache()
        before = {key: row.copy() for key, row in engine.get_cache().items()}
        path = tmp_path / "cache.npz"
        cachestore.save_cache(path)
        engine.clear_cache()
        cachestore.load_cache(path)
        after = dict(engine.get_cache().items())
        assert after.keys() == before.keys()
        for key, row in after.items():
            assert row.dtype == np.int64 and np.array_equal(row, before[key])

    def test_fractional_counter_is_rejected(self, tmp_path):
        """Counters are stored as float64 but must be integral: a
        checksum-valid archive with a fractional count still fails."""
        warm_cache()
        path = tmp_path / "cache.npz"
        cachestore.save_cache(path)
        data = dict(np.load(path, allow_pickle=True))
        data["counters"] = data["counters"].copy()
        data["counters"][0, 0] += 0.5
        data["checksum"] = np.asarray([cachestore._payload_checksum(
            data["namespaces"], data["a_bits"], data["b_bits"],
            data["scalars"], data["bins"], data["counters"])], dtype=np.int64)
        np.savez_compressed(path, **data)
        with pytest.raises(FormatError, match="non-integer"):
            cachestore.load_cache(path)

    def test_entry_count_disagreement_is_rejected(self, tmp_path):
        warm_cache()
        path = tmp_path / "cache.npz"
        cachestore.save_cache(path)
        data = dict(np.load(path, allow_pickle=True))
        data["scalars"] = data["scalars"][:-1]
        np.savez_compressed(path, **data)
        with pytest.raises(FormatError):
            cachestore.load_cache(path)


class TestMalformedArchives:
    def test_truncated_file(self, tmp_path):
        warm_cache()
        path = tmp_path / "cache.npz"
        cachestore.save_cache(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            cachestore.load_cache(path)

    def test_zeroed_span_inside_archive(self, tmp_path):
        warm_cache()
        path = tmp_path / "cache.npz"
        cachestore.save_cache(path)
        blob = bytearray(path.read_bytes())
        mid = len(blob) // 2
        blob[mid: mid + 64] = bytes(64)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            cachestore.load_cache(path)

    def test_not_an_archive_at_all(self, tmp_path):
        path = tmp_path / "cache.npz"
        path.write_bytes(b"definitely not a zip file")
        with pytest.raises(FormatError):
            cachestore.load_cache(path)

    def test_missing_field(self, tmp_path):
        warm_cache()
        path = tmp_path / "cache.npz"
        cachestore.save_cache(path)
        data = dict(np.load(path, allow_pickle=True))
        del data["checksum"]
        np.savez_compressed(path, **data)
        with pytest.raises(FormatError):
            cachestore.load_cache(path)

    def test_failed_load_leaves_memory_cache_untouched(self, tmp_path):
        warm_cache()
        before = engine.cache_size()
        path = tmp_path / "cache.npz"
        path.write_bytes(b"junk")
        with pytest.raises(FormatError):
            cachestore.load_cache(path, merge=False)
        assert engine.cache_size() == before


class TestLoadOrCold:
    def test_missing_file_is_silent_cold_start(self, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            assert cachestore.load_cache_or_cold(tmp_path / "nope.npz") == 0
        assert not caplog.records

    def test_corrupt_file_warns_and_rebuilds_cold(self, tmp_path, caplog):
        path = tmp_path / "cache.npz"
        path.write_bytes(b"junk")
        with caplog.at_level("WARNING", logger="repro.sim.cachestore"):
            assert cachestore.load_cache_or_cold(path) == 0
        assert any("rebuilding cold" in r.message for r in caplog.records)

    def test_valid_file_loads_normally(self, tmp_path):
        warm_cache()
        path = tmp_path / "cache.npz"
        written = cachestore.save_cache(path)
        engine.clear_cache()
        assert cachestore.load_cache_or_cold(path) == written
        assert engine.cache_size() == written
