"""Batched task enumeration and engine: parity with the stepped oracle.

The batched builders (:mod:`repro.kernels.batched`) and the per-object
generators of the stepped oracle (:mod:`tests.stepped`) must describe
the *same* task stream — these tests pin that down task-for-task,
through the engine (per-case ``report_digest`` identity for every
registered STC), and across the serial/parallel split (a partitioned
stream concatenates back to the serial one).
"""

import time

import numpy as np
import pytest

from repro.arch.unistc import UniSTC
from repro.errors import ShapeError
from repro.formats.bbc import PATTERNS, BBCMatrix
from repro.kernels import KERNELS
from repro.kernels.batched import (
    TaskBatch,
    coalesce_raw,
    kernel_task_batches,
    spgemm_batch,
    spmm_batch,
    spmv_batch,
)
from repro.kernels.vector import SparseVector
from repro.perf.bench import _cases, report_digest
from repro.registry import create_stc, registered_stcs
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.sim.parallel import block_row_work, partition_block_rows
from repro.workloads import synthetic
from repro.workloads.suitesparse import corpus

from tests.blocks import iter_tasks
from tests.stepped import kernel_tasks, simulate_stepped


@pytest.fixture(scope="module")
def matrices():
    return {
        "banded": BBCMatrix.from_coo(synthetic.banded(160, 16, 0.5, seed=3)),
        "random": BBCMatrix.from_coo(synthetic.random_uniform(128, 128, 0.03, seed=4)),
        "arrow": BBCMatrix.from_coo(synthetic.long_rows(128, heavy_rows=2, seed=5)),
        "rect": BBCMatrix.from_coo(synthetic.random_uniform(96, 144, 0.05, seed=6)),
    }


def _operands(kernel, a, seed=0):
    if kernel == "spmspv":
        rng = np.random.default_rng(seed)
        dense = rng.random(a.shape[1]) * (rng.random(a.shape[1]) < 0.4)
        return {"x": SparseVector.from_dense(dense)}
    if kernel == "spmm":
        return {"b_cols": 40}  # forces a full panel *and* a tail panel
    if kernel == "spgemm":
        return {"b": BBCMatrix.from_coo(
            synthetic.random_uniform(a.shape[1], 112, 0.04, seed=seed + 9)
        )}
    return {}


def _task_multiset(tasks):
    """Order-free view of a task stream with weights aggregated."""
    agg = {}
    for t in tasks:
        key = (t.a_bits, t.b_bits, t.n)
        agg[key] = agg.get(key, 0) + t.weight
    return agg


class TestStreamParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batched_equals_generator_stream(self, matrices, kernel):
        """Same weighted bitmap-pair multiset, matrix by matrix."""
        for name, a in matrices.items():
            operands = _operands(kernel, a)
            reference = _task_multiset(kernel_tasks(kernel, a, **operands))
            batched = {}
            for batch in kernel_task_batches(kernel, a, **operands):
                for key, weight in _task_multiset(iter_tasks(batch)).items():
                    batched[key] = batched.get(key, 0) + weight
            assert batched == reference, f"{kernel} stream differs on {name}"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_coalesce_preserves_totals(self, matrices, kernel):
        for a in matrices.values():
            operands = _operands(kernel, a)
            for batch in kernel_task_batches(kernel, a, **operands):
                pairs = coalesce_raw(batch)
                assert pairs.total_tasks == batch.total_tasks
                keys = set(pairs.cache_keys("ns"))
                assert len(keys) == len(pairs)
                assert _task_multiset(iter_tasks(pairs)) == _task_multiset(
                    iter_tasks(batch))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_task_cache_key_is_engine_key(self, matrices, kernel):
        """The oracle's ``T1Task.cache_key()`` (from the scalar
        ``block_bitmap``), mapped through the pattern table, is the
        engine's int key for the same entry, so stepped and vectorised
        runs share memo entries."""
        for a in matrices.values():
            operands = _operands(kernel, a)
            (batch,) = kernel_task_batches(kernel, a, **operands)
            tasks = list(kernel_tasks(kernel, a, **operands))
            stepped = [PATTERNS.memo_key("ns", *task.cache_key()) for task in tasks]
            assert stepped == batch.cache_keys("ns")
            assert all(len(t.a_bits) == 32 and len(t.b_bits) == 2 * batch.n
                       for t in tasks)
            assert [PATTERNS.key_bytes(k) for k in stepped] == [
                ("ns",) + t.cache_key() for t in tasks]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stepped_run_after_engine_run_is_all_hits(self, matrices, kernel):
        """Both paths key one memo: a stepped run of a case the engine
        has just simulated is served from the memo, entry for entry."""
        stc = UniSTC()
        for name, a in matrices.items():
            operands = _operands(kernel, a)
            cache = BlockCache(capacity=None)
            engine_report = simulate_kernel(kernel, a, stc, cache=cache, **operands)
            stepped_report = simulate_stepped(kernel, a, stc, cache=cache, **operands)
            assert stepped_report.cache["misses"] == 0, name
            assert stepped_report.cache["hits"] > 0 or not engine_report.t1_tasks, name
            assert report_digest(stepped_report) == report_digest(engine_report), name

    def test_coalesce_raw_weights_exact_past_2_53(self):
        """Aggregate weights stay in the integer domain.

        ``np.bincount``'s float64 accumulator (the old implementation)
        silently rounds totals past 2^53; ``2^53 + 1`` collapses to
        ``2^53`` there, and ``astype(int64)`` then bakes the loss in."""
        big = (1 << 53) + 1
        a = np.zeros((1, 16), dtype=np.uint16)
        a[0, 0] = 1
        b = np.full((1, 16), 0xFFFF, dtype=np.uint16)
        idx = np.zeros(2, dtype=np.int64)
        batch = TaskBatch(
            a_patterns=a, b_patterns=b, a_index=idx, b_index=idx,
            weights=np.array([big, 2], dtype=np.int64), n=16,
        )
        pairs = coalesce_raw(batch)
        (weight,) = pairs.weights.tolist()
        assert pairs.weights.dtype == np.int64 and isinstance(weight, int)
        assert weight == big + 2
        assert float(weight) != weight  # the exact total has no float64 form

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_serial_and_partitioned_streams_agree(self, matrices, kernel):
        """A row-partitioned stream concatenates to the serial stream.

        This is the single-enumeration guarantee: ``simulate_parallel``
        restricts the same builders by block-row range, so the parallel
        stream cannot drift from the serial one.
        """
        for a in matrices.values():
            operands = _operands(kernel, a)
            serial = list(kernel_tasks(kernel, a, **operands))
            work = block_row_work(
                a, kernel, operands.get("b") if kernel == "spgemm" else None
            )
            parts = partition_block_rows(work, 3)
            partitioned = [
                task
                for rows in parts
                for task in kernel_tasks(kernel, a, rows=rows, **operands)
            ]
            assert [
                (t.a_bits, t.b_bits, t.n, t.weight) for t in partitioned
            ] == [(t.a_bits, t.b_bits, t.n, t.weight) for t in serial]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_partitioned_batches_cover_serial_stream(self, matrices, kernel):
        for a in matrices.values():
            operands = _operands(kernel, a)
            reference = _task_multiset(kernel_tasks(kernel, a, **operands))
            combined = {}
            work = block_row_work(
                a, kernel, operands.get("b") if kernel == "spgemm" else None
            )
            for rows in partition_block_rows(work, 4):
                for batch in kernel_task_batches(kernel, a, rows=rows, **operands):
                    for key, w in _task_multiset(iter_tasks(batch)).items():
                        combined[key] = combined.get(key, 0) + w
            assert combined == reference


def _cold_pass(simulate, stc_name, cases):
    """Wall seconds and reports of one pass over ``cases`` from a fresh cache."""
    cache = BlockCache()
    t0 = time.perf_counter()
    reports = [simulate(kernel, bbc, create_stc(stc_name), cache=cache,
                        matrix=label, **operands)
               for label, bbc, kernel, operands in cases]
    return time.perf_counter() - t0, reports


@pytest.fixture(scope="module")
def identity_runs():
    """Every registered STC x the bench's cases, stepped and vectorised.

    The cases are ``repro bench --smoke``'s: 4 kernels x
    ``corpus(sizes=(128,), limit=4)`` with the bench's operands, so 16
    per STC.  Each STC runs cold through both paths; the vectorised
    path runs best-of-3 for its timing.
    """
    mats = [(spec.name, BBCMatrix.from_coo(spec.matrix()))
            for spec in corpus(sizes=(128,), limit=4)]
    cases = _cases(mats, KERNELS)
    runs = {}
    for name in registered_stcs():
        stepped_s, stepped = _cold_pass(simulate_stepped, name, cases)
        timed = [_cold_pass(simulate_kernel, name, cases) for _ in range(3)]
        runs[name] = {
            "stepped_s": stepped_s,
            "vectorised_s": min(seconds for seconds, _ in timed),
            "stepped": stepped,
            "vectorised": timed[-1][1],
        }
    return runs


class TestEngineParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batched_and_legacy_reports_match(self, identity_runs, matrices,
                                              kernel):
        """Per-case ``report_digest`` identity, stepped oracle vs
        ``simulate_kernel``: cycles, products, tasks, histogram,
        counters and energy, byte for byte.  Every registered STC on
        the bench's cases, plus uni-stc on the synthetic matrices with
        a tail panel (spmm) and a rectangular B (spgemm)."""
        for name, run in identity_runs.items():
            pairs = [(s, v) for s, v in zip(run["stepped"], run["vectorised"])
                     if s.kernel == kernel]
            assert len(pairs) == 4
            for stepped, vectorised in pairs:
                assert report_digest(vectorised) == report_digest(stepped), (
                    f"{name} {kernel} {stepped.matrix}")
        for label, a in matrices.items():
            operands = _operands(kernel, a)
            stepped = simulate_stepped(kernel, a, UniSTC(), cache=BlockCache(),
                                       matrix=label, **operands)
            vectorised = simulate_kernel(kernel, a, UniSTC(), cache=BlockCache(),
                                         matrix=label, **operands)
            assert report_digest(vectorised) == report_digest(stepped), (
                f"uni-stc {kernel} {label}")

    def test_vectorised_cold_pass_beats_stepped_oracle(self, identity_runs):
        """A cold uni-stc pass over the bench's cases is at least 2x
        faster vectorised than through the stepped oracle."""
        run = identity_runs["uni-stc"]
        assert run["stepped_s"] / run["vectorised_s"] >= 2.0

    def test_empty_matrix_all_kernels(self):
        empty = BBCMatrix.from_coo(synthetic.random_uniform(64, 64, 0.0, seed=1))
        for kernel in KERNELS:
            operands = _operands(kernel, empty)
            report = simulate_kernel(
                kernel, empty, UniSTC(), cache=BlockCache(), **operands
            )
            assert report.cycles == 0
            assert report.t1_tasks == 0


class TestRowRanges:
    def test_rejects_non_contiguous_range(self, matrices):
        a = matrices["banded"]
        with pytest.raises(ShapeError):
            spmv_batch(a, rows=range(0, a.block_rows, 2))
        with pytest.raises(ShapeError):
            list(kernel_tasks("spmv", a, rows=range(0, a.block_rows, 2)))

    def test_rejects_out_of_bounds_range(self, matrices):
        a = matrices["banded"]
        with pytest.raises(ShapeError):
            spmv_batch(a, rows=range(0, a.block_rows + 1))

    def test_empty_range_is_empty_stream(self, matrices):
        a = matrices["banded"]
        batch = spmv_batch(a, rows=range(3, 3))
        assert len(batch) == 0 and batch.total_tasks == 0
        assert list(kernel_tasks("spmv", a, rows=range(3, 3))) == []


class TestValidation:
    def test_spmm_rejects_zero_columns(self, matrices):
        with pytest.raises(ShapeError):
            spmm_batch(matrices["banded"], b_cols=0)

    def test_spgemm_inner_mismatch(self, matrices):
        with pytest.raises(ShapeError):
            spgemm_batch(matrices["banded"], b=matrices["rect"])

    def test_spmspv_requires_x(self, matrices):
        with pytest.raises(ShapeError):
            kernel_task_batches("spmspv", matrices["banded"])

    def test_unknown_kernel(self, matrices):
        with pytest.raises(ShapeError):
            kernel_task_batches("gemm", matrices["banded"])
