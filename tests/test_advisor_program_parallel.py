"""Tests for the format advisor, UWMMA programs and multi-core scaling."""

import numpy as np
import pytest

from repro.arch.program import compile_kernel, iter_numeric_cycles, validate_program
from repro.arch.unistc import UniSTC
from repro.errors import SimulationError
from repro.formats import BBCMatrix, COOMatrix
from repro.formats.advisor import CANDIDATES, analyse, recommend
from repro.kernels.vector import SparseVector
from repro.sim.engine import simulate_kernel
from repro.sim.parallel import (
    block_row_work,
    partition_block_rows,
    simulate_parallel,
)
from repro.workloads.synthetic import banded, long_rows, random_uniform

from tests.stepped_models import stepped_block


class TestAdvisor:
    def test_dense_blocks_pick_bbc(self):
        """Nearly-dense blocks: BBC wins (BSR pays 8 B per padding zero)."""
        rng = np.random.default_rng(3)
        dense = (rng.random((64, 64)) < 0.85) * 1.0
        report = analyse(COOMatrix.from_dense(dense))
        assert report.recommendation == "bbc"
        assert report.reduction_vs_csr("bbc") > 5.0

    def test_permutation_picks_csr(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(256)
        coo = COOMatrix((256, 256), np.arange(256), perm, np.ones(256))
        assert recommend(coo) == "csr"

    def test_all_candidates_measured(self, small_coo):
        report = analyse(small_coo)
        assert set(report.metadata_bytes) == set(CANDIDATES)
        assert all(v > 0 for v in report.metadata_bytes.values())

    def test_nnz_per_block_statistic(self):
        coo = COOMatrix.from_dense(np.ones((16, 16)))
        assert analyse(coo).nnz_per_block == 256.0


class TestUWMMAProgram:
    @pytest.fixture(scope="class")
    def bbc(self):
        return BBCMatrix.from_coo(banded(96, 10, 0.5, seed=2))

    def test_program_structure(self, bbc):
        result = compile_kernel("spmv", bbc)
        validate_program(result)
        assert result.t1_tasks == bbc.nblocks
        assert len(result.instructions) == 4 * result.t1_tasks

    def test_numeric_cycles_match_simulator(self, bbc):
        """Numeric instructions carry the per-block exec cycles (clamped
        to the Table V ceiling)."""
        uni = UniSTC()
        result = compile_kernel("spgemm", bbc, uni)
        report = simulate_kernel("spgemm", bbc, uni)
        assert sum(iter_numeric_cycles(result)) <= report.cycles + 64 * result.t1_tasks
        assert result.numeric_cycles >= result.t1_tasks  # >= 1 each

    def test_task_gen_is_asynchronous(self, bbc):
        result = compile_kernel("spmv", bbc)
        gen = [i for i in result.instructions if i.opcode.startswith("stc.task_gen")]
        assert gen and all(i.asynchronous for i in gen)
        assert all(i.sm_cycles == 1 for i in gen)

    def test_overlap_hides_generation(self, bbc):
        """Steady-state: stalls stay far below total generation time."""
        result = compile_kernel("spgemm", bbc)
        total_gen = sum(
            i.cycles for i in result.instructions if i.opcode.startswith("stc.task_gen")
        )
        assert result.stall_cycles < total_gen
        assert result.overlap_efficiency > 0.5

    def test_first_block_pays_pipeline_fill(self, bbc):
        result = compile_kernel("spmv", bbc)
        numerics = [i for i in result.instructions if i.opcode.startswith("stc.numeric")]
        assert numerics[0].stall_cycles == 2  # PIPELINE_STAGES - 1

    def test_sm_cycles_exceed_numeric(self, bbc):
        result = compile_kernel("spmv", bbc)
        assert result.sm_cycles > result.numeric_cycles

    def test_spmspv_program(self, bbc):
        x = SparseVector(bbc.shape[1], [0, 40], [1.0, 1.0])
        result = compile_kernel("spmspv", bbc, x=x)
        validate_program(result)
        assert result.t1_tasks >= 1

    @pytest.mark.parametrize("kernel,operands", [
        ("spmv", {}), ("spmspv", {}), ("spmm", {"b_cols": 64}),
        ("spmm", {"b_cols": 40}), ("spgemm", {}),
    ], ids=["spmv", "spmspv", "spmm64", "spmm40", "spgemm"])
    def test_program_equals_stepped_oracle(self, bbc, kernel, operands):
        """The batch walked in per-object order issues exactly the
        program the stepped generators and models issue
        (spmm at 40 columns interleaves full and tail panels)."""
        from repro.arch.program import _issue_program
        from tests.stepped import kernel_tasks

        if kernel == "spmspv":
            operands = {"x": SparseVector(bbc.shape[1], [0, 17, 40, 90], [1.0] * 4)}
        uni = UniSTC()
        stepped = _issue_program(kernel, uni, (
            (stepped_block(uni, task).cycles, task.weight)
            for task in kernel_tasks(kernel, bbc, **operands)))
        result = compile_kernel(kernel, bbc, uni, **operands)
        assert result.t1_tasks == stepped.t1_tasks > 0
        assert result.instructions == stepped.instructions

    def test_validate_rejects_malformed(self):
        from repro.arch.program import ExecutedInstruction, ProgramResult

        bad = ProgramResult(kernel="spmv", t1_tasks=1)
        bad.instructions = [ExecutedInstruction("stc.numeric.mv", 1, False)]
        with pytest.raises(SimulationError):
            validate_program(bad)


class TestLoadBalancing:
    @pytest.fixture(scope="class")
    def bbc(self):
        return BBCMatrix.from_coo(long_rows(192, heavy_rows=3, seed=5))

    def test_work_positive_on_live_rows(self, bbc):
        work = block_row_work(bbc, "spmv")
        assert work.sum() == bbc.nnz  # spmv work = nonzeros

    def test_spgemm_work_counts_block_pairs(self, bbc):
        from repro.kernels.batched import spgemm_batch

        work = block_row_work(bbc, "spgemm")
        assert work.sum() == len(spgemm_batch(bbc, bbc))

    def test_partition_covers_everything(self):
        work = np.array([5, 1, 9, 2, 2, 7, 1, 3])
        parts = partition_block_rows(work, 3)
        covered = [i for p in parts for i in p]
        assert covered == list(range(8))

    def test_partition_balances(self):
        work = np.ones(100, dtype=np.int64)
        parts = partition_block_rows(work, 4)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_partition_rejects_zero_parts(self):
        with pytest.raises(SimulationError):
            partition_block_rows(np.ones(4, dtype=np.int64), 0)

    def test_single_part_is_whole_range(self):
        parts = partition_block_rows(np.arange(6), 1)
        assert parts == [range(0, 6)]


class TestSimulateParallel:
    @pytest.fixture(scope="class")
    def bbc(self):
        return BBCMatrix.from_coo(banded(160, 14, 0.4, seed=9))

    def test_work_conserved(self, bbc):
        serial = simulate_kernel("spmv", bbc, UniSTC())
        par = simulate_parallel("spmv", bbc, UniSTC, n_cores=4)
        assert par.total_cycles == serial.cycles
        assert sum(r.products for r in par.per_core) == serial.products

    def test_wall_clock_speedup(self, bbc):
        serial = simulate_kernel("spgemm", bbc, UniSTC())
        par = simulate_parallel("spgemm", bbc, UniSTC, n_cores=4)
        assert par.wall_cycles < serial.cycles
        assert 1.0 < par.speedup_vs_single() <= 4.0

    def test_energy_is_aggregate(self, bbc):
        serial = simulate_kernel("spmv", bbc, UniSTC())
        par = simulate_parallel("spmv", bbc, UniSTC, n_cores=4)
        assert par.total_energy_pj == pytest.approx(serial.energy_pj, rel=1e-9)

    def test_load_imbalance_at_least_one(self, bbc):
        par = simulate_parallel("spmv", bbc, UniSTC, n_cores=4)
        assert par.load_imbalance >= 1.0

    def test_spmm_weighted_tasks(self, bbc):
        serial = simulate_kernel("spmm", bbc, UniSTC(), b_cols=64)
        par = simulate_parallel("spmm", bbc, UniSTC, n_cores=2, b_cols=64)
        assert par.total_cycles == serial.cycles

    def test_spmspv_requires_x(self, bbc):
        with pytest.raises(SimulationError):
            simulate_parallel("spmspv", bbc, UniSTC, n_cores=2)

    def test_spmspv_matches_serial(self, bbc):
        x = SparseVector(bbc.shape[1], [0, 32, 64], np.ones(3))
        serial = simulate_kernel("spmspv", bbc, UniSTC(), x=x)
        par = simulate_parallel("spmspv", bbc, UniSTC, n_cores=3, x=x)
        assert par.total_cycles == serial.cycles

    def test_unknown_kernel_rejected(self, bbc):
        with pytest.raises(SimulationError):
            simulate_parallel("gemm", bbc, UniSTC)

    def test_imbalanced_matrix_shows_imbalance(self):
        arrow = BBCMatrix.from_coo(long_rows(192, heavy_rows=2, heavy_density=0.9,
                                             background_density=0.002, seed=1))
        par = simulate_parallel("spgemm", arrow, UniSTC, n_cores=4)
        uniform = BBCMatrix.from_coo(random_uniform(192, 192, 0.05, seed=1))
        par_uniform = simulate_parallel("spgemm", uniform, UniSTC, n_cores=4)
        assert par.load_imbalance >= par_uniform.load_imbalance * 0.9
