"""Multi-core scaling: static warp-level load balancing (§V-A).

The paper deploys 4 Uni-STCs per SM x 108 SMs and distributes work
with the `warpRow`/`warpIndex`/`warpRowId` arrays — a *static* balance
that assigns each warp a contiguous range of block rows with roughly
equal work.  This module implements that partitioner over BBC block
rows and simulates a kernel across ``n_cores`` independent STC
instances: wall-clock cycles are the slowest core's (the parallel
completion rule), energy is the sum.

Per-core task enumeration delegates to the *same* batched builders the
serial engine uses (:mod:`repro.kernels.batched`, restricted to the
core's block-row range), so the serial and parallel task streams are
one implementation and cannot drift.  All cores share one block-result
memo (the engine's process-wide LRU, or an explicit ``cache``), so a
pattern simulated on one core is a hit on every other.

Each core runs through :func:`repro.sim.engine.simulate_batches`, so
the cold misses of every core are dispatched through the model's
batched evaluator (:meth:`~repro.arch.base.STCModel.simulate_blocks`,
an array evaluator for every registered model) — multi-core
sweeps get the fast cold path for free, with the same block rows a
serial run gets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.arch.base import STCModel
from repro.energy.model import DEFAULT_MODEL, EnergyModel
from repro.errors import SimulationError
from repro.formats.bbc import BBCMatrix
from repro.kernels.batched import kernel_task_batches
from repro.kernels.partition import block_row_work, partition_block_rows
from repro.kernels.vector import SparseVector
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_batches
from repro.sim.results import SimReport


# ``block_row_work`` / ``partition_block_rows`` moved to
# :mod:`repro.kernels.partition` in the layering refactor; they are
# imported above both for local use and as compatibility re-exports.


@dataclass
class ParallelReport:
    """Outcome of one multi-core simulation."""

    kernel: str
    stc: str
    n_cores: int
    per_core: List[SimReport] = field(default_factory=list)

    @property
    def wall_cycles(self) -> int:
        """Parallel completion: the slowest core's cycles."""
        return max((r.cycles for r in self.per_core), default=0)

    @property
    def total_cycles(self) -> int:
        """Aggregate core-cycles (the serial-equivalent work)."""
        return sum(r.cycles for r in self.per_core)

    @property
    def total_energy_pj(self) -> float:
        return sum(r.energy_pj for r in self.per_core)

    @property
    def wall_s(self) -> float:
        """Host wall seconds summed over the per-core simulations."""
        return sum(r.wall_s for r in self.per_core)

    @property
    def load_imbalance(self) -> float:
        """max/mean core cycles; 1.0 = perfectly balanced."""
        cycles = [r.cycles for r in self.per_core if r.cycles]
        if not cycles:
            return 1.0
        return max(cycles) / (sum(cycles) / len(cycles))

    def speedup_vs_single(self) -> float:
        """Parallel speedup over running all work on one core."""
        return self.total_cycles / self.wall_cycles if self.wall_cycles else 1.0

    def fold(self, matrix: Optional[str] = None) -> SimReport:
        """Collapse the cores into one journal-ready :class:`SimReport`.

        Cycles follow the parallel completion rule (slowest core); work,
        energy, wall time and cache deltas are summed; utilisation bins
        and counters merge exactly as the serial path would accumulate
        them.
        """
        report = SimReport(stc=self.stc, kernel=self.kernel, matrix=matrix)
        report.cycles = self.wall_cycles
        cache: Dict[str, float] = {}
        for core in self.per_core:
            report.products += core.products
            report.t1_tasks += core.t1_tasks
            report.util_hist.merge(core.util_hist, 1)
            report.counters.merge(core.counters, 1)
            report.energy_pj += core.energy_pj
            for name, value in core.energy_breakdown.items():
                report.energy_breakdown[name] = (
                    report.energy_breakdown.get(name, 0.0) + value)
            report.wall_s += core.wall_s
            for name, value in core.cache.items():
                cache[name] = cache.get(name, 0.0) + value
        if cache:
            total = cache.get("hits", 0.0) + cache.get("misses", 0.0)
            cache["hit_rate"] = cache.get("hits", 0.0) / total if total else 0.0
        report.cache = cache
        return report


def simulate_parallel(
    kernel: str,
    a: BBCMatrix,
    stc_factory: Callable[[], STCModel],
    n_cores: int = 4,
    x: Optional[SparseVector] = None,
    b: Optional[BBCMatrix] = None,
    b_cols: int = 64,
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    cache: Optional[BlockCache] = None,
) -> ParallelReport:
    """Simulate one kernel across statically-balanced cores.

    ``stc_factory`` builds one model per core (models are stateless, so
    sharing one instance is also fine — the factory exists so per-core
    configurations can differ in ablations).  The first core's instance
    provides the report's display name; no throwaway model is built.
    ``cache`` (default: the engine's process-wide LRU) is shared by all
    cores.
    """
    kernel = kernel.lower()
    if kernel not in ("spmv", "spmspv", "spmm", "spgemm"):
        raise SimulationError(f"unknown kernel {kernel!r}")
    if kernel == "spmspv" and x is None:
        raise SimulationError("spmspv needs the sparse vector operand 'x'")
    work = block_row_work(a, kernel, b)
    parts = partition_block_rows(work, n_cores)
    stcs = [stc_factory() for _ in parts]
    operands = {}
    if kernel == "spmspv":
        operands["x"] = x
    elif kernel == "spmm":
        operands["b_cols"] = b_cols
    elif kernel == "spgemm" and b is not None:
        operands["b"] = b
    report = ParallelReport(kernel=kernel, stc=stcs[0].name, n_cores=n_cores)
    with obs.span("parallel", kernel=kernel, stc=stcs[0].name,
                  n_cores=n_cores):
        for core, (stc, rows) in enumerate(zip(stcs, parts)):
            with obs.span("core", core=core, rows_lo=rows.start,
                          rows_hi=rows.stop):
                core_report = simulate_batches(
                    stc,
                    kernel_task_batches(kernel, a, rows=rows, **operands),
                    kernel=kernel, energy_model=energy_model, cache=cache,
                )
            report.per_core.append(core_report)
            if obs.enabled():
                obs.observe("parallel.core_wall_s", core_report.wall_s,
                            kernel=kernel, core=core)
    if obs.enabled():
        obs.set_gauge("parallel.load_imbalance", report.load_imbalance,
                      kernel=kernel)
    return report
