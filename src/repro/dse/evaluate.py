"""Cached, journaled, fault-isolated evaluation of design points.

The evaluator turns strategy-proposed batches of
:class:`~repro.dse.space.DesignPoint` into :class:`Evaluation` records
by composing the existing execution stack end to end:

- **simulation** through :func:`repro.sim.parallel.simulate_parallel`
  (statically balanced cores sharing the engine's process-wide block
  cache) or the serial engine for ``n_cores=1`` — either way the cold
  misses of each candidate config flow through the model's batched
  evaluator (:mod:`repro.arch.fastpath` for Uni-STC variants), which
  is what keeps wide campaigns over mostly-distinct configs tractable:
  a new config shares no cache entries, so DSE throughput is bound by
  exactly the cold path the batched evaluator accelerates;
- **fault isolation, retries and journaling** through
  :class:`repro.resilience.runner.ResilientRunner` — every evaluated
  point (and every baseline run) is appended to one campaign journal,
  so a killed campaign resumes by *replaying* journaled reports
  instead of re-simulating them;
- **observability** through ``dse.*`` metrics and spans.

Baseline hoisting: speedup/energy-reduction/EED are measured against
one DS-STC run per (matrix, kernel) cell, computed once per campaign
and reused by every candidate config — the fix for the old example's
habit of re-simulating the baseline inside the DPG sweep loop is a
design invariant here.

Tile bridging: the cycle-accurate model natively simulates the paper's
4x4x4 T3 task.  Candidate tiles other than 4 are evaluated by scaling
simulated cycles with the analytic Table IV model
(:func:`tile_cycle_scale`): the per-T3 timing factor times the
DPG-starvation factor, relative to the same factors at tile 4.  This
is exactly the reasoning Table IV applies, now composed with measured
per-workload behaviour.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.arch.config import UniSTCConfig
from repro.arch.tradeoffs import evaluate_tile_size
from repro.dse.space import SIMULATED_TILE, DesignPoint, DesignSpace
from repro.energy.area import eed as eed_metric
from repro.energy.area import total_area_mm2
from repro.errors import ConfigError
from repro.exec import CampaignExecutor, ExecPolicy, StcDef
from repro.registry import parse_matrix_spec, stc_factory
from repro.resilience.runner import ResilientRunner, RetryPolicy
from repro.sim.parallel import ParallelReport, simulate_parallel
from repro.sim.results import SimReport
from repro.sim.sweep import Sweep, SweepCase, SweepResult

BASELINE_STC = "ds-stc"


def tile_cycle_scale(config: UniSTCConfig) -> float:
    """Analytic cycle multiplier for a non-native T3 tile size.

    ``factor(t) = cycles_per_t3(t) * max(1, dpgs_needed(t) / num_dpgs)``
    — the Table IV timing cost times how badly the configured DPG count
    starves the MAC array — normalised to the natively simulated tile.
    Tile 4 therefore always scales by exactly 1.0.
    """
    if config.tile == SIMULATED_TILE:
        return 1.0

    def factor(tile: int) -> float:
        row = evaluate_tile_size(tile, macs=config.macs, block=config.block)
        starve = max(1.0, row.dpgs_to_saturate[0] / config.num_dpgs)
        return row.cycles_per_t3 * starve

    return factor(config.tile) / factor(SIMULATED_TILE)


@dataclass(frozen=True)
class Evaluation:
    """Objectives of one evaluated design point."""

    point: DesignPoint
    cycles: int              #: tile-bridged cycle count (the frontier axis)
    sim_cycles: int          #: raw simulated cycles at the native tile
    energy_pj: float
    area_mm2: float
    speedup: float           #: vs the DS-STC baseline on the same cell
    energy_reduction: float
    eed: float
    resumed: bool = False    #: replayed from the journal, not re-simulated

    def objectives(self) -> Dict[str, float]:
        return {
            "cycles": float(self.cycles),
            "energy_pj": float(self.energy_pj),
            "area_mm2": float(self.area_mm2),
            "eed": float(self.eed),
        }


def _fold_parallel(preport: ParallelReport, matrix: str) -> SimReport:
    """Collapse a multi-core report into one journal-ready SimReport.

    Cycles follow the parallel completion rule (slowest core); work,
    energy, wall time and cache deltas are summed; utilisation bins and
    counters merge exactly as the serial path would accumulate them.
    """
    report = SimReport(stc=preport.stc, kernel=preport.kernel, matrix=matrix)
    report.cycles = preport.wall_cycles
    cache: Dict[str, float] = {}
    for core in preport.per_core:
        report.products += core.products
        report.t1_tasks += core.t1_tasks
        report.util_hist.merge(core.util_hist, 1)
        report.counters.merge(core.counters, 1)
        report.energy_pj += core.energy_pj
        for name, value in core.energy_breakdown.items():
            report.energy_breakdown[name] = report.energy_breakdown.get(name, 0.0) + value
        report.wall_s += core.wall_s
        for name, value in core.cache.items():
            cache[name] = cache.get(name, 0.0) + value
    if cache:
        total = cache.get("hits", 0.0) + cache.get("misses", 0.0)
        cache["hit_rate"] = cache.get("hits", 0.0) / total if total else 0.0
    report.cache = cache
    return report


@dataclass
class PointSweep(Sweep):
    """A sweep over an explicit case list instead of a full grid.

    DSE batches are heterogeneous — each point binds its own config to
    its own workload cell — so the cross product a plain
    :class:`Sweep` enumerates would evaluate every config everywhere.
    ``cases()`` returns exactly the requested cells; ``run_case``
    optionally fans each cell across ``n_cores`` via
    :func:`simulate_parallel` (cores share the process-wide block
    cache).
    """

    case_list: List[SweepCase] = field(default_factory=list)
    n_cores: int = 1

    def cases(self) -> List[SweepCase]:
        return list(self.case_list)

    def run_case(self, case: SweepCase) -> SweepResult:
        if self.n_cores <= 1:
            return super().run_case(case)
        with obs.span("matrix", matrix=case.matrix_name, stc=case.stc_name,
                      kernel=case.kernel):
            bbc = self.encode(case.matrix_name)
            kwargs = {}
            if case.kernel == "spmspv":
                kwargs["x"] = self._operand(case.matrix_name, bbc)
            preport = simulate_parallel(
                case.kernel, bbc, self.stcs[case.stc_name],
                n_cores=self.n_cores, **kwargs,
            )
        return SweepResult(case=case,
                           report=_fold_parallel(preport, case.matrix_name))


def campaign_fingerprint(space: DesignSpace, strategy_signature: str) -> str:
    """Journal-binding digest: the space, the strategy and its seed."""
    digest = hashlib.sha256()
    digest.update(space.fingerprint().encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(strategy_signature.encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class CachedEvaluator:
    """Journal-backed batch evaluator shared by all strategies.

    One instance serves one campaign: matrix encodings, the DS-STC
    baseline reports and the resume state persist across batches.  The
    journal (``journal_path``) is a :mod:`repro.resilience` checkpoint
    journal bound to the campaign fingerprint; with ``resume=True`` a
    prior journal's evaluations are replayed instead of re-simulated.
    Block results persist through the result store the caller bound
    (:func:`repro.sim.engine.store_tier`, as a session does); worker
    shards inherit its root.
    """

    fingerprint: str
    n_cores: int = 1
    journal_path: Optional[Union[str, Path]] = None
    resume: bool = False
    timeout_s: Optional[float] = None
    max_retries: int = 1
    #: Multi-process execution envelope; ``None`` (or ``workers=0``)
    #: keeps batches in-process.  Distributed batches run each case
    #: serially inside its worker, so ``n_cores`` is ignored there.
    exec_policy: Optional[ExecPolicy] = None

    def __post_init__(self) -> None:
        self._sweep = PointSweep(matrices={}, stcs={}, kernels=[],
                                 n_cores=self.n_cores)
        self._stc_defs: Dict[str, StcDef] = {}
        self._baselines: Dict[Tuple[str, str], SimReport] = {}
        self._resume_next = bool(
            self.resume and self.journal_path is not None
            and Path(str(self.journal_path)).exists()
        )
        self.n_simulated = 0
        self.n_resumed = 0
        self.n_failed = 0

    # -- sweep-state plumbing --------------------------------------------

    def _ensure_matrix(self, spec: str) -> None:
        if spec not in self._sweep.matrices:
            self._sweep.matrices[spec] = parse_matrix_spec(spec)

    def _ensure_stc(self, point: DesignPoint) -> str:
        """Register the point's config under its variant name.

        The sweep key stays ``point.stc_name()`` (``uni-stc[...]``) so
        journal entries — and therefore campaign resume — are unchanged;
        the factory itself is registry-bound with the config validated
        once at registration, not re-captured per closure call.
        """
        name = point.stc_name()
        if name not in self._sweep.stcs:
            config = point.config()  # ConfigError propagates to the caller
            self._sweep.stcs[name] = stc_factory("uni-stc", config)
            # The serialisable identity worker processes rebuild the
            # same config from (knobs -> DesignPoint.config, the one
            # authoritative path).
            self._stc_defs[name] = StcDef.from_knobs(name, dict(point.knobs))
        return name

    # -- evaluation ------------------------------------------------------

    def evaluate(self, points: List[DesignPoint]) -> Dict[DesignPoint, Optional[Evaluation]]:
        """Evaluate one batch; failed points map to ``None``.

        Baseline cells the batch needs (one DS-STC run per distinct
        (matrix, kernel)) are prepended to the case list the first time
        they appear in the campaign.
        """
        by_case: Dict[Tuple[str, str, str], DesignPoint] = {}
        cases: List[SweepCase] = []
        invalid: Dict[DesignPoint, Optional[Evaluation]] = {}
        for point in points:
            try:
                stc_name = self._ensure_stc(point)
                self._ensure_matrix(point.matrix)
            except ConfigError:
                # An unbuildable point is a terminal failure of that
                # point, not of the campaign.
                invalid[point] = None
                self.n_failed += 1
                obs.inc("dse.points_failed", reason="config")
                continue
            cell = (point.matrix, point.kernel)
            if cell not in self._baselines:
                if BASELINE_STC not in self._sweep.stcs:
                    self._sweep.stcs[BASELINE_STC] = stc_factory(BASELINE_STC)
                    self._stc_defs[BASELINE_STC] = StcDef.plain(BASELINE_STC)
                base_case = SweepCase(point.matrix, BASELINE_STC, point.kernel)
                if base_case not in cases:
                    cases.append(base_case)
            case = SweepCase(point.matrix, stc_name, point.kernel)
            if case not in cases:
                cases.append(case)
            by_case[(point.matrix, stc_name, point.kernel)] = point

        out: Dict[DesignPoint, Optional[Evaluation]] = dict(invalid)
        if not cases:
            return out

        distributed = (self.exec_policy is not None
                       and self.exec_policy.distributed)
        with obs.span("dse.batch", cases=len(cases),
                      workers=self.exec_policy.workers if distributed else 0):
            if distributed:
                # DSE matrix names ARE registry specs, so shards carry
                # them verbatim; worker journals merge back into the
                # campaign journal in this batch's case order.
                executor = CampaignExecutor(
                    matrices={case.matrix_name: case.matrix_name
                              for case in cases},
                    stcs=[self._stc_defs[name]
                          for name in sorted({c.stc_name for c in cases})],
                    kernels=sorted({c.kernel for c in cases}),
                    cases=cases,
                    journal_path=self.journal_path,
                    resume=self._resume_next,
                    fingerprint=self.fingerprint,
                    timeout_s=self.timeout_s or 0.0,
                    max_retries=self.max_retries,
                    policy=self.exec_policy,
                )
                summary = executor.run()
            else:
                self._sweep.case_list = cases
                runner = ResilientRunner(
                    self._sweep,
                    timeout_s=self.timeout_s,
                    retry=RetryPolicy(max_retries=self.max_retries),
                    journal_path=self.journal_path,
                    resume=self._resume_next,
                    fingerprint=self.fingerprint,
                )
                summary = runner.run()
        if self.journal_path is not None:
            # Later batches must append to the journal just written.
            self._resume_next = True

        reports: Dict[Tuple[str, str, str], Tuple[SimReport, bool]] = {}
        for outcome in summary.outcomes:
            key = (outcome.case.matrix_name, outcome.case.stc_name,
                   outcome.case.kernel)
            if outcome.status == "ok":
                reports[key] = (outcome.report, outcome.resumed)
                if outcome.resumed:
                    self.n_resumed += 1
                    obs.inc("dse.points_resumed")
                else:
                    self.n_simulated += 1
                    obs.inc("dse.points_simulated")
            else:
                obs.inc("dse.points_failed", reason=outcome.failure.taxonomy)

        for key, (report, _resumed) in reports.items():
            matrix, stc_name, kernel = key
            if stc_name == BASELINE_STC:
                self._baselines[(matrix, kernel)] = report

        for key, point in by_case.items():
            got = reports.get(key)
            base = self._baselines.get((point.matrix, point.kernel))
            if got is None or base is None:
                out[point] = None
                self.n_failed += 1
                continue
            report, resumed = got
            out[point] = self._evaluation(point, report, base, resumed)
        return out

    @staticmethod
    def _evaluation(point: DesignPoint, report: SimReport,
                    baseline: SimReport, resumed: bool) -> Evaluation:
        config = point.config()
        scale = tile_cycle_scale(config)
        cycles = max(1, int(round(report.cycles * scale)))
        speedup = baseline.cycles / cycles
        energy_reduction = (baseline.energy_pj / report.energy_pj
                            if report.energy_pj > 0 else 0.0)
        efficiency = (eed_metric(speedup, energy_reduction, "uni-stc", config,
                                 baseline=BASELINE_STC)
                      if speedup > 0 and energy_reduction > 0 else 0.0)
        return Evaluation(
            point=point,
            cycles=cycles,
            sim_cycles=report.cycles,
            energy_pj=report.energy_pj,
            area_mm2=total_area_mm2(config),
            speedup=speedup,
            energy_reduction=energy_reduction,
            eed=efficiency,
            resumed=resumed,
        )
