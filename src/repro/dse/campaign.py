"""Campaign orchestration: search -> evaluate -> aggregate -> frontier.

A :class:`Campaign` binds a :class:`~repro.dse.space.DesignSpace`, a
:class:`~repro.dse.strategies.SearchStrategy` and a
:class:`~repro.dse.evaluate.CachedEvaluator` and loops: the strategy
proposes candidate configs, each candidate is expanded over the
space's workload cells and evaluated (journaled, cached, fault-
isolated), per-cell evaluations are aggregated into one
:class:`ConfigSummary` per candidate, and the summaries feed the
Pareto frontier and knee-point extraction of :mod:`repro.dse.pareto`.

The frontier JSON artifact is **deterministic by construction** — no
wall-clock, no host state, sorted keys — so a cold campaign and a
``--resume`` replay of the same campaign produce byte-identical files,
and two artifacts from different code revisions diff cleanly through
:func:`repro.analysis.regression.compare_runs` (the artifact embeds a
pytest-benchmark-compatible ``benchmarks`` section).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.analysis.ascii_plot import scatter
from repro.analysis.tables import render_table
from repro.dse.evaluate import CachedEvaluator, Evaluation, campaign_fingerprint
from repro.dse.pareto import OBJECTIVES, pareto_front
from repro.dse.space import DesignPoint, DesignSpace
from repro.dse.strategies import Candidate, SearchStrategy
from repro.sim.results import geomean

#: Frontier artifact schema; bumped on incompatible layout changes.
FRONTIER_SCHEMA = 1


@dataclass(frozen=True)
class ConfigSummary:
    """One candidate config aggregated over every workload cell.

    ``cycles`` and ``energy_pj`` are summed across cells (total work
    under the suite); ``speedup``/``energy_reduction``/``eed`` are
    geomeans, the paper's aggregate for ratios.
    """

    knobs: Candidate
    cells: int
    cycles: int
    energy_pj: float
    area_mm2: float
    speedup: float
    energy_reduction: float
    eed: float

    def objectives(self) -> Dict[str, float]:
        return {
            "cycles": float(self.cycles),
            "energy_pj": float(self.energy_pj),
            "area_mm2": float(self.area_mm2),
            "eed": float(self.eed),
        }

    def label(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.knobs)


def summarise(candidate: Candidate,
              evaluations: List[Evaluation]) -> ConfigSummary:
    """Fold one candidate's per-cell evaluations into a summary."""
    return ConfigSummary(
        knobs=tuple(sorted(candidate)),
        cells=len(evaluations),
        cycles=sum(e.cycles for e in evaluations),
        energy_pj=sum(e.energy_pj for e in evaluations),
        area_mm2=evaluations[0].area_mm2,
        speedup=geomean([e.speedup for e in evaluations]),
        energy_reduction=geomean([e.energy_reduction for e in evaluations]),
        eed=geomean([e.eed for e in evaluations]) if all(
            e.eed > 0 for e in evaluations) else 0.0,
    )


@dataclass
class CampaignResult:
    """Everything a finished (or resumed) campaign produced."""

    space: DesignSpace
    strategy: str
    fingerprint: str
    summaries: List[ConfigSummary] = field(default_factory=list)
    frontier: Tuple[int, ...] = ()
    knee: int = -1
    evaluations: List[Evaluation] = field(default_factory=list)
    failed: List[Candidate] = field(default_factory=list)
    n_simulated: int = 0
    n_resumed: int = 0

    @property
    def frontier_summaries(self) -> List[ConfigSummary]:
        return [self.summaries[i] for i in self.frontier]

    @property
    def knee_summary(self) -> Optional[ConfigSummary]:
        return self.summaries[self.knee] if self.knee >= 0 else None

    def frontier_knobs(self) -> List[Dict[str, object]]:
        return [dict(s.knobs) for s in self.frontier_summaries]

    # -- artifact --------------------------------------------------------

    def to_json(self) -> dict:
        """The deterministic frontier artifact (see module docstring)."""
        frontier_set = set(self.frontier)
        benchmarks = []
        for i, s in enumerate(self.summaries):
            extra = dict(s.objectives())
            extra.update({
                "speedup": float(s.speedup),
                "energy_reduction": float(s.energy_reduction),
                "on_frontier": int(i in frontier_set),
                "knee": int(i == self.knee),
            })
            benchmarks.append({"name": f"dse:{s.label()}", "extra_info": extra})
        return {
            "schema": FRONTIER_SCHEMA,
            "kind": "repro.dse.frontier",
            "space": self.space.as_spec(),
            "strategy": self.strategy,
            "fingerprint": self.fingerprint,
            "objectives": dict(OBJECTIVES),
            "benchmarks": benchmarks,
            "frontier": [
                {"knobs": dict(s.knobs), **s.objectives(),
                 "knee": int(self.summaries.index(s) == self.knee)}
                for s in self.frontier_summaries
            ],
            "points": [
                {**e.point.as_json(), "cycles": e.cycles,
                 "sim_cycles": e.sim_cycles, "energy_pj": e.energy_pj,
                 "speedup": e.speedup, "energy_reduction": e.energy_reduction,
                 "eed": e.eed}
                for e in self.evaluations
            ],
            "failed": [dict(c) for c in self.failed],
        }

    def write_json(self, path: Union[str, Path]) -> None:
        Path(str(path)).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- rendering -------------------------------------------------------

    def render_table(self) -> str:
        """Frontier-annotated summary table for the terminal."""
        knob_names = [name for name, _ in self.space.config_axes]
        headers = knob_names + ["cycles", "energy (nJ)", "area (mm^2)",
                                "EED", "frontier"]
        frontier_set = set(self.frontier)
        rows = []
        order = sorted(range(len(self.summaries)),
                       key=lambda i: self.summaries[i].cycles)
        for i in order:
            s = self.summaries[i]
            knobs = dict(s.knobs)
            mark = "knee" if i == self.knee else ("yes" if i in frontier_set else "")
            rows.append([knobs.get(n, "-") for n in knob_names]
                        + [s.cycles, s.energy_pj / 1e3, s.area_mm2, s.eed, mark])
        return render_table(headers, rows, precision=3)

    def render_plot(self) -> str:
        """ASCII cycles-vs-area scatter; ``*`` frontier, ``@`` knee."""
        if not self.summaries:
            return "(no evaluated candidates)"
        frontier_set = set(self.frontier)
        xs = [s.area_mm2 for s in self.summaries]
        ys = [float(s.cycles) for s in self.summaries]
        marks = ["@" if i == self.knee else ("*" if i in frontier_set else ".")
                 for i in range(len(self.summaries))]
        return scatter(
            xs, ys, marks=marks,
            title="design space: cycles vs area (*: frontier, @: knee)",
            x_label="area_mm2", y_label="cycles",
        )


@dataclass
class Campaign:
    """One configured design-space exploration run."""

    space: DesignSpace
    strategy: SearchStrategy
    n_cores: int = 1
    journal_path: Optional[Union[str, Path]] = None
    resume: bool = False
    timeout_s: Optional[float] = None
    max_retries: int = 1
    #: Multi-process batch execution (``None``/``workers=0`` = in-process).
    exec_policy: Optional[object] = None

    def run(self) -> CampaignResult:
        fingerprint = campaign_fingerprint(self.space,
                                           self.strategy.signature(),
                                           self.n_cores)
        evaluator = CachedEvaluator(
            fingerprint=fingerprint,
            n_cores=self.n_cores,
            journal_path=self.journal_path,
            resume=self.resume,
            timeout_s=self.timeout_s,
            max_retries=self.max_retries,
            exec_policy=self.exec_policy,
        )
        evaluated: Dict[Candidate, Optional[ConfigSummary]] = {}
        point_evals: Dict[Candidate, List[Evaluation]] = {}
        order: List[Candidate] = []
        with obs.span("dse.campaign", strategy=self.strategy.signature(),
                      space=self.space.fingerprint(),
                      candidates=self.space.n_configs):
            while True:
                batch = [c for c in
                         self.strategy.propose(self.space, evaluated)
                         if c not in evaluated]
                if not batch:
                    break
                obs.inc("dse.batches")
                points: List[DesignPoint] = []
                for candidate in batch:
                    points.extend(self.space.expand(candidate))
                results = evaluator.evaluate(points)
                for candidate in batch:
                    cells = [results.get(p) for p in self.space.expand(candidate)]
                    order.append(candidate)
                    if any(c is None for c in cells):
                        evaluated[candidate] = None
                        obs.inc("dse.candidates_failed")
                        continue
                    point_evals[candidate] = cells
                    evaluated[candidate] = summarise(candidate, cells)
                    obs.inc("dse.candidates_evaluated")

            summaries = [evaluated[c] for c in order if evaluated[c] is not None]
            failed = [c for c in order if evaluated[c] is None]
            result = CampaignResult(
                space=self.space,
                strategy=self.strategy.signature(),
                fingerprint=fingerprint,
                summaries=summaries,
                evaluations=[e for c in order for e in point_evals.get(c, [])],
                failed=failed,
                n_simulated=evaluator.n_simulated,
                n_resumed=evaluator.n_resumed,
            )
            if summaries:
                front = pareto_front([s.objectives() for s in summaries])
                result.frontier = front.frontier
                result.knee = front.knee
            if obs.enabled():
                obs.set_gauge("dse.frontier_size", len(result.frontier))
                obs.set_gauge("dse.candidates", len(summaries))
        return result
