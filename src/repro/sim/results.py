"""Simulation reports and their aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.arch.counters import Counters
from repro.arch.tasks import UtilHistogram
from repro.errors import SimulationError

#: Host fields of a report: how long it took and how the block cache
#: served it.  They differ between runs of the same case, so report
#: digests, journal merges and service bodies leave them out.
HOST_FIELDS = ("wall_s", "cache")


@dataclass
class SimReport:
    """Aggregate outcome of running one kernel on one STC."""

    stc: str
    kernel: str
    cycles: int = 0
    products: int = 0
    t1_tasks: int = 0
    util_hist: UtilHistogram = field(default_factory=UtilHistogram)
    counters: Counters = field(default_factory=Counters)
    energy_pj: float = 0.0
    energy_breakdown: Dict[str, float] = field(default_factory=dict)
    matrix: Optional[str] = None
    #: Wall-clock seconds this simulation took (host time, not model
    #: cycles); always recorded — two clock reads per run.
    wall_s: float = 0.0
    #: Per-run block-cache counter deltas (hits/misses/evictions/
    #: inserts/hit_rate), so sweeps attribute cache behaviour to the
    #: right matrix instead of reading the ever-accumulating process
    #: totals.
    cache: Dict[str, float] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """This run's block-cache hit rate (0.0 when untracked)."""
        return float(self.cache.get("hit_rate", 0.0))

    @property
    def mean_utilisation(self) -> float:
        """Products per lane-cycle — the MAC-utilisation figure of Fig. 16."""
        lanes = self.counters.get("lane_cycles")
        return self.products / lanes if lanes else 0.0

    @property
    def c_write_traffic(self) -> float:
        """Elements written towards C (Fig. 19's data-traffic metric)."""
        return self.counters.get("c_elem_writes")

    @property
    def products_per_task(self) -> float:
        """Mean intermediate products per T1 task (Fig. 20 x-axis)."""
        return self.products / self.t1_tasks if self.t1_tasks else 0.0

    def energy_efficiency_vs(self, baseline: "SimReport") -> float:
        """Speedup x energy-reduction relative to ``baseline`` (paper metric)."""
        return self.speedup_vs(baseline) * self.energy_reduction_vs(baseline)

    def speedup_vs(self, baseline: "SimReport") -> float:
        """Baseline cycles / our cycles."""
        if self.cycles <= 0:
            raise SimulationError("cannot compute speedup of an empty report")
        return baseline.cycles / self.cycles

    def energy_reduction_vs(self, baseline: "SimReport") -> float:
        """Baseline energy / our energy."""
        if self.energy_pj <= 0:
            raise SimulationError("cannot compute energy reduction of an empty report")
        return baseline.energy_pj / self.energy_pj

    def as_json(self) -> dict:
        """The report's one JSON form (checkpoint journals, the service)."""
        return {
            "stc": self.stc,
            "kernel": self.kernel,
            "matrix": self.matrix,
            "cycles": int(self.cycles),
            "products": int(self.products),
            "t1_tasks": int(self.t1_tasks),
            "util_bins": [int(x) for x in self.util_hist.bins],
            "counters": self.counters.as_dict(),
            "energy_pj": float(self.energy_pj),
            "energy_breakdown": {k: float(v)
                                 for k, v in self.energy_breakdown.items()},
            "wall_s": float(self.wall_s),
            "cache": {k: float(v) for k, v in self.cache.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "SimReport":
        """Rebuild a report from :meth:`as_json`'s form."""
        return cls(
            stc=data["stc"],
            kernel=data["kernel"],
            matrix=data.get("matrix"),
            cycles=int(data["cycles"]),
            products=int(data["products"]),
            t1_tasks=int(data["t1_tasks"]),
            util_hist=UtilHistogram(
                bins=np.asarray(data["util_bins"], dtype=np.int64)),
            counters=Counters(data["counters"]),
            energy_pj=float(data["energy_pj"]),
            energy_breakdown={k: float(v)
                              for k, v in data["energy_breakdown"].items()},
            # Absent in journals written before the observability layer.
            wall_s=float(data.get("wall_s", 0.0)),
            cache={k: float(v) for k, v in data.get("cache", {}).items()},
        )


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, the paper's aggregate for speedups."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise SimulationError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise SimulationError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass
class ComparisonRow:
    """Aver/Max of P, E and E x P versus one baseline (Table VIII rows)."""

    baseline: str
    avg_speedup: float
    max_speedup: float
    avg_energy_reduction: float
    max_energy_reduction: float
    avg_efficiency: float
    max_efficiency: float


def compare(reports: List[SimReport], baselines: List[SimReport], baseline_name: str) -> ComparisonRow:
    """Build one Table VIII row from paired per-matrix reports."""
    if len(reports) != len(baselines) or not reports:
        raise SimulationError("paired report lists must be equal-length and non-empty")
    speedups = [r.speedup_vs(b) for r, b in zip(reports, baselines)]
    energies = [r.energy_reduction_vs(b) for r, b in zip(reports, baselines)]
    effs = [s * e for s, e in zip(speedups, energies)]
    return ComparisonRow(
        baseline=baseline_name,
        avg_speedup=geomean(speedups),
        max_speedup=max(speedups),
        avg_energy_reduction=geomean(energies),
        max_energy_reduction=max(energies),
        avg_efficiency=geomean(effs),
        max_efficiency=max(effs),
    )
