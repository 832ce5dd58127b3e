"""End-to-end and per-layer metrics from a run's passes.

End-to-end metrics come from untraced passes only; the per-layer split
comes from traced passes (see ``tracing.py``).  Host times are host
seconds; ``sim_cycles``, ``sim_energy_pj`` and ``sim.memory.dram_bytes``
are simulated quantities and must not move on a host-speed change.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Tuple

from tracing import LAYERS

#: name -> (unit, better).  ``error_rate`` is printed but carried to the
#: driver as ``failed``/``attempted``: it is 0 on a healthy run, and a
#: metric whose median is 0 has no relative spread.
END_TO_END = {
    "t1_tasks_per_s": ("tasks/s", "higher"),
    "case_ms_p50": ("ms", "lower"),
    "case_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_cycles": ("cycles", "lower"),
    "sim_energy_pj": ("pJ", "lower"),
}


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (statistics' exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (one workload per process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: List[float], passes) -> Dict[str, float]:
    """The end-to-end metrics; host times scaled to the reference host speed."""
    latencies = [s for p in passes for s in p.scaled_latencies]
    wall = sum(p.scaled_wall_s for p in passes)
    return {
        "t1_tasks_per_s": sum(p.t1_tasks for p in passes) / wall,
        "case_ms_p50": statistics.median(latencies) * 1e3,
        "case_ms_p90": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": peak_rss_mb(),
        # Every pass simulates the same cases (checked), so one pass's
        # totals are the run's.
        "sim_cycles": passes[0].cycles,
        "sim_energy_pj": passes[0].energy_pj,
    }


def per_layer_units(stc_prefixes: List[Tuple[str, str]]) -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {
        "formats.encode_s": "s", "formats.nnz_per_s": "nnz/s",
        "kernels.enumerate_s": "s", "kernels.t1_tasks": "count",
        "kernels.unique_pairs": "count", "kernels.coalesce_ratio": "ratio",
        "sim.blockcache.lookup_s": "s", "sim.blockcache.insert_s": "s",
        "sim.blockcache.lookups": "count", "sim.blockcache.hit_rate": "ratio",
        "sim.blockcache.evictions": "count",
        "store.open_s": "s", "store.lookup_s": "s", "store.insert_s": "s",
        "store.flush_s": "s", "store.lookups": "count",
        "store.inserts": "count", "store.hit_rate": "ratio",
        "store.us_per_lookup": "us", "store.us_per_insert": "us",
        "store.served_bytes": "bytes", "store.bytes": "bytes",
        "store.fill_s": "s", "store.replay_s": "s",
        "store.fill_over_cold": "ratio", "store.replay_over_warm": "ratio",
    }
    for _, prefix in stc_prefixes:
        units[f"{prefix}.simulate_s"] = "s"
        units[f"{prefix}.blocks"] = "count"
        units[f"{prefix}.us_per_block"] = "us"
    units.update({
        "sim.engine.self_s": "s",
        "energy.price_s": "s", "energy.calls": "count",
        "graph.self_s": "s", "graph.plan_s": "s", "graph.nodes_run": "count",
        "graph.resident_edge_frac": "ratio",
        "sim.memory.traffic_s": "s", "sim.memory.dram_bytes": "bytes",
        "trace.overhead_pct": "%", "trace.spans": "count",
        "trace.unattributed_frac": "ratio",
    })
    for layer in LAYERS:
        units[f"{layer}.self_frac"] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_pass_metrics(result, stc_prefixes, units) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (set-up and run-level ones aside).

    Host times are scaled to the reference host speed by the pass's
    average factor, like the end-to-end ones.
    """
    tracer = result.tracer
    wall = result.wall_s
    unattributed = tracer.unattributed(wall)
    by_name = tracer.by_name()
    layer_self = tracer.self_by_layer()
    counts = {**tracer.counts, **result.counts}

    def self_s(name):
        return by_name.get(name, (0.0, 0))[0]

    def calls(name):
        return by_name.get(name, (0.0, 0))[1]

    tasks = counts.get("kernels.t1_tasks", 0)
    lookups = calls("sim.blockcache.lookup")
    store_lookups = calls("store.lookup")
    store_inserts = calls("store.insert")
    m = {
        "kernels.enumerate_s": layer_self.get("kernels", 0.0),
        "kernels.t1_tasks": tasks,
        "kernels.unique_pairs": lookups,
        "kernels.coalesce_ratio": _ratio(lookups, tasks),
        "sim.blockcache.lookup_s": self_s("sim.blockcache.lookup"),
        "sim.blockcache.insert_s": self_s("sim.blockcache.insert"),
        "sim.blockcache.lookups": lookups,
        "sim.blockcache.hit_rate": _ratio(counts.get("sim.blockcache.hits", 0),
                                          lookups),
        "sim.blockcache.evictions": counts.get("sim.blockcache.evictions", 0),
        "store.open_s": self_s("store.open"),
        "store.lookup_s": self_s("store.lookup"),
        "store.insert_s": self_s("store.insert"),
        "store.flush_s": self_s("store.flush"),
        "store.lookups": store_lookups,
        "store.inserts": store_inserts,
        "store.hit_rate": _ratio(counts.get("store.hits", 0),
                                 counts.get("store.replay_lookups", 0)),
        "store.us_per_lookup": _ratio(self_s("store.lookup"), store_lookups) * 1e6,
        "store.us_per_insert": _ratio(self_s("store.insert"), store_inserts) * 1e6,
        "store.served_bytes": counts.get("store.served_bytes", 0),
        "store.bytes": counts.get("store.bytes", 0),
        "sim.engine.self_s": layer_self.get("sim.engine", 0.0),
        "energy.price_s": layer_self.get("energy", 0.0),
        "energy.calls": calls("energy.price"),
        "graph.self_s": layer_self.get("graph", 0.0),
        "graph.plan_s": self_s("graph.plan"),
        "graph.nodes_run": counts.get("graph.nodes_run", 0),
        "graph.resident_edge_frac": counts.get("graph.resident_edge_frac", 0.0),
        "sim.memory.traffic_s": layer_self.get("sim.memory", 0.0),
        "sim.memory.dram_bytes": counts.get("sim.memory.dram_bytes", 0),
        "trace.spans": len(tracer.records),
        "trace.unattributed_frac": unattributed / wall,
    }
    for _, prefix in stc_prefixes:
        seconds = self_s(f"{prefix}.simulate")
        blocks = counts.get(f"{prefix}.blocks", 0)
        m[f"{prefix}.simulate_s"] = seconds
        m[f"{prefix}.blocks"] = blocks
        m[f"{prefix}.us_per_block"] = _ratio(seconds, blocks) * 1e6
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = layer_self.get(layer, 0.0) / wall
    scale = result.scaled_wall_s / wall
    return {name: value * scale if units[name] in ("s", "us") else value
            for name, value in m.items()}


def layer_table(tracer, wall_s: float) -> List[Dict[str, object]]:
    """Self time, share of the traced wall and calls per span name."""
    rows = [{"span": name, "self_s": s, "share": s / wall_s, "calls": n}
            for name, (s, n) in tracer.by_name().items()]
    return sorted(rows, key=lambda row: -row["self_s"])
