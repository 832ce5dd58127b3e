"""Kernel-level simulation: engine, memoisation, reports, multi-core."""

from repro.sim import blockcache, engine, memory, parallel, results, sweep
from repro.sim.blockcache import BlockCache, CacheStats
from repro.sim.engine import (
    cache_size,
    cache_stats,
    clear_cache,
    get_cache,
    simulate_batches,
    simulate_kernel,
)
from repro.sim.memory import MemoryConfig, RooflineReport, roofline
from repro.sim.parallel import ParallelReport, simulate_parallel
from repro.sim.results import ComparisonRow, SimReport, compare, geomean

__all__ = [
    "BlockCache",
    "CacheStats",
    "ComparisonRow",
    "MemoryConfig",
    "ParallelReport",
    "RooflineReport",
    "SimReport",
    "blockcache",
    "cache_size",
    "cache_stats",
    "clear_cache",
    "compare",
    "engine",
    "geomean",
    "get_cache",
    "memory",
    "parallel",
    "results",
    "roofline",
    "simulate_batches",
    "simulate_kernel",
    "simulate_parallel",
    "sweep",
]
