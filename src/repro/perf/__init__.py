"""Performance harness: wall-clock microbenchmarks of the hot paths.

``repro bench`` times the layers the perf work targets — BBC encode,
task enumeration, cold and warm corpus sweeps, the observability,
telemetry and result-store tiers, and batched inference — and writes a
machine-readable JSON report.  See :mod:`repro.perf.bench`.
"""

from repro.perf.bench import run_bench

__all__ = ["run_bench"]
