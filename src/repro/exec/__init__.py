"""Multi-process campaign execution: shards, workers, supervision.

The job-queue executor layered on the RunSpec/Session runtime.  A
campaign (a corpus sweep or a DSE batch) is sharded into
self-describing :class:`ShardSpec` files, dispatched to a pool of
``repro worker`` subprocesses, and supervised with heartbeats,
wall-clock deadlines enforced by real process kills, bounded crash
retry, and poison-shard bisection down to the single offending case.
Each worker reports through one per-shard telemetry stream: its beats
are the liveness signal, its journal-aligned progress records the
metrics.  Per-worker checkpoint journals merge back deterministically,
preserving the runner's zero-re-simulation resume and the campaign's
byte-deterministic artifacts.

``ExecPolicy(workers=0)`` — the default — degrades to the plain
in-process :class:`~repro.resilience.runner.ResilientRunner` path
with identical results.  See ``docs/robustness.md``.
"""

from repro.exec.journal import MergeStats, merge_journals, strip_wallclock
from repro.exec.shard import (
    SHARD_SCHEMA,
    ShardSpec,
    StcDef,
    shard_cases,
)
from repro.exec.supervisor import CampaignExecutor, ExecPolicy
from repro.exec.worker import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_RECYCLE,
    run_shard,
    worker_main,
)
from repro.resilience.runner import read_raw_journal

__all__ = [
    "CampaignExecutor",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_RECYCLE",
    "ExecPolicy",
    "MergeStats",
    "SHARD_SCHEMA",
    "ShardSpec",
    "StcDef",
    "merge_journals",
    "read_raw_journal",
    "run_shard",
    "shard_cases",
    "strip_wallclock",
    "worker_main",
]
