"""Shared argument plumbing for the CLI subcommand modules.

Three kinds of glue live here, so each subcommand module stays small:

- flag packs (:func:`add_obs_flags`, :func:`add_resilience_flags`,
  :func:`add_run_flags`) attaching the cross-cutting options;
- :func:`make_spec`, folding a parsed namespace into the
  :class:`~repro.runtime.RunSpec` its session executes;
- registry-backed helpers (:func:`build_stcs`, :func:`split_csv`,
  :func:`spmspv_operand`) shared by the simulation-shaped commands.
"""

from __future__ import annotations

import argparse
from typing import Dict, List

import numpy as np

from repro.registry import create_stc
from repro.runtime import (
    CachePolicy,
    ExecPolicy,
    ObsPolicy,
    ResiliencePolicy,
    RunSpec,
)


def split_csv(value: str) -> List[str]:
    """A comma list, stripped, with empty entries dropped."""
    return [part.strip() for part in value.split(",") if part.strip()]


def build_stcs(names: str) -> List:
    """Fresh model instances for a comma list of registry names."""
    return [create_stc(name) for name in split_csv(names)]


def spmspv_operand(n_cols: int, seed: int = 0):
    """The deterministic 50%-sparse SpMSpV operand every command uses."""
    from repro.kernels.vector import SparseVector

    rng = np.random.default_rng(seed)
    dense = rng.random(n_cols) * (rng.random(n_cols) < 0.5)
    return SparseVector.from_dense(dense)


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the observability artifact flags to a subcommand."""
    parser.add_argument(
        "--trace", default="", metavar="FILE",
        help="record spans and write a Chrome trace_event JSON here "
             "(open in chrome://tracing or Perfetto; a .jsonl suffix "
             "writes line-delimited events instead)",
    )
    parser.add_argument(
        "--metrics", default="", metavar="FILE",
        help="record counters/gauges/histograms and write the JSON "
             "snapshot here",
    )


def add_resilience_flags(parser: argparse.ArgumentParser,
                         unit: str = "case") -> None:
    """Attach the fault-tolerance flags (checkpoint/resume/timeout)."""
    parser.add_argument(
        "--checkpoint", default="",
        help=f"JSONL journal path; finished {unit}s are appended as "
             "they complete",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint, skipping journaled successes",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.0,
        help=f"per-{unit} wall-clock budget in seconds (0 = unlimited)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1,
        help=f"retry budget per {unit} for transient failures",
    )
    parser.add_argument(
        "--store", default="", metavar="DIR",
        help="persistent content-addressed result store directory "
             "(created on first use, safe to share across workers and "
             "repeated runs; see docs/store.md)",
    )


def add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the multi-process execution flags (see ``repro.exec``)."""
    parser.add_argument(
        "--workers", type=int, default=0,
        help="shard the campaign across this many supervised worker "
             "subprocesses (0 = run in-process; results are identical)",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=0.0, metavar="S",
        help="per-shard wall-clock deadline; an overrunning worker is "
             "killed (SIGTERM, then SIGKILL) and the shard retried "
             "(0 = unlimited)",
    )
    parser.add_argument(
        "--shard-retries", type=int, default=2,
        help="crash budget per shard before it is bisected down to the "
             "poison case",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="S",
        help="worker beat period on its telemetry stream; a worker "
             "whose stream stays silent for 10 intervals gets killed",
    )
    parser.add_argument(
        "--status-json", default="", metavar="FILE",
        help="also write the final campaign status document here "
             "(the campaign workdir and run-manifest dir get copies "
             "regardless)",
    )


def exec_policy(args: argparse.Namespace) -> ExecPolicy:
    """Fold the exec flag pack into an :class:`ExecPolicy`."""
    return ExecPolicy(
        workers=getattr(args, "workers", 0),
        shard_timeout_s=getattr(args, "shard_timeout", 0.0),
        max_shard_retries=getattr(args, "shard_retries", 2),
        heartbeat_interval_s=getattr(args, "heartbeat_interval", 1.0),
    )


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the run-manifest flag every subcommand carries."""
    parser.add_argument(
        "--run-dir", default=".repro/runs", metavar="DIR",
        help="directory the run-manifest JSON is written into "
             "(empty string disables the manifest)",
    )


def make_spec(
    args: argparse.Namespace,
    command: str,
    params: Dict[str, object],
    seed: int = 0,
    force_obs: bool = False,
) -> RunSpec:
    """Fold a parsed namespace into the run's :class:`RunSpec`.

    ``params`` is the command's semantic configuration (what the
    fingerprint hashes); artifact paths ride in the policies instead,
    so moving output files never changes a run's identity.
    """
    return RunSpec(
        command=command,
        params=params,
        seed=seed,
        obs=ObsPolicy(
            trace_path=getattr(args, "trace", ""),
            metrics_path=getattr(args, "metrics", ""),
            force=force_obs,
            status_path=getattr(args, "status_json", ""),
        ),
        cache=CachePolicy(store_dir=getattr(args, "store", "")),
        resilience=ResiliencePolicy(
            timeout_s=getattr(args, "timeout", 0.0),
            max_retries=getattr(args, "max_retries", 1),
            checkpoint=getattr(args, "checkpoint", ""),
            resume=getattr(args, "resume", False),
        ),
        exec=exec_policy(args),
        manifest_dir=getattr(args, "run_dir", ".repro/runs"),
    )
