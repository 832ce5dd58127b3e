"""Declarative run specifications and the policies they bundle.

A :class:`RunSpec` is everything one experiment run needs, declared up
front: the command identity and its parameters (the config
fingerprint), the seed, and three orthogonal policies —

- :class:`ObsPolicy` — whether observability is on and where its
  trace/metrics artifacts go;
- :class:`CachePolicy` — the persistent result store, if any;
- :class:`ResiliencePolicy` — per-case timeout, retry budget and the
  checkpoint journal (+ resume) for fault-tolerant grids;
- :class:`~repro.exec.ExecPolicy` — the multi-process execution
  envelope (worker pool size, shard deadlines, heartbeat and crash
  budgets); the default ``workers=0`` keeps runs in-process.

Specs are frozen and fingerprintable: :meth:`RunSpec.fingerprint`
hashes the command, parameters and seed (never host paths), so two
runs with the same inputs produce the same fingerprint regardless of
where their artifacts land.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.exec.supervisor import ExecPolicy
from repro.resilience.runner import RetryPolicy


@dataclass(frozen=True)
class ObsPolicy:
    """Observability wiring for one run.

    ``force`` switches the tracer on even without artifact paths —
    ``repro profile`` reads spans directly instead of dumping them.
    ``status_path`` is an extra destination for the final campaign
    status document of a distributed run, on top of the workdir and
    run-manifest copies.
    """

    trace_path: str = ""
    metrics_path: str = ""
    force: bool = False
    status_path: str = ""

    @property
    def wanted(self) -> bool:
        return bool(self.trace_path or self.metrics_path or self.force)


@dataclass(frozen=True)
class CachePolicy:
    """Block-result persistence for one run.

    ``store_dir`` is the persistent content-addressed
    :class:`repro.store.ResultStore` the session binds as the block
    cache's second tier for the run's duration; in-process and sharded
    execution both inherit that binding.
    """

    store_dir: str = ""


@dataclass(frozen=True)
class ResiliencePolicy:
    """Fault-tolerance envelope for grid-shaped runs."""

    timeout_s: float = 0.0
    max_retries: int = 1
    checkpoint: str = ""
    resume: bool = False

    def __post_init__(self) -> None:
        if self.resume and not self.checkpoint:
            raise ConfigError("--resume requires --checkpoint <path>")
        if self.max_retries < 0:
            raise ConfigError("max_retries cannot be negative")

    @property
    def timeout(self) -> Optional[float]:
        """The wall-clock budget, ``None`` when unlimited."""
        return self.timeout_s if self.timeout_s > 0 else None

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_retries=self.max_retries)


@dataclass(frozen=True)
class RunSpec:
    """One run, fully declared: identity, seed and policies."""

    command: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0
    obs: ObsPolicy = ObsPolicy()
    cache: CachePolicy = CachePolicy()
    resilience: ResiliencePolicy = ResiliencePolicy()
    exec: ExecPolicy = ExecPolicy()
    #: Directory the run manifest is written into; empty disables the
    #: manifest (library embedders that keep their own records).
    manifest_dir: str = ".repro/runs"

    def __post_init__(self) -> None:
        if not self.command:
            raise ConfigError("RunSpec needs a command name")
        try:
            json.dumps(self.params, sort_keys=True)
        except TypeError as exc:
            raise ConfigError(
                f"RunSpec params must be JSON-serialisable: {exc}"
            ) from exc

    def fingerprint(self) -> str:
        """Config digest: command + params + seed, host paths excluded."""
        digest = hashlib.sha256()
        digest.update(self.command.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(json.dumps(self.params, sort_keys=True).encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(str(self.seed).encode("utf-8"))
        return digest.hexdigest()[:16]
