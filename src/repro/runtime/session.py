"""The experiment session: one :class:`RunSpec` executed uniformly.

Every entry point — each CLI subcommand, and any library embedder that
wants the same guarantees — runs inside a :class:`Session`::

    spec = RunSpec(command="kernels", params={...}, seed=7)
    with Session(spec) as session:
        sweep = session.sweep(matrices, ["ds-stc", "uni-stc"], ["spmv"])
        summary = session.runner(sweep).run()

The session owns, uniformly for every run:

- the **seeded RNG** (:attr:`Session.rng`) — commands draw operands
  from it instead of hand-rolling generators;
- **observability wiring** — the tracer/metrics registry is enabled
  per the spec's :class:`~repro.runtime.spec.ObsPolicy`, artifacts are
  written on exit, and the previous obs state is restored;
- **result store and resilience policy** — the spec's result store is
  bound as the block cache's second tier for the whole run, and
  :meth:`runner` builds a
  :class:`~repro.resilience.runner.ResilientRunner` already configured
  with the spec's timeout/retry/journal settings;
- the **run manifest** — a JSON record (config fingerprint, seed,
  package version, wall time, block-cache delta, metrics snapshot,
  exit status) written into ``spec.manifest_dir`` for every run, even
  failed ones.  The manifest is the uniform provenance trail sharding
  and service-mode PRs will consume.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.formats.coo import COOMatrix
from repro.registry import parse_matrix_spec, stc_factory
from repro.resilience.runner import ResilientRunner
from repro.runtime.spec import RunSpec
from repro.sim.engine import bind_store, bound_store, cache_stats
from repro.sim.sweep import Sweep
from repro.store import ResultStore

#: Manifest schema version; bumped on incompatible layout changes.
#: Schema 2 dropped the ``.npz`` snapshot's file path from ``policies``.
MANIFEST_SCHEMA = 2


@dataclass
class RunArtifact:
    """What one finished session left behind."""

    manifest: Dict[str, object]
    path: Optional[Path] = None
    trace_path: Optional[Path] = None
    metrics_path: Optional[Path] = None

    @property
    def fingerprint(self) -> str:
        return str(self.manifest.get("fingerprint", ""))


@dataclass
class Session:
    """Context manager executing one :class:`RunSpec` uniformly."""

    spec: RunSpec
    exit_code: int = 0
    artifact: Optional[RunArtifact] = None
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _t0: float = field(default=0.0, repr=False)
    _obs_was_enabled: bool = field(default=False, repr=False)
    _cache_before: Optional[object] = field(default=None, repr=False)
    _error: Optional[str] = field(default=None, repr=False)
    _store: Optional[object] = field(default=None, repr=False)
    _store_previous: Optional[object] = field(default=None, repr=False)

    # -- composition helpers --------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The run's seeded generator (one instance per session)."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.spec.seed)
        return self._rng

    def matrix(self, spec: str) -> COOMatrix:
        """Materialise a matrix through the workload registry."""
        return parse_matrix_spec(spec)

    def sweep(
        self,
        matrices: Dict[str, COOMatrix],
        stc_names: Sequence[str],
        kernels: Sequence[str],
    ) -> Sweep:
        """A sweep grid with STCs resolved through the registry."""
        return Sweep.from_names(matrices, stc_names, kernels)

    def stcs(self, names: Sequence[str]) -> List:
        """Fresh model instances for the given registry names."""
        return [stc_factory(name)() for name in names]

    def runner(self, sweep: Sweep,
               fingerprint: Optional[str] = None) -> ResilientRunner:
        """A fault-tolerant runner configured from the spec's policies."""
        res = self.spec.resilience
        return ResilientRunner(
            sweep,
            timeout_s=res.timeout,
            retry=res.retry_policy(),
            journal_path=res.checkpoint or None,
            resume=res.resume,
            seed=self.spec.seed,
            fingerprint=fingerprint,
        )

    def executor(
        self,
        matrices: Dict[str, str],
        stc_names: Sequence[str],
        kernels: Sequence[str],
        fingerprint: Optional[str] = None,
    ):
        """A campaign executor configured from the spec's policies.

        ``matrices`` maps names to registry matrix-spec *strings* (not
        materialised matrices) — the executor's shards must be
        self-describing so worker processes can rebuild them.  With the
        spec's default :class:`~repro.exec.ExecPolicy` (``workers=0``)
        this runs in-process through the same
        :class:`~repro.resilience.runner.ResilientRunner` path as
        :meth:`runner`, with identical results and journal bytes.  Both
        paths use the session's result store: in-process through the
        binding itself, worker shards by inheriting its root.
        """
        from repro.exec import CampaignExecutor, StcDef

        res = self.spec.resilience
        status_path = self.spec.obs.status_path
        if not status_path and self.spec.manifest_dir:
            # The run manifest directory gets the final campaign status
            # alongside the manifest itself (latest campaign wins).
            status_path = str(Path(self.spec.manifest_dir) / "status.json")
        return CampaignExecutor(
            matrices=dict(matrices),
            stcs=[StcDef.plain(name) for name in stc_names],
            kernels=list(kernels),
            journal_path=res.checkpoint or None,
            resume=res.resume,
            fingerprint=fingerprint,
            seed=self.spec.seed,
            timeout_s=res.timeout_s,
            max_retries=res.max_retries,
            policy=self.spec.exec,
            status_path=status_path or None,
        )

    def fail(self, message: str) -> None:
        """Record a structured failure for the manifest."""
        self._error = message

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "Session":
        self._t0 = time.perf_counter()
        self._obs_was_enabled = obs.enabled()
        if self.spec.obs.wanted and not self._obs_was_enabled:
            obs.enable()
        if self.spec.cache.store_dir:
            # Bind the persistent result store as the block cache's
            # second tier for the whole run; restored (and the handle
            # closed) on exit.
            try:
                self._store = ResultStore(self.spec.cache.store_dir)
            except BaseException:
                # __exit__ will not run: undo the obs wiring here.
                if not self._obs_was_enabled:
                    obs.disable()
                raise
            self._store_previous = bound_store()
            bind_store(self._store)
        self._cache_before = cache_stats().snapshot()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        wall_s = time.perf_counter() - self._t0
        policy = self.spec.obs
        if exc is not None and self._error is None:
            self._error = f"{type(exc).__name__}: {exc}"
        trace_path = metrics_path = None
        try:
            if policy.trace_path:
                trace_path = Path(policy.trace_path)
                if policy.trace_path.endswith(".jsonl"):
                    obs.tracer().write_jsonl(trace_path)
                else:
                    obs.tracer().write_chrome_trace(trace_path)
            if policy.metrics_path:
                metrics_path = Path(policy.metrics_path)
                obs.metrics().write_json(metrics_path)
            if self._store is not None:
                self._store.flush()
            manifest = self._manifest(wall_s)
            path = self._write_manifest(manifest)
        finally:
            # Even when artifact writing raises, the store binding and
            # handle must not outlive the session: a leaked binding
            # would silently redirect every later run in this process.
            if self._store is not None:
                bind_store(self._store_previous)
                self._store.close()
                self._store = None
                self._store_previous = None
        self.artifact = RunArtifact(
            manifest=manifest, path=path,
            trace_path=trace_path, metrics_path=metrics_path,
        )
        if obs.enabled() and not self._obs_was_enabled:
            obs.disable()
        return False  # never swallow exceptions

    # -- manifest --------------------------------------------------------

    def _manifest(self, wall_s: float) -> Dict[str, object]:
        import repro

        spec = self.spec
        cache_delta = cache_stats().delta(self._cache_before)
        manifest: Dict[str, object] = {
            "kind": "repro.run",
            "schema": MANIFEST_SCHEMA,
            "command": spec.command,
            "fingerprint": spec.fingerprint(),
            "seed": spec.seed,
            "version": repro.__version__,
            "params": dict(spec.params),
            "wall_s": round(wall_s, 6),
            "status": "error" if self._error or self.exit_code else "ok",
            "exit_code": int(self.exit_code),
            "cache": cache_delta.as_dict(),
            "policies": {
                "timeout_s": spec.resilience.timeout_s,
                "max_retries": spec.resilience.max_retries,
                "checkpoint": spec.resilience.checkpoint,
                "resume": spec.resilience.resume,
                "store_dir": spec.cache.store_dir,
            },
        }
        if self._store is not None:
            manifest["store"] = {
                "root": str(self._store.root),
                "records": len(self._store),
                "bytes": self._store.bytes,
                "stats": self._store.stats.as_dict(),
            }
        if self._error:
            manifest["error"] = self._error
        if obs.enabled():
            manifest["metrics"] = obs.metrics().snapshot()
        return manifest

    def _write_manifest(self, manifest: Dict[str, object]) -> Optional[Path]:
        if not self.spec.manifest_dir:
            return None
        directory = Path(self.spec.manifest_dir)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{self.spec.command}-{manifest['fingerprint']}.json"
            path.write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            # Provenance must never take the run down with it: an
            # unwritable manifest directory downgrades to no manifest.
            return None
        return path
