"""Self-describing campaign shards.

A :class:`ShardSpec` is everything one worker process needs to execute
its slice of a campaign, serialised as JSON: the workload cells
(matrices carried as registry matrix-spec strings, STCs as
:class:`StcDef` name+knob records), the explicit case list, the
cores each case is balanced across, the resilience envelope, and the
one file the worker writes (its journal, which also carries its
telemetry).  Nothing in a shard references in-memory state of the
supervisor — a spec written to disk can be re-dispatched after a
supervisor crash, bisected into sub-shards, or inspected by hand.

This mirrors the job-configuration/execution split of jade and the
nipype CommandLine-runner pattern: configuration is a declarative
artifact, execution is a subprocess reading it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.registry import canonical_stc_name, stc_factory
from repro.sim.sweep import Sweep, SweepCase

#: Shard spec schema; bumped on incompatible layout changes.  Schema 3
#: dropped the telemetry path: the journal carries the telemetry.
SHARD_SCHEMA = 3


@dataclass(frozen=True)
class StcDef:
    """A registry-resolvable STC identity: a name plus optional knobs.

    ``knobs=None`` is a plain registry (or variant) name built through
    its default factory.  A knob dict names a configured ``uni-stc``
    design point; the config is rebuilt through
    :meth:`repro.dse.space.DesignPoint.config`, the one authoritative
    knob→config path, so a worker and the in-process fallback bind the
    exact same configuration.
    """

    name: str
    knobs: Optional[Tuple[Tuple[str, object], ...]] = None

    @classmethod
    def plain(cls, name: str) -> "StcDef":
        canonical_stc_name(name)  # fail here, not mid-shard, on unknown names
        return cls(name=name)

    @classmethod
    def from_knobs(cls, name: str, knobs: Dict[str, object]) -> "StcDef":
        return cls(name=name, knobs=tuple(sorted(knobs.items())))

    def factory(self) -> Callable[[], object]:
        if self.knobs is None:
            return stc_factory(self.name)
        from repro.dse.space import DesignPoint  # lazy: dse sits beside exec

        config = DesignPoint(matrix="", kernel="",
                             knobs=tuple(sorted(self.knobs))).config()
        return stc_factory(canonical_stc_name(self.name), config)

    def as_json(self) -> dict:
        return {"name": self.name,
                "knobs": dict(self.knobs) if self.knobs is not None else None}

    @classmethod
    def from_json(cls, data: dict) -> "StcDef":
        knobs = data.get("knobs")
        if knobs is None:
            return cls(name=data["name"])
        return cls.from_knobs(data["name"], knobs)


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of a campaign, fully self-describing."""

    shard_id: str
    campaign: str                           #: journal-binding fingerprint
    matrices: Tuple[Tuple[str, str], ...]   #: (name, matrix-spec) pairs
    stcs: Tuple[StcDef, ...]
    kernels: Tuple[str, ...]
    cases: Tuple[Tuple[str, str, str], ...]  #: (matrix, stc, kernel)
    seed: int = 0
    n_cores: int = 1                        #: cores each case is balanced across
    timeout_s: float = 0.0                  #: per-case budget (0 = unlimited)
    max_retries: int = 1
    max_leaked_threads: int = 8
    heartbeat_interval_s: float = 1.0
    journal: str = ""                       #: per-worker JSONL journal
    store: str = ""                         #: shared result-store dir ("" disables)

    def __post_init__(self) -> None:
        if not self.shard_id:
            raise ConfigError("shard needs a non-empty shard_id")
        if not self.campaign:
            raise ConfigError(f"shard {self.shard_id} needs a campaign fingerprint")
        if not self.cases:
            raise ConfigError(f"shard {self.shard_id} has no cases")
        if not self.journal:
            raise ConfigError(f"shard {self.shard_id} needs a journal path")
        names = {name for name, _ in self.matrices}
        stc_names = {d.name for d in self.stcs}
        for matrix, stc, kernel in self.cases:
            if matrix not in names:
                raise ConfigError(
                    f"shard {self.shard_id}: case matrix {matrix!r} has no "
                    "matrix-spec entry")
            if stc not in stc_names:
                raise ConfigError(
                    f"shard {self.shard_id}: case STC {stc!r} has no STC "
                    "definition")
            if kernel not in self.kernels:
                raise ConfigError(
                    f"shard {self.shard_id}: case kernel {kernel!r} not in "
                    "the shard's kernel list")

    # -- (de)serialisation ----------------------------------------------

    def as_json(self) -> dict:
        return {
            "kind": "repro.exec.shard",
            "schema": SHARD_SCHEMA,
            "shard_id": self.shard_id,
            "campaign": self.campaign,
            "matrices": [[name, spec] for name, spec in self.matrices],
            "stcs": [d.as_json() for d in self.stcs],
            "kernels": list(self.kernels),
            "cases": [list(c) for c in self.cases],
            "seed": self.seed,
            "n_cores": self.n_cores,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "max_leaked_threads": self.max_leaked_threads,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "journal": self.journal,
            "store": self.store,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShardSpec":
        if not isinstance(data, dict) or data.get("kind") != "repro.exec.shard":
            raise ConfigError("not a repro.exec shard spec")
        if data.get("schema") != SHARD_SCHEMA:
            raise ConfigError(
                f"shard spec schema mismatch (got {data.get('schema')!r}, "
                f"expected {SHARD_SCHEMA})")
        try:
            return cls(
                shard_id=str(data["shard_id"]),
                campaign=str(data["campaign"]),
                matrices=tuple((str(n), str(s)) for n, s in data["matrices"]),
                stcs=tuple(StcDef.from_json(d) for d in data["stcs"]),
                kernels=tuple(str(k) for k in data["kernels"]),
                cases=tuple((str(m), str(s), str(k))
                            for m, s, k in data["cases"]),
                seed=int(data.get("seed", 0)),
                n_cores=int(data.get("n_cores", 1)),
                timeout_s=float(data.get("timeout_s", 0.0)),
                max_retries=int(data.get("max_retries", 1)),
                max_leaked_threads=int(data.get("max_leaked_threads", 8)),
                heartbeat_interval_s=float(
                    data.get("heartbeat_interval_s", 1.0)),
                journal=str(data.get("journal", "")),
                store=str(data.get("store", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed shard spec: {exc}") from exc

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(str(path))
        path.write_text(json.dumps(self.as_json(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "ShardSpec":
        path = Path(str(path))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read shard spec {path}: {exc}") from exc
        return cls.from_json(data)

    # -- execution-side material ----------------------------------------

    def sweep_cases(self) -> List[SweepCase]:
        return [SweepCase(m, s, k) for m, s, k in self.cases]

    def build_sweep(self) -> Sweep:
        """Materialise the shard's workload as a runnable sweep.

        Matrices resolve through the workload registry's spec grammar
        and STCs through :meth:`StcDef.factory`, so a worker process
        rebuilds exactly the grid the supervisor described.
        """
        from repro.registry import parse_matrix_spec

        return Sweep(
            matrices={name: parse_matrix_spec(spec)
                      for name, spec in self.matrices},
            stcs={d.name: d.factory() for d in self.stcs},
            kernels=list(self.kernels),
            case_list=self.sweep_cases(),
            n_cores=self.n_cores,
        )

    def replace_cases(self, cases: List[SweepCase], shard_id: str,
                      journal: str) -> "ShardSpec":
        """A derived shard (bisection) covering a subset of the cases;
        every other field carries over unchanged."""
        used_matrices = {c.matrix_name for c in cases}
        used_stcs = {c.stc_name for c in cases}
        return replace(
            self,
            shard_id=shard_id,
            matrices=tuple((n, s) for n, s in self.matrices
                           if n in used_matrices),
            stcs=tuple(d for d in self.stcs if d.name in used_stcs),
            cases=tuple((c.matrix_name, c.stc_name, c.kernel) for c in cases),
            journal=journal,
        )


def shard_cases(cases: List[SweepCase], n_shards: int) -> List[List[SweepCase]]:
    """Deterministic contiguous chunking into ``n_shards`` slices.

    Contiguous (not round-robin) so each shard keeps the grid's
    cache-friendly ordering — consecutive cases share matrix encodings.
    Sizes differ by at most one; empty shards are never produced.
    """
    if n_shards <= 0:
        raise ConfigError("n_shards must be positive")
    n_shards = min(n_shards, len(cases))
    base, extra = divmod(len(cases), n_shards)
    shards: List[List[SweepCase]] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        shards.append(cases[start:start + size])
        start += size
    return shards
