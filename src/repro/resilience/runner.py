"""Fault-tolerant sweep execution.

A plain :meth:`Sweep.run` dies on the first bad case: one malformed
matrix, one hung model, one corrupt store segment and the whole corpus
run is lost.  :class:`ResilientRunner` executes the same grid with the
failure-isolation properties a long-running sweep service needs:

- **Per-case timeouts** — a case that exceeds its wall-clock budget is
  abandoned and recorded as ``timeout``; the sweep moves on.
- **Bounded retry** — failures whose taxonomy class is retryable are
  re-attempted with exponential backoff plus seeded jitter.
- **Case isolation** — any :class:`Exception` is captured as a
  structured :class:`CaseFailure` (taxonomy label, type, message) and
  the sweep continues; only ``KeyboardInterrupt``/``SystemExit``
  propagate.
- **Checkpoint journal** — every finished case is appended to a JSONL
  journal (:mod:`repro.obs.journal`, one ``write()`` per case);
  ``resume=True`` replays journaled successes (their reports are
  reconstructed, not re-simulated) and re-runs only the rest.
- **Persistent memo** — block results persist through whatever
  :class:`repro.store.ResultStore` the process has bound as the block
  cache's second tier (:func:`repro.sim.engine.store_tier`); the store
  quarantines a corrupt segment and the run re-simulates its blocks
  instead of aborting.
"""

from __future__ import annotations

import hashlib
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import (
    CaseTimeoutError,
    CheckpointError,
    ConfigError,
    ConvergenceError,
    DataCorruptionError,
    FormatError,
    ShapeError,
    SimulationError,
    ThreadLeakError,
)
from repro.obs.journal import (
    JournalReader,
    JournalWriter,
    entry_key,
    format_case_key,
    journal_fields,
)
from repro.sim.results import SimReport
from repro.sim.sweep import Sweep, SweepCase, SweepResult

logger = logging.getLogger(__name__)

#: Journal schema version; bumped on incompatible layout changes.
JOURNAL_VERSION = 1

#: Error taxonomy, most specific classes first.  ``classify_error``
#: returns the first matching label, ``"unexpected"`` otherwise.
_TAXONOMY: Tuple[Tuple[str, tuple], ...] = (
    ("timeout", (CaseTimeoutError,)),
    ("corruption", (DataCorruptionError,)),
    ("checkpoint", (CheckpointError,)),
    ("format", (FormatError,)),
    ("shape", (ShapeError,)),
    ("config", (ConfigError,)),
    ("convergence", (ConvergenceError,)),
    ("simulation", (SimulationError,)),
    ("numeric", (FloatingPointError, ZeroDivisionError, OverflowError)),
    ("resource", (MemoryError, OSError)),
)

#: Taxonomy labels that may be transient and are worth re-attempting.
#: Structural classes (format/shape/config) are deterministic and are
#: never retried — the same inputs would fail the same way.
DEFAULT_RETRYABLE: FrozenSet[str] = frozenset(
    {"timeout", "resource", "simulation", "unexpected"}
)


def classify_error(exc: BaseException) -> str:
    """Map an exception to its error-taxonomy label."""
    for label, types in _TAXONOMY:
        if isinstance(exc, types):
            return label
    return "unexpected"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter."""

    max_retries: int = 0
    base_delay_s: float = 0.05
    backoff: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.25
    retryable: FrozenSet[str] = DEFAULT_RETRYABLE

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.base_delay_s * self.backoff ** attempt, self.max_delay_s)
        return raw * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class CaseFailure:
    """Structured record of why a case failed."""

    taxonomy: str
    type: str
    message: str


@dataclass
class CaseOutcome:
    """Terminal state of one sweep case under the resilient runner."""

    case: SweepCase
    status: str  # "ok" | "failed"
    report: Optional[SimReport] = None
    failure: Optional[CaseFailure] = None
    attempts: int = 1
    elapsed_s: float = 0.0
    resumed: bool = False


@dataclass
class RunSummary:
    """Everything the runner observed across the grid."""

    outcomes: List[CaseOutcome] = field(default_factory=list)

    @property
    def results(self) -> List[SweepResult]:
        """Successful cases as ordinary sweep results."""
        return [SweepResult(case=o.case, report=o.report)
                for o in self.outcomes if o.status == "ok"]

    @property
    def failures(self) -> List[CaseOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def n_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def n_resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.resumed)

    def taxonomy_counts(self) -> Dict[str, int]:
        """Failure counts per taxonomy label."""
        counts: Dict[str, int] = {}
        for o in self.failures:
            counts[o.failure.taxonomy] = counts.get(o.failure.taxonomy, 0) + 1
        return counts


def case_key(case: SweepCase) -> str:
    """The journal identity of one sweep case."""
    return format_case_key(case.matrix_name, case.kernel, case.stc_name)


def grid_fingerprint(cases: List[SweepCase]) -> str:
    """Order-independent digest binding a journal to one exact grid."""
    digest = hashlib.sha256()
    for key in sorted(case_key(c) for c in cases):
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def journal_header(fingerprint: str, cases: int) -> dict:
    """The header line every checkpoint journal starts with."""
    return {
        "journal": "repro.resilience",
        "version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "cases": cases,
    }


def check_journal_header(header: dict, path: Path,
                         fingerprint: Optional[str] = None) -> None:
    """Validate a parsed journal header; raises :class:`CheckpointError`."""
    if header.get("journal") != "repro.resilience":
        raise CheckpointError(f"{path} is not a resilience checkpoint journal")
    if header.get("version") != JOURNAL_VERSION:
        raise CheckpointError(
            f"checkpoint journal {path} version mismatch "
            f"(got {header.get('version')!r}, expected {JOURNAL_VERSION})"
        )
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint journal {path} was written for a different sweep grid"
        )


def _outcome_from_entry(entry: dict) -> CaseOutcome:
    """One journal line, parsed; raises on any malformed payload."""
    case = SweepCase(entry["case"]["matrix"], entry["case"]["stc"],
                     entry["case"]["kernel"])
    status = entry["status"]
    report = SimReport.from_json(entry["report"]) if status == "ok" else None
    failure = CaseFailure(**entry["error"]) if entry.get("error") else None
    return CaseOutcome(
        case=case, status=status, report=report, failure=failure,
        attempts=int(entry.get("attempts", 1)),
        elapsed_s=float(entry.get("elapsed_s", 0.0)),
        resumed=True,
    )


def journal_entries(path: Union[str, Path], records: List[dict],
                    fingerprint: Optional[str] = None
                    ) -> Tuple[dict, Dict[str, dict]]:
    """A journal's checked header and its last-wins entries by case key.

    ``records`` are what :class:`~repro.obs.journal.JournalReader` read
    from ``path``; each entry is a case record's journal fields.
    """
    if not records:
        raise CheckpointError(f"checkpoint journal {path} has no header")
    header = records[0]
    check_journal_header(header, Path(str(path)), fingerprint)
    entries = {entry_key(r): journal_fields(r)
               for r in records[1:] if "case" in r}
    return header, entries


def read_raw_journal(
    path: Union[str, Path], fingerprint: Optional[str] = None
) -> Tuple[dict, Dict[str, dict]]:
    """Header plus last-wins raw entries of one journal.

    Same contract as :func:`read_journal`; raw dicts (not
    :class:`CaseOutcome`) keep the sharded-journal merge byte-faithful.
    """
    return journal_entries(path, JournalReader(path).poll(), fingerprint)


def read_journal(path: Union[str, Path],
                 fingerprint: Optional[str] = None) -> Dict[str, CaseOutcome]:
    """Parse a checkpoint journal into per-case outcomes.

    Only a torn *final* line (the process died mid-write) is tolerated.
    An interior garbled line means the journal lost data — silently
    skipping it would drop a completed case and break resume
    accounting — so it raises :class:`CheckpointError` naming the line.
    A missing/garbled header, a version mismatch, or (when
    ``fingerprint`` is given) a journal written for a different grid
    raise :class:`CheckpointError` too.  Duplicate case keys are legal
    (a resumed run re-attempts failed cases and appends); the last
    entry wins.
    """
    entries = read_raw_journal(path, fingerprint)[1]
    try:
        return {key: _outcome_from_entry(e) for key, e in entries.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint journal {path} has a malformed entry: "
            f"{type(exc).__name__}: {exc}") from exc


# -- the runner ---------------------------------------------------------


@dataclass
class ResilientRunner:
    """Run a :class:`Sweep` with isolation, retries and checkpoints.

    ``sleep`` and ``clock`` are injectable so tests can exercise the
    backoff schedule without real waiting.  Jitter is drawn from a
    generator seeded with ``seed``, keeping retry schedules
    reproducible.

    ``fingerprint`` overrides the grid fingerprint stamped into (and
    demanded of) the journal header.  By default a journal is bound to
    one exact grid; a caller that runs *several* grids against the same
    journal — the DSE engine evaluates strategy-proposed batches
    incrementally — passes a stable campaign fingerprint instead, so
    every batch appends to, and resumes from, one shared journal.
    """

    sweep: Sweep
    timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    journal_path: Optional[Union[str, Path]] = None
    resume: bool = False
    seed: int = 0
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic
    fingerprint: Optional[str] = None
    #: Abandoned-thread budget: each in-thread timeout leaks one zombie
    #: thread, and past this many the process fails fast with
    #: :class:`ThreadLeakError` instead of silently accumulating them
    #: (0 disables the cap).  A supervised worker turns that failure
    #: into a process restart, which is the only way the leaked threads
    #: actually die.
    max_leaked_threads: int = 8
    #: The writer that appends to ``journal_path``.  A supervised worker
    #: passes the one its heartbeat shares, so that all of its records
    #: go through one writer; by default the run opens a plain one.
    journal_writer: Optional[JournalWriter] = None

    def __post_init__(self) -> None:
        self._executor: Optional[ThreadPoolExecutor] = None
        self._leaked_threads = 0

    @property
    def leaked_threads(self) -> int:
        """Timed-out case threads abandoned by this runner so far."""
        return self._leaked_threads

    # -- journal ---------------------------------------------------------

    @staticmethod
    def _journal_entry(outcome: CaseOutcome) -> dict:
        entry = {
            "case": {
                "matrix": outcome.case.matrix_name,
                "stc": outcome.case.stc_name,
                "kernel": outcome.case.kernel,
            },
            "status": outcome.status,
            "attempts": outcome.attempts,
            "elapsed_s": round(outcome.elapsed_s, 6),
        }
        if outcome.report is not None:
            entry["report"] = outcome.report.as_json()
        if outcome.failure is not None:
            entry["error"] = {
                "taxonomy": outcome.failure.taxonomy,
                "type": outcome.failure.type,
                "message": outcome.failure.message,
            }
        return entry

    # -- execution -------------------------------------------------------

    def _run_with_timeout(self, case: SweepCase) -> SweepResult:
        """One attempt, enforcing the wall-clock budget if configured.

        Timeouts use a single worker thread; Python cannot kill a
        runaway thread, so a timed-out case's thread is abandoned (it
        no longer blocks the sweep) and the executor is replaced.
        """
        if self.timeout_s is None:
            return self.sweep.run_case(case)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-sweep"
            )
        future = self._executor.submit(self.sweep.run_case, case)
        try:
            return future.result(timeout=self.timeout_s)
        except _FutureTimeout:
            future.cancel()
            self._executor.shutdown(wait=False)
            self._executor = None
            self._leaked_threads += 1
            obs.inc("runner.leaked_threads")
            logger.warning(
                "abandoned the timed-out thread of case (%s, %s, %s); "
                "%d zombie thread%s now leaked in this process",
                case.matrix_name, case.kernel, case.stc_name,
                self._leaked_threads,
                "" if self._leaked_threads == 1 else "s",
            )
            raise CaseTimeoutError(
                f"case ({case.matrix_name}, {case.kernel}, {case.stc_name}) "
                f"exceeded its {self.timeout_s:g}s budget"
            ) from None

    def _run_case(self, case: SweepCase, rng: np.random.Generator) -> CaseOutcome:
        """Attempt one case until success, a non-retryable failure, or
        the retry budget is spent.  Never lets an ``Exception`` escape."""
        start = self.clock()
        attempts = 0
        while True:
            attempts += 1
            try:
                with obs.span("case_attempt", matrix=case.matrix_name,
                              kernel=case.kernel, stc=case.stc_name,
                              attempt=attempts):
                    result = self._run_with_timeout(case)
                return CaseOutcome(
                    case=case, status="ok", report=result.report,
                    attempts=attempts, elapsed_s=self.clock() - start,
                )
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                taxonomy = classify_error(exc)
                if taxonomy == "timeout":
                    obs.event("timeout", matrix=case.matrix_name,
                              kernel=case.kernel, stc=case.stc_name,
                              budget_s=self.timeout_s)
                retries_left = self.retry.max_retries - (attempts - 1)
                if taxonomy in self.retry.retryable and retries_left > 0:
                    delay = self.retry.delay(attempts - 1, rng)
                    obs.event("retry", matrix=case.matrix_name,
                              kernel=case.kernel, stc=case.stc_name,
                              taxonomy=taxonomy, attempt=attempts,
                              delay_s=round(delay, 6))
                    obs.inc("runner.retries", taxonomy=taxonomy)
                    logger.warning(
                        "case (%s, %s, %s) failed [%s: %s]; retrying in %.3fs "
                        "(%d retr%s left)",
                        case.matrix_name, case.kernel, case.stc_name,
                        taxonomy, exc, delay, retries_left,
                        "y" if retries_left == 1 else "ies",
                    )
                    self.sleep(delay)
                    continue
                obs.inc("runner.failures", taxonomy=taxonomy)
                logger.warning(
                    "case (%s, %s, %s) failed permanently after %d attempt%s "
                    "[%s: %s]",
                    case.matrix_name, case.kernel, case.stc_name, attempts,
                    "" if attempts == 1 else "s", taxonomy, exc,
                )
                return CaseOutcome(
                    case=case, status="failed",
                    failure=CaseFailure(
                        taxonomy=taxonomy, type=type(exc).__name__,
                        message=str(exc),
                    ),
                    attempts=attempts, elapsed_s=self.clock() - start,
                )

    def run(self, progress: Optional[Callable[[CaseOutcome], None]] = None) -> RunSummary:
        """Execute the grid; returns every case's terminal outcome.

        A crash or interrupt can cost at most the in-flight case: each
        case is one unbuffered append to the journal, and a bound result
        store writes every block result through as it is simulated.
        """
        rng = np.random.default_rng(self.seed)
        cases = self.sweep.cases()
        fingerprint = self.fingerprint or grid_fingerprint(cases)

        journaled: Dict[str, CaseOutcome] = {}
        writer = None
        if self.journal_path is not None:
            path = Path(str(self.journal_path))
            if self.resume and path.exists():
                journaled = read_journal(path, fingerprint)
            elif self.resume:
                logger.warning(
                    "no checkpoint journal at %s; starting a fresh run", path
                )
            writer = self.journal_writer or JournalWriter(path)
            writer.open(journal_header(fingerprint, len(cases)),
                        fresh=not self.resume)

        summary = RunSummary()
        sweep_span = obs.span("sweep", cases=len(cases), resilient=True)
        try:
            with sweep_span:
                for case in cases:
                    prior = journaled.get(case_key(case))
                    if prior is not None and prior.status == "ok":
                        summary.outcomes.append(prior)
                        if progress is not None:
                            progress(prior)
                        continue
                    outcome = self._run_case(case, rng)
                    summary.outcomes.append(outcome)
                    if writer is not None:
                        writer.append(self._journal_entry(outcome))
                    if progress is not None:
                        progress(outcome)
                    if (self.max_leaked_threads
                            and self._leaked_threads > self.max_leaked_threads):
                        # Fail fast *after* journaling the outcome: the
                        # work done so far stays resumable, and in a
                        # supervised worker the restart kills the
                        # zombies this process can no longer shed.
                        raise ThreadLeakError(
                            f"{self._leaked_threads} timed-out case threads "
                            f"leaked (cap {self.max_leaked_threads}); this "
                            "process can no longer be trusted — restart it "
                            "and resume from the checkpoint journal"
                        )
        finally:
            if writer is not None and self.journal_writer is None:
                writer.close()
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None
        return summary
