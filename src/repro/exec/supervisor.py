"""The supervisor side of the campaign executor.

:class:`CampaignExecutor` shards a campaign's pending cases into
self-describing :class:`~repro.exec.shard.ShardSpec` files, dispatches
them to a pool of ``repro worker`` subprocesses, and supervises them:

- **Deadlines** — a shard that overruns ``policy.shard_timeout_s``
  is *actually killed* (SIGTERM, then SIGKILL after
  ``policy.term_grace_s``), unlike the thread-based per-case timeout
  which can only abandon a thread.
- **Heartbeats** — a worker whose shard journal goes unwritten for
  ``heartbeat_interval_s x heartbeat_misses`` is presumed wedged
  (or SIGSTOPped) and killed the same way.
- **Bounded crash retry** — a crashed/killed/recycled shard is
  respawned with seeded :class:`~repro.resilience.runner.RetryPolicy`
  backoff, up to ``policy.max_shard_retries`` times; the respawn
  resumes from the shard's own journal, so finished cases never
  re-simulate.
- **Poison bisection** — a shard that exhausts its crash budget is
  split in half (pending cases only) and each half gets a fresh
  budget; recursion bottoms out at a single case, which is journaled
  as a structured ``poison`` failure instead of being retried forever.
- **Deterministic join** — per-worker journals merge into the campaign
  journal in canonical case order
  (:func:`repro.exec.journal.merge_journals`), so a sharded run's
  artifacts match a single-process run's modulo wall-clock fields.
- **Telemetry** — the shard journal is the one worker→supervisor
  channel.  Beside each case's outcome it carries the case's metrics
  delta, and beats and trace spans ride the same file.  The
  supervisor tails every shard journal into a live ``status.json``
  (the ``repro top`` view), folds streamed metrics in even for
  SIGKILLed workers, and stitches every worker's spans into its own
  tracer so the campaign exports one Chrome trace with real worker
  pids.  See :mod:`repro.obs.telemetry`.

``policy.workers == 0`` — or an environment where subprocesses cannot
be spawned at all — degrades to the plain in-process
:class:`~repro.resilience.runner.ResilientRunner` path with identical
results and journal bytes.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import ConfigError
from repro.exec import worker as worker_mod
from repro.exec.journal import merge_journals
from repro.exec.shard import ShardSpec, StcDef, shard_cases
from repro.obs.journal import JournalWriter
from repro.obs.stitch import stitch_into_tracer
from repro.obs.telemetry import CampaignMonitor
from repro.registry import parse_matrix_spec
from repro.resilience.runner import (
    CaseFailure,
    CaseOutcome,
    ResilientRunner,
    RetryPolicy,
    RunSummary,
    case_key,
    grid_fingerprint,
    journal_header,
    read_journal,
)
from repro.sim import engine
from repro.sim.sweep import Sweep, SweepCase

logger = logging.getLogger(__name__)

#: Supervision loop granularity; kills and exits are detected within
#: one tick.  Small enough for tests, cheap enough for real campaigns.
_POLL_S = 0.05

#: Journal tailing cadence — one open and stat() per shard per tail,
#: so this stays coarser than the supervision tick.
_TAIL_S = 0.25

#: Live ``status.json`` refresh cadence inside the campaign workdir.
_STATUS_S = 1.0


@dataclass(frozen=True)
class ExecPolicy:
    """The multi-process execution envelope of one campaign."""

    workers: int = 0                 #: subprocess pool size (0 = in-process)
    shard_timeout_s: float = 0.0     #: per-shard wall clock (0 = unlimited)
    heartbeat_interval_s: float = 1.0
    heartbeat_misses: int = 10       #: stale beats before a kill (0 disables)
    term_grace_s: float = 2.0        #: SIGTERM -> SIGKILL escalation window
    max_shard_retries: int = 2       #: crash budget per shard (then bisect)
    max_leaked_threads: int = 8      #: per-worker zombie-thread cap

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError("workers cannot be negative")
        if self.max_shard_retries < 0:
            raise ConfigError("max_shard_retries cannot be negative")
        if self.heartbeat_interval_s <= 0:
            raise ConfigError("heartbeat_interval_s must be positive")

    @property
    def distributed(self) -> bool:
        return self.workers > 0


@dataclass
class _ShardState:
    """One shard's supervision record."""

    spec: ShardSpec
    spec_path: Path
    log_path: Path
    proc: Optional[subprocess.Popen] = None
    log_handle: Optional[object] = None
    started_at: float = 0.0
    crashes: int = 0
    respawn_at: float = 0.0   #: monotonic time of the scheduled respawn


@dataclass
class CampaignExecutor:
    """Shard, dispatch and supervise one campaign's case grid.

    The campaign is declared entirely in registry vocabulary —
    ``matrices`` maps names to matrix-spec strings, ``stcs`` are
    :class:`StcDef` records — so shards can be serialised and rebuilt
    inside worker processes.  ``cases`` defaults to the full grid in
    :meth:`Sweep.cases` order (matrices outermost); a DSE batch passes
    its explicit case list instead.  ``n_cores`` is how many cores each
    case is balanced across (:mod:`repro.sim.parallel`), in-process and
    in every shard alike.

    One executor may run several times (a DSE campaign runs each batch
    through one): its in-process sweep keeps the matrices it parsed
    and the STCs it built, a matrix name standing for the spec its
    first run declared.
    """

    matrices: Dict[str, str]
    stcs: Sequence[StcDef]
    kernels: Sequence[str]
    cases: Optional[Sequence[SweepCase]] = None
    journal_path: Optional[Union[str, Path]] = None
    resume: bool = False
    fingerprint: Optional[str] = None
    seed: int = 0
    timeout_s: float = 0.0
    max_retries: int = 1
    n_cores: int = 1
    policy: ExecPolicy = field(default_factory=ExecPolicy)
    #: Extra destination for the final campaign status document (a
    #: distributed run's workdir always gets ``status.json``).
    status_path: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.resume and self.journal_path is None:
            raise ConfigError("resume requires a journal path")
        self._sweep = Sweep(matrices={}, stcs={}, kernels=())

    # -- grid material ---------------------------------------------------

    def _all_cases(self) -> List[SweepCase]:
        if self.cases is not None:
            return list(self.cases)
        return [
            SweepCase(m, s, k)
            for m in self.matrices
            for k in self.kernels
            for s in [d.name for d in self.stcs]
        ]

    def _sweep_for(self, cases: List[SweepCase]) -> Sweep:
        """The in-process sweep over ``cases``, grown by what the
        declaration gained since the last run."""
        sweep = self._sweep
        for name, spec in self.matrices.items():
            if name not in sweep.matrices:
                sweep.matrices[name] = parse_matrix_spec(spec)
        for stc in self.stcs:
            if stc.name not in sweep.stcs:
                sweep.stcs[stc.name] = stc.factory()
        sweep.case_list = cases
        sweep.n_cores = self.n_cores
        return sweep

    # -- public entry ----------------------------------------------------

    def run(self, progress: Optional[Callable[[CaseOutcome], None]] = None
            ) -> RunSummary:
        """Execute the campaign; returns every case's terminal outcome."""
        cases = self._all_cases()
        if not cases:
            return RunSummary()
        fingerprint = self.fingerprint or grid_fingerprint(cases)
        # Every declared matrix parses here, sharded or not: a bad spec
        # is one error before anything runs, not a crash in each worker.
        sweep = self._sweep_for(cases)
        if not self.policy.distributed or not sys.executable:
            return self._run_in_process(sweep, fingerprint, progress,
                                        self.journal_path, self.resume)
        return self._run_distributed(sweep, fingerprint, progress)

    # -- in-process degradation -----------------------------------------

    def _run_in_process(
        self,
        sweep: Sweep,
        fingerprint: str,
        progress: Optional[Callable[[CaseOutcome], None]],
        journal_path: Optional[Union[str, Path]],
        resume: bool,
    ) -> RunSummary:
        """The zero-subprocess path: one ResilientRunner, same results."""
        runner = ResilientRunner(
            sweep=sweep,
            timeout_s=self.timeout_s or None,
            retry=RetryPolicy(max_retries=self.max_retries),
            journal_path=journal_path,
            resume=resume,
            seed=self.seed,
            fingerprint=fingerprint,
            max_leaked_threads=self.policy.max_leaked_threads,
        )
        return runner.run(progress=progress)

    # -- distributed path -----------------------------------------------

    def _run_distributed(
        self,
        sweep: Sweep,
        fingerprint: str,
        progress: Optional[Callable[[CaseOutcome], None]],
    ) -> RunSummary:
        cases = sweep.cases()
        order = [case_key(c) for c in cases]
        tempdir: Optional[tempfile.TemporaryDirectory] = None
        if self.journal_path is not None:
            journal = Path(str(self.journal_path))
            workdir = journal.with_name(journal.name + ".d")
        else:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-exec-")
            workdir = Path(tempdir.name)
            journal = workdir / "campaign.journal"
        try:
            workdir.mkdir(parents=True, exist_ok=True)
            if not self.resume:
                if journal.exists():
                    journal.unlink()
                self._clear_workdir(workdir)
            else:
                # A crashed supervisor leaves worker journals behind;
                # folding them in first preserves every case those
                # workers finished (zero re-simulation on resume).
                leftovers = sorted(workdir.glob("*.journal"))
                if leftovers:
                    stats = merge_journals(journal, leftovers, fingerprint,
                                           order=order, cases=len(order))
                    logger.info(
                        "recovered %d case(s) from %d leftover worker "
                        "journal(s)", stats.appended, len(leftovers))
                self._clear_workdir(workdir)

            prior_ok = set()
            if journal.exists():
                prior_ok = {
                    key for key, o in read_journal(journal, fingerprint).items()
                    if o.status == "ok"
                }
            pending = [c for c in cases if case_key(c) not in prior_ok]

            if pending:
                specs = self._make_shards(pending, fingerprint, workdir)
                monitor = CampaignMonitor()
                monitor.campaign_total = len(order)
                monitor.prior_done = len(prior_ok)
                try:
                    self._supervise(specs, workdir, monitor)
                except OSError as exc:
                    # Subprocess dispatch is unavailable here (sandbox,
                    # exhausted PIDs, ...): degrade to in-process against
                    # the same journal and fingerprint — identical
                    # results, just single-process.
                    logger.warning(
                        "cannot dispatch worker subprocesses (%s); "
                        "falling back to in-process execution", exc)
                    return self._run_in_process(sweep, fingerprint, progress,
                                                journal, journal.exists())
                shard_journals = sorted(workdir.glob("*.journal"))
                merge_journals(journal, shard_journals, fingerprint,
                               order=order, cases=len(order))
                # Final sweep: records flushed between the last
                # supervision tick and the workers' exits.
                monitor.poll()
                if obs.enabled():
                    # The journals hold every incarnation's state as of
                    # its last journaled case, SIGKILLed ones included.
                    monitor.fold_into(obs.metrics())
                    stitch_into_tracer(obs.tracer(),
                                       monitor.spans_by_shard())
                monitor.write_status(workdir / "status.json", state="done")
                if self.status_path is not None:
                    monitor.write_status(self.status_path, state="done")
            elif not journal.exists():
                # Everything resumed and nothing to do; still leave a
                # well-formed journal behind.
                with JournalWriter(journal) as writer:
                    writer.open(journal_header(fingerprint, len(order)))

            return self._summarise(journal, fingerprint, cases, prior_ok,
                                   progress)
        finally:
            if tempdir is not None:
                tempdir.cleanup()

    @staticmethod
    def _clear_workdir(workdir: Path) -> None:
        for path in workdir.iterdir():
            if path.is_file():
                path.unlink()

    def _make_shards(self, pending: List[SweepCase], fingerprint: str,
                     workdir: Path) -> List[ShardSpec]:
        n_shards = min(self.policy.workers, len(pending))
        # Shards inherit the process's bound result store, so a worker
        # fleet shares the memo the in-process path would have used.
        bound = engine.bound_store()
        store = str(bound.root) if bound is not None else ""
        specs: List[ShardSpec] = []
        for i, chunk in enumerate(shard_cases(pending, n_shards)):
            shard_id = f"s{i}"
            used_matrices = {c.matrix_name for c in chunk}
            used_stcs = {c.stc_name for c in chunk}
            specs.append(ShardSpec(
                shard_id=shard_id,
                campaign=fingerprint,
                matrices=tuple((n, s) for n, s in self.matrices.items()
                               if n in used_matrices),
                stcs=tuple(d for d in self.stcs if d.name in used_stcs),
                kernels=tuple(self.kernels),
                cases=tuple((c.matrix_name, c.stc_name, c.kernel)
                            for c in chunk),
                seed=self.seed,
                n_cores=self.n_cores,
                timeout_s=self.timeout_s,
                max_retries=self.max_retries,
                max_leaked_threads=self.policy.max_leaked_threads,
                heartbeat_interval_s=self.policy.heartbeat_interval_s,
                journal=str(workdir / f"{shard_id}.journal"),
                store=store,
            ))
        return specs

    # -- supervision loop ------------------------------------------------

    def _supervise(self, specs: List[ShardSpec], workdir: Path,
                   monitor: CampaignMonitor) -> None:
        policy = self.policy
        rng = np.random.default_rng(self.seed)
        backoff = RetryPolicy(max_retries=policy.max_shard_retries)
        queue: List[ShardSpec] = list(specs)
        active: Dict[str, _ShardState] = {}
        first_spawn = True
        next_tail = next_status = 0.0
        try:
            while queue or active:
                while queue and len(active) < policy.workers:
                    spec = queue.pop(0)
                    state = self._prepare(spec, workdir)
                    # Bisection children register here too — every
                    # dispatched shard is tailed from its first record.
                    monitor.add_shard(spec.shard_id, spec.journal,
                                      total=len(spec.cases))
                    try:
                        self._spawn(state)
                    except OSError:
                        if first_spawn:
                            raise   # nothing dispatched yet: clean fallback
                        # A later spawn failure is transient by
                        # assumption; route it through the crash budget.
                        state.crashes += 1
                        state.respawn_at = (time.monotonic()
                                            + backoff.delay(0, rng))
                    first_spawn = False
                    active[spec.shard_id] = state
                    obs.inc("exec.shards")

                now = time.monotonic()
                for shard_id in list(active):
                    state = active[shard_id]
                    if state.proc is None:
                        if now >= state.respawn_at:
                            if state.crashes > policy.max_shard_retries:
                                self._exhaust(state, queue, workdir)
                                del active[shard_id]
                            else:
                                try:
                                    self._spawn(state)
                                except OSError:
                                    state.crashes += 1
                                    state.respawn_at = now + backoff.delay(
                                        min(state.crashes - 1,
                                            policy.max_shard_retries), rng)
                        continue
                    returncode = state.proc.poll()
                    if returncode is None:
                        reason = self._overdue(
                            state, now, monitor.last_write(shard_id))
                        if reason is None:
                            continue
                        obs.inc("exec.worker_kills", reason=reason)
                        obs.event("exec.kill", shard=shard_id,
                                  pid=state.proc.pid, reason=reason)
                        logger.warning(
                            "killing shard %s worker (pid %d): %s",
                            shard_id, state.proc.pid, reason)
                        self._kill(state.proc)
                        returncode = state.proc.returncode
                    self._close_log(state)
                    if returncode == worker_mod.EXIT_OK:
                        del active[shard_id]
                        continue
                    if returncode == worker_mod.EXIT_RECYCLE:
                        obs.inc("exec.workers_recycled")
                        logger.info("recycling shard %s worker "
                                    "(leaked-thread cap)", shard_id)
                    else:
                        obs.inc("exec.worker_crashes")
                        logger.warning(
                            "shard %s worker died (exit %s); "
                            "%d crash(es) so far",
                            shard_id, returncode, state.crashes + 1)
                    # Recycles share the crash budget: a worker that
                    # leaks threads every respawn must still converge
                    # on bisection rather than respawn forever.
                    state.crashes += 1
                    state.proc = None
                    state.respawn_at = now + backoff.delay(
                        min(state.crashes - 1, policy.max_shard_retries), rng)
                if now >= next_tail:
                    next_tail = now + _TAIL_S
                    monitor.poll()
                    if now >= next_status:
                        next_status = now + _STATUS_S
                        monitor.write_status(workdir / "status.json")
                time.sleep(_POLL_S)
        finally:
            for state in active.values():
                if state.proc is not None and state.proc.poll() is None:
                    self._kill(state.proc)
                self._close_log(state)

    def _prepare(self, spec: ShardSpec, workdir: Path) -> _ShardState:
        spec_path = spec.write(workdir / f"{spec.shard_id}.spec.json")
        return _ShardState(
            spec=spec, spec_path=spec_path,
            log_path=workdir / f"{spec.shard_id}.log",
        )

    def _spawn(self, state: _ShardState) -> None:
        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src_root
        )
        state.log_handle = open(state.log_path, "a", encoding="utf-8")
        state.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--spec", str(state.spec_path)],
            stdout=state.log_handle, stderr=subprocess.STDOUT, env=env,
        )
        state.started_at = time.monotonic()
        obs.event("exec.respawn" if state.crashes else "exec.dispatch",
                  shard=state.spec.shard_id, pid=state.proc.pid,
                  crashes=state.crashes)

    @staticmethod
    def _close_log(state: _ShardState) -> None:
        if state.log_handle is not None:
            state.log_handle.close()
            state.log_handle = None

    def _overdue(self, state: _ShardState, now: float,
                 last_write: Optional[float]) -> Optional[str]:
        """Why a running worker should be killed, or ``None``.

        ``last_write`` is the shard journal's mtime as the monitor last
        read it: every record is an append, so it is the worker's last
        sign of life.
        """
        policy = self.policy
        if (policy.shard_timeout_s
                and now - state.started_at > policy.shard_timeout_s):
            return (f"exceeded the {policy.shard_timeout_s:g}s shard "
                    "deadline")
        if policy.heartbeat_misses:
            stale_after = (policy.heartbeat_interval_s
                           * policy.heartbeat_misses)
            # mtime is wall clock; compare ages, not clocks, and never
            # declare a worker stale before it had a chance to beat.
            age = min(time.time() - (last_write or 0.0),
                      now - state.started_at)
            if age > stale_after:
                return (f"heartbeat stale for {age:.1f}s "
                        f"(> {stale_after:g}s)")
        return None

    def _kill(self, proc: subprocess.Popen) -> None:
        """SIGTERM, grace period, then SIGKILL; always reaps the child.

        SIGKILL is delivered even to a SIGSTOPped process, which is
        how heartbeat-loss kills cannot be dodged.
        """
        proc.terminate()
        try:
            proc.wait(timeout=self.policy.term_grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # -- poison handling -------------------------------------------------

    def _exhaust(self, state: _ShardState, queue: List[ShardSpec],
                 workdir: Path) -> None:
        """Crash budget spent: bisect the pending cases or quarantine."""
        spec = state.spec
        done = set()
        journal = Path(spec.journal)
        if journal.exists():
            done = {key for key, o
                    in read_journal(journal, spec.campaign).items()
                    if o.status == "ok"}
        pending = [c for c in spec.sweep_cases() if case_key(c) not in done]
        if not pending:
            return  # it crashed after journaling its last case
        if len(pending) == 1:
            self._quarantine(spec, pending[0], state.crashes)
            return
        obs.inc("exec.shards_bisected")
        obs.event("exec.bisect", shard=spec.shard_id, pending=len(pending))
        mid = (len(pending) + 1) // 2
        for suffix, chunk in (("a", pending[:mid]), ("b", pending[mid:])):
            child_id = spec.shard_id + suffix
            queue.append(spec.replace_cases(
                chunk, shard_id=child_id,
                journal=str(workdir / f"{child_id}.journal"),
            ))
        logger.warning(
            "shard %s exhausted its crash budget with %d pending case(s); "
            "bisecting into %sa / %sb",
            spec.shard_id, len(pending), spec.shard_id, spec.shard_id)

    def _quarantine(self, spec: ShardSpec, case: SweepCase,
                    crashes: int) -> None:
        """Journal the single case that keeps killing workers."""
        obs.inc("exec.cases_quarantined")
        obs.event("exec.quarantine", shard=spec.shard_id,
                  matrix=case.matrix_name, stc=case.stc_name,
                  kernel=case.kernel)
        logger.error(
            "quarantining poison case (%s, %s, %s): it killed its worker "
            "%d time(s)", case.matrix_name, case.kernel, case.stc_name,
            crashes)
        entry = {
            "case": {"matrix": case.matrix_name, "stc": case.stc_name,
                     "kernel": case.kernel},
            "status": "failed",
            "attempts": crashes,
            "elapsed_s": 0.0,
            "error": {
                "taxonomy": "poison",
                "type": "WorkerCrashError",
                "message": (f"case crashed or hung its worker process "
                            f"{crashes} time(s) and was quarantined"),
            },
        }
        with JournalWriter(spec.journal) as writer:
            writer.open(journal_header(spec.campaign, len(spec.cases)))
            writer.append(entry)

    # -- join ------------------------------------------------------------

    def _summarise(
        self,
        journal: Path,
        fingerprint: str,
        cases: List[SweepCase],
        prior_ok: set,
        progress: Optional[Callable[[CaseOutcome], None]],
    ) -> RunSummary:
        journaled = read_journal(journal, fingerprint)
        summary = RunSummary()
        for case in cases:
            key = case_key(case)
            outcome = journaled.get(key)
            if outcome is None:
                # Defensive: every supervised path journals a terminal
                # outcome, so this means the journal itself went missing.
                outcome = CaseOutcome(
                    case=case, status="failed",
                    failure=CaseFailure(
                        taxonomy="missing", type="WorkerCrashError",
                        message="no journaled outcome after supervision"),
                )
            outcome.resumed = key in prior_ok
            summary.outcomes.append(outcome)
            if progress is not None:
                progress(outcome)
        return summary
