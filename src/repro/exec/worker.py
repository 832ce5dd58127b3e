"""The worker side of the campaign executor.

A worker process reads one :class:`~repro.exec.shard.ShardSpec`,
rebuilds its slice of the campaign grid, and runs it through the same
:class:`~repro.resilience.runner.ResilientRunner` the in-process path
uses, appending to the shard's journal through one
:class:`~repro.obs.journal.JournalWriter`: one record per finished
case, carrying the case's journal entry and its metrics delta, and a
beat plus a span flush on the heartbeat cadence.  That journal is the
worker's only channel to its supervisor: its mtime is the liveness
signal, its case records the progress and the metrics.  The worker
*always* resumes from its own journal if one exists: a respawned
worker (after a crash or a recycle) cuts the torn tail its
predecessor may have left and picks up after its last whole record,
writing nothing for the cases it resumes, so no finished case is ever
re-simulated.

Exit-code protocol (what the supervisor branches on):

====  =================================================================
code  meaning
====  =================================================================
0     shard complete — every case has a journaled terminal outcome
      (case *failures* are outcomes, not worker crashes)
2     structured worker error (a :class:`~repro.errors.ReproError`:
      bad spec, corrupt journal, ...); the last ``error:`` line on
      stderr is the diagnosis, and the supervisor fails the campaign
      with it
3     recycle request — the worker hit its leaked-thread cap
      (:class:`~repro.errors.ThreadLeakError`) and wants to be
      restarted; only a process exit actually frees zombie threads
other signal death / hard crash / any other exception — the
      supervisor treats the shard as crashed and applies its retry /
      bisection budget
====  =================================================================

Chaos injection (tests and the CI telemetry-smoke job) rides the
``REPRO_WORKER_CHAOS`` environment variable::

    kill:SUBSTR:MARKER   SIGKILL self before the first case whose key
                         contains SUBSTR, once (MARKER file arms it)
    hang:SUBSTR          sleep forever in that case (exercises the
                         shard deadline -> hard kill path)
    stop:SUBSTR:MARKER   SIGSTOP self there, once (exercises
                         heartbeat-loss detection)

The hook runs *inside* ``run_case``, i.e. mid-shard with earlier
cases already journaled — exactly the failure the executor's
resume-and-merge machinery must absorb.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from pathlib import Path
from typing import Callable

from repro import obs
from repro.errors import ConfigError, ReproError, ThreadLeakError
from repro.exec.shard import ShardSpec
from repro.obs.journal import JournalWriter
from repro.resilience.runner import ResilientRunner, RetryPolicy, journal_header
from repro.sim.sweep import SweepCase

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_RECYCLE = 3

#: How an exit-2 worker's diagnosis line starts in its log.
ERROR_PREFIX = "error: "

#: Environment variable carrying a chaos directive (see module docs).
CHAOS_ENV = "REPRO_WORKER_CHAOS"


def _chaos_hook(directive: str) -> Callable[[SweepCase], None]:
    """Compile a ``REPRO_WORKER_CHAOS`` directive into a pre-case hook."""
    parts = directive.split(":")
    action = parts[0]
    if action not in ("kill", "hang", "stop"):
        raise ConfigError(f"unknown chaos action {action!r} in {directive!r}")
    if action in ("kill", "stop") and len(parts) < 3:
        raise ConfigError(
            f"chaos directive {directive!r} needs a marker path: "
            f"{action}:SUBSTR:MARKER")
    substr = parts[1]
    marker = Path(":".join(parts[2:])) if len(parts) > 2 else None

    def hook(case: SweepCase) -> None:
        key = f"{case.matrix_name}/{case.stc_name}/{case.kernel}"
        if substr not in key:
            return
        if action == "hang":
            logger.warning("chaos: hanging in case %s", key)
            while True:
                time.sleep(3600)
        # One-shot actions arm themselves through the marker file so a
        # respawned worker does not die at the same case forever.
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            return
        if action == "kill":
            logger.warning("chaos: SIGKILLing self in case %s", key)
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            logger.warning("chaos: SIGSTOPping self in case %s", key)
            os.kill(os.getpid(), signal.SIGSTOP)

    return hook


def run_shard(spec: ShardSpec) -> int:
    """Execute one shard; returns the process exit code.

    The runner journals every finished case to ``spec.journal`` and
    resumes from it.  The shard's ``campaign`` fingerprint binds the
    journal, so a stale journal from a different campaign is rejected
    rather than silently replayed.  Shared persistence rides
    ``spec.store``: the root of the result store the supervisor had
    bound, whose append-only per-writer segments are safe under the
    whole fleet (every shard binds the same store as its block-cache
    second tier).
    """
    # The journal carries metrics deltas and spans, so the obs layer
    # always records inside a worker.
    obs.enable()
    store = None
    if spec.store:
        from repro.sim import engine
        from repro.store import ResultStore

        store = ResultStore(spec.store)
        engine.bind_store(store)
    sweep = spec.build_sweep()
    chaos = os.environ.get(CHAOS_ENV)
    if chaos:
        sweep.pre_case = _chaos_hook(chaos)

    log = JournalWriter(spec.journal, registry=obs.metrics(),
                        tracer=obs.tracer())
    runner = ResilientRunner(
        sweep=sweep,
        timeout_s=spec.timeout_s or None,
        retry=RetryPolicy(max_retries=spec.max_retries),
        journal_path=spec.journal,
        resume=True,
        seed=spec.seed,
        fingerprint=spec.campaign,
        max_leaked_threads=spec.max_leaked_threads,
        journal_writer=log,
    )

    def on_sigterm(signum, frame):  # noqa: ARG001 - signal signature
        # Every record is one append, so exiting between cases (or even
        # mid-case) costs at most the in-flight attempt.
        raise SystemExit(128 + signal.SIGTERM)

    signal.signal(signal.SIGTERM, on_sigterm)

    stop_beating = threading.Event()

    def beat_loop() -> None:
        # Each beat appends to the journal, so its mtime stays fresh
        # even while one case runs for a long time.
        while not stop_beating.wait(max(spec.heartbeat_interval_s, 0.05)):
            try:
                log.beat()
            except Exception:   # noqa: BLE001 - never kill the beat
                logger.warning("heartbeat failed", exc_info=True)

    beater = threading.Thread(target=beat_loop, name="repro-heartbeat",
                              daemon=True)
    exit_code = EXIT_OK
    phase = "finished"
    try:
        # The header goes first, so no beat can land ahead of it.
        log.open(journal_header(spec.campaign, len(spec.cases)))
        log.beat("starting")
        beater.start()
        try:
            runner.run()
        except ThreadLeakError as exc:
            logger.warning("shard %s requests a recycle: %s",
                           spec.shard_id, exc)
            exit_code = EXIT_RECYCLE
            phase = "recycling"
        except SystemExit:
            phase = "terminated"
            raise
        except BaseException:
            phase = "aborted"
            raise
    finally:
        if store is not None:
            from repro.sim import engine

            engine.unbind_store()
            store.close()
        stop_beating.set()
        if beater.is_alive():
            beater.join(timeout=2.0)
        log.close(phase)
    return exit_code


def worker_main(spec_path: str) -> int:
    """CLI entry: read a shard spec and run it (see exit-code table)."""
    try:
        spec = ShardSpec.read(spec_path)
    except ConfigError as exc:
        logger.error("%sbad shard spec: %s", ERROR_PREFIX, exc)
        return EXIT_ERROR
    try:
        return run_shard(spec)
    except ReproError as exc:
        # Any other exception ends the worker as a crash: the supervisor
        # respawns and, past the budget, bisects the shard.
        logger.error("%s%s: %s", ERROR_PREFIX, type(exc).__name__, exc,
                     exc_info=True)
        return EXIT_ERROR
