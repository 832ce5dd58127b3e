"""The ``top`` subcommand: live status of a running campaign.

``repro top CHECKPOINT`` points at the same ``--checkpoint`` journal
path the campaign was started with (or directly at its ``<journal>.d``
workdir) and tails the shard journals the workers write, whose beats,
case records and metrics deltas are the campaign's telemetry
(:mod:`repro.obs.telemetry`).  It is a pure *reader*: it attaches to
files only, so it can run from another terminal, after the supervisor
died, or against a finished campaign's leftovers.

Three output modes:

- default: an auto-refreshing ANSI table (one row per shard: phase,
  progress, cases/s, ETA, cache hit rate, retries/failures/crashes,
  staleness, slow-shard flag), exiting when the campaign reaches a
  terminal state;
- ``--once``: render a single frame and exit;
- ``--status-json``: print the machine-readable status document
  (schema: :data:`repro.obs.telemetry.STATUS_SCHEMA`) once and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

from repro.analysis.tables import render_table
from repro.errors import ReproError, TelemetryError
from repro.obs.telemetry import CampaignMonitor, check_status
from repro.runtime import RunSpec, Session

#: ANSI: cursor home + clear screen (the classic ``top`` refresh).
_CLEAR = "\x1b[H\x1b[2J"


def _resolve_workdir(target: str) -> Tuple[Path, Optional[Path]]:
    """Map the user's path to (workdir, campaign journal).

    Accepts either the campaign's ``--checkpoint`` journal path (the
    workdir is its ``<name>.d`` sibling, matching the supervisor's
    convention) or the workdir itself.
    """
    path = Path(target)
    if path.is_dir():
        journal = (path.with_name(path.name[:-len(".d")])
                   if path.name.endswith(".d") else None)
        return path, journal
    return path.with_name(path.name + ".d"), path


def _campaign_frame(monitor: CampaignMonitor,
                    journal: Optional[Path]) -> None:
    """Recover campaign-level totals from the checkpoint journal.

    The journal header records the full grid size and its ok entries
    are the cases finished *before* this campaign's shards started
    (the supervisor merges shard journals in only at the very end, at
    which point the final ``status.json`` supersedes this view).
    Unreadable or foreign journals simply leave the totals to the
    per-shard fallback.
    """
    if journal is None or not journal.exists():
        return
    from repro.resilience.runner import read_raw_journal

    try:
        header, entries = read_raw_journal(journal)
    except ReproError:
        return
    cases = header.get("cases")
    if isinstance(cases, int) and cases > 0:
        monitor.campaign_total = cases
    monitor.prior_done = sum(
        1 for e in entries.values() if e.get("status") == "ok")


def _final_status(workdir: Path) -> Optional[dict]:
    """The supervisor's terminal ``status.json``, if it exists."""
    path = workdir / "status.json"
    try:
        doc = check_status(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError, TelemetryError):
        return None
    return doc if doc.get("state") == "done" else None


def _cell(value, suffix: str = "") -> str:
    if value is None:
        return "-"
    return f"{value}{suffix}"


def _render(doc: dict, workdir: Path) -> str:
    """One human frame: a campaign summary line plus the shard table."""
    eta = doc.get("eta_s")
    lines = [
        f"campaign {doc['state']}: {doc['done']}/{doc['total']} cases"
        f"  ({doc['cases_per_s']} cases/s"
        f"{f', eta {eta}s' if eta is not None else ''})"
        f"  [{workdir}]",
    ]
    if doc.get("prior_done"):
        lines.append(f"resumed: {doc['prior_done']} case(s) journaled "
                     "by a previous campaign")
    rows = []
    for shard in doc["shards"]:
        hit = shard.get("cache_hit_rate")
        rows.append([
            shard["shard"],
            shard["phase"] + (" SLOW" if shard.get("slow") else ""),
            f"{shard['done']}/{shard['total']}",
            _cell(shard.get("pid")),
            _cell(shard.get("cases_per_s")),
            _cell(shard.get("eta_s")),
            _cell(round(100 * hit, 1) if hit is not None else None, "%"),
            int(shard.get("retries", 0)),
            int(shard.get("failures", 0)),
            int(shard.get("crashes", 0)),
            _cell(shard.get("age_s"), "s"),
        ])
    lines.append(render_table(
        ["shard", "phase", "done", "pid", "cases/s", "eta",
         "cache_hit", "retry", "fail", "crash", "age"], rows))
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace, session: Session) -> int:
    workdir, journal = _resolve_workdir(args.target)
    if not workdir.is_dir() and not (journal and journal.exists()):
        raise ReproError(
            f"no campaign found at {args.target} (expected a --checkpoint "
            f"journal or its {workdir.name} workdir)")

    monitor = CampaignMonitor()
    _campaign_frame(monitor, journal)

    def frame() -> dict:
        final = _final_status(workdir)
        if final is not None:
            return final
        monitor.discover(workdir)
        monitor.poll()
        return monitor.status()

    try:
        if args.status_json:
            print(json.dumps(frame(), indent=2))
            return 0
        if args.once:
            print(_render(frame(), workdir))
            return 0
        while True:
            doc = frame()
            sys.stdout.write(_CLEAR + _render(doc, workdir) + "\n")
            sys.stdout.flush()
            if doc["state"] != "running":
                return 0
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # Piped into head/grep and the reader left: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def register(sub: argparse._SubParsersAction) -> None:
    top = sub.add_parser(
        "top",
        help="live status view of a running (or finished) campaign",
    )
    top.add_argument(
        "target", metavar="CHECKPOINT",
        help="the campaign's --checkpoint journal path, or its .d workdir",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh period for the live view",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one frame and exit instead of refreshing",
    )
    top.add_argument(
        "--status-json", action="store_true",
        help="print the machine-readable status document once and exit",
    )
    # A viewer must not write manifests into the campaign it watches.
    top.set_defaults(
        func=cmd_top,
        make_spec=lambda a: RunSpec(
            command="top", params={"target": a.target}, manifest_dir=""),
    )
