"""Deterministic merge of per-worker checkpoint journals.

Workers append to private journals; the supervisor folds them back
into the campaign journal when the campaign completes (or when a
crashed campaign resumes and sweeps up leftovers).  The merge is
append-only — it never rewrites entries that are already in the
campaign journal, mirroring how :class:`ResilientRunner` itself
appends on resume — and deterministic: new entries land in canonical
case order, so a cold sharded campaign's merged journal is
byte-identical to a single-process run's journal modulo the wall-clock
fields (``elapsed_s``, per-report ``wall_s``/``cache``).  Only a case
record's journal fields are merged: a worker's stamp, metrics deltas,
beats and spans stay in its shard journal.

Duplicate case keys across sources are classified, not silently
dropped:

- identical payloads (modulo wall-clock fields) deduplicate;
- an ``ok`` outcome supersedes a ``failed`` one for the same case (a
  retry succeeded after a crashed attempt);
- two *conflicting* ``ok`` outcomes — same case, different simulated
  results — raise :class:`CheckpointError`: that means
  non-determinism or journal corruption, and folding either entry in
  silently would poison the campaign's artifacts.
"""

from __future__ import annotations

import copy
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import CheckpointError
from repro.obs.journal import JournalReader, JournalWriter
from repro.resilience.runner import (
    journal_entries,
    journal_header,
    read_raw_journal,
)

#: Fields that legitimately differ between runs of the same case.
WALLCLOCK_FIELDS = ("elapsed_s",)
WALLCLOCK_REPORT_FIELDS = ("wall_s", "cache")


def strip_wallclock(entry: dict) -> dict:
    """A copy of a journal entry with host-timing fields removed.

    This is the normalisation under which a sharded campaign's entries
    must equal a single-process run's: simulated results are
    deterministic, host wall time and per-process cache behaviour are
    not.  ``attempts`` stays — a retried case is a real difference.
    """
    out = copy.deepcopy(entry)
    for name in WALLCLOCK_FIELDS:
        out.pop(name, None)
    report = out.get("report")
    if isinstance(report, dict):
        for name in WALLCLOCK_REPORT_FIELDS:
            report.pop(name, None)
    return out


@dataclass
class MergeStats:
    """What one merge did, for logs and tests."""

    sources: int = 0
    appended: int = 0
    deduplicated: int = 0
    superseded: int = 0        #: failed entries replaced by an ok retry
    already_present: int = 0   #: keys the target journal already covered
    source_paths: List[str] = field(default_factory=list)


def fold_entries(
    sources: Sequence[Tuple[str, Dict[str, dict]]],
) -> Tuple[Dict[str, dict], MergeStats]:
    """Fold per-source entry maps into one, classifying duplicates."""
    stats = MergeStats(sources=len(sources))
    folded: Dict[str, dict] = {}
    origin: Dict[str, str] = {}
    for source_name, entries in sources:
        stats.source_paths.append(source_name)
        for key, entry in entries.items():
            prior = folded.get(key)
            if prior is None:
                folded[key] = entry
                origin[key] = source_name
                continue
            prior_ok = prior.get("status") == "ok"
            entry_ok = entry.get("status") == "ok"
            if prior_ok and entry_ok:
                if strip_wallclock(prior) == strip_wallclock(entry):
                    stats.deduplicated += 1
                    continue
                case = entry["case"]
                raise CheckpointError(
                    "journal merge conflict: case "
                    f"({case['matrix']}, {case['kernel']}, {case['stc']}) "
                    f"has two different ok outcomes (from {origin[key]} "
                    f"and {source_name}) — non-deterministic results or a "
                    "corrupt journal"
                )
            if entry_ok and not prior_ok:
                folded[key] = entry       # a retry succeeded; it supersedes
                origin[key] = source_name
                stats.superseded += 1
            elif prior_ok:
                stats.superseded += 1     # stale failure; keep the ok entry
            else:
                folded[key] = entry       # later failure supersedes earlier
                origin[key] = source_name
    return folded, stats


def merge_journals(
    target: Union[str, Path],
    sources: Sequence[Union[str, Path]],
    fingerprint: str,
    order: Optional[Sequence[str]] = None,
    cases: Optional[int] = None,
) -> MergeStats:
    """Append worker-journal entries into the campaign journal.

    ``order`` is the canonical case-key order (the full grid's);
    entries are appended in that order, unknown keys last in sorted
    order.  Sources with no record are skipped (a worker that never
    started, or died writing its header, has nothing to merge);
    unreadable or mismatched ones — wrong kind, a *different journal
    version* (mixed-version headers), or a foreign fingerprint — raise
    :class:`CheckpointError`.  The write is atomic (a copy of the
    campaign journal, appended to, then renamed over it), so a crash
    mid-merge leaves the previous journal intact and the sources still
    on disk.
    """
    target = Path(str(target))
    loaded: List[Tuple[str, Dict[str, dict]]] = []
    for source in sources:
        source = Path(str(source))
        records = JournalReader(source).poll()
        if records:   # a worker killed before its header landed has none
            loaded.append(
                (source.name, journal_entries(source, records, fingerprint)[1]))
    folded, stats = fold_entries(loaded)

    existing: Dict[str, dict] = {}
    appending = target.exists()
    if appending:
        _, existing = read_raw_journal(target, fingerprint)

    to_append: List[Tuple[str, dict]] = []
    for key, entry in folded.items():
        prior = existing.get(key)
        if prior is None:
            to_append.append((key, entry))
            continue
        if prior.get("status") == "ok":
            if (entry.get("status") == "ok"
                    and strip_wallclock(prior) != strip_wallclock(entry)):
                case = entry["case"]
                raise CheckpointError(
                    "journal merge conflict: case "
                    f"({case['matrix']}, {case['kernel']}, {case['stc']}) "
                    "disagrees with the campaign journal's ok outcome"
                )
            stats.already_present += 1
        elif entry.get("status") == "ok":
            to_append.append((key, entry))  # last-wins read supersedes
        else:
            stats.already_present += 1

    rank = {key: i for i, key in enumerate(order or [])}
    to_append.sort(key=lambda kv: (rank.get(kv[0], len(rank)), kv[0]))
    stats.appended = len(to_append)

    tmp = target.with_name(target.name + ".tmp")
    if appending:
        shutil.copyfile(target, tmp)
    with JournalWriter(tmp) as writer:
        writer.open(journal_header(fingerprint, cases if cases is not None
                                   else len(order or folded)),
                    fresh=not appending)
        for _, entry in to_append:
            writer.append(entry)
        writer.sync()
    os.replace(tmp, target)
    obs.inc("exec.journal_entries_merged", stats.appended)
    return stats
