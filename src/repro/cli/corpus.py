"""The ``corpus`` subcommand: Table VIII-style corpus sweeps."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.tables import render_table
from repro.cli.common import (
    add_exec_flags,
    add_obs_flags,
    add_resilience_flags,
    add_run_flags,
    make_spec,
    split_csv,
)
from repro.errors import ReproError
from repro.runtime import Session


def cmd_corpus(args: argparse.Namespace, session: Session) -> int:
    """Corpus sweep: Table VIII-style Aver/Max rows per kernel.

    Runs through the fault-tolerant campaign executor: a failing case
    is journaled and skipped rather than aborting the sweep,
    ``--checkpoint`` + ``--resume`` continue an interrupted run without
    re-simulating finished cases, ``--timeout``/``--max-retries`` bound
    each case, and ``--workers N`` shards the sweep across supervised
    subprocesses (crash-isolated, hard-kill deadlines) with results
    identical to the in-process run.
    """
    from repro.sim.results import compare
    from repro.workloads.suitesparse import corpus

    names = split_csv(args.stc)
    if len(names) < 2:
        raise ReproError("corpus needs at least two STCs (target ... baseline)")
    target_name, baseline_names = names[-1], names[:-1]
    specs = corpus(sizes=(128,), limit=args.limit)
    # Shards rebuild matrices from the registry's ``corpus:NAME`` specs,
    # so the campaign is addressed by name, never by pickled arrays.
    matrices = {s.name: f"corpus:{s.name}" for s in specs}
    kernels = split_csv(args.kernel)
    executor = session.executor(matrices, names, kernels)
    checkpoint = session.spec.resilience.checkpoint
    if session.spec.exec.workers and checkpoint:
        print(f"live status: repro top {checkpoint}", file=sys.stderr)
    summary = executor.run()

    by_cell = {(r.case.matrix_name, r.case.kernel, r.case.stc_name): r.report
               for r in summary.results}
    rows = []
    dropped = set()
    for kernel in kernels:
        for baseline_name in baseline_names:
            ours, bases = [], []
            for name in matrices:
                t_rep = by_cell.get((name, kernel, target_name))
                b_rep = by_cell.get((name, kernel, baseline_name))
                if t_rep is None or b_rep is None:
                    dropped.add((name, kernel))
                    continue
                ours.append(t_rep)
                bases.append(b_rep)
            if not ours:
                continue
            row = compare(ours, bases, baseline_name)
            # Wall time and cache behaviour ride on each SimReport (and
            # on journaled entries), so these columns need no re-runs.
            wall_s = sum(r.wall_s for r in ours + bases)
            hit_rate = float(np.mean([r.cache_hit_rate for r in ours]))
            rows.append([kernel, f"vs {baseline_name}", row.avg_speedup,
                         row.avg_energy_reduction, row.avg_efficiency,
                         row.max_efficiency, wall_s, 100 * hit_rate])
    print(f"{target_name} over a {len(specs)}-matrix corpus:")
    if summary.n_resumed:
        print(f"resumed {summary.n_resumed} journaled case(s) without re-simulating")
    if summary.n_failed:
        taxo = ", ".join(f"{k}: {v}" for k, v in sorted(
            summary.taxonomy_counts().items()))
        print(f"warning: {summary.n_failed} case(s) failed ({taxo}); "
              f"{len(dropped)} (matrix, kernel) pair(s) excluded from the averages")
    print(render_table(
        ["kernel", "baseline", "Aver P", "Aver E", "Aver ExP", "Max ExP",
         "wall_s", "cache_hit%"], rows
    ))
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    corpus_cmd = sub.add_parser("corpus", help="Table VIII-style corpus sweep")
    corpus_cmd.add_argument("--limit", type=int, default=10)
    corpus_cmd.add_argument("--kernel", default="spmv,spgemm")
    corpus_cmd.add_argument(
        "--stc", default="ds-stc,rm-stc,uni-stc",
        help="comma list; the LAST entry is the target, the rest baselines",
    )
    add_resilience_flags(corpus_cmd)
    add_exec_flags(corpus_cmd)
    add_obs_flags(corpus_cmd)
    add_run_flags(corpus_cmd)
    corpus_cmd.set_defaults(
        func=cmd_corpus,
        make_spec=lambda a: make_spec(
            a, "corpus",
            {"limit": a.limit, "kernel": a.kernel, "stc": a.stc}),
    )
