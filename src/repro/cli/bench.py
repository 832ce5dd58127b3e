"""The ``bench`` subcommand: hot-path microbenchmarks."""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import add_obs_flags, add_run_flags, make_spec
from repro.runtime import Session


#: The report's identity checks: (section, flag, what a false flag means).
_CHECKS = (
    ("corpus_sweep", "reports_identical", "cold and LRU-warm reports diverge"),
    ("store", "reports_identical", "cold and store-replayed reports diverge"),
    ("infer", "totals_match", "batched and sequential inference totals disagree"),
)


def cmd_bench(args: argparse.Namespace, session: Session) -> int:
    """Hot-path microbenchmarks; exits 1 if any identity check fails."""
    from repro.perf.bench import render_summary, run_bench

    report = run_bench(
        out=args.out or None,
        smoke=args.smoke,
        corpus_limit=args.corpus_limit or None,
        repeat=args.repeat,
    )
    print(render_summary(report))
    if args.out:
        print(f"\nwrote {args.out}")
    for section, flag, meaning in _CHECKS:
        if not report[section][flag]:
            shown = ", ".join(report[section].get("report_mismatches", [])[:5])
            message = f"{section}: {meaning}" + (f" ({shown})" if shown else "")
            print(f"error: {message}", file=sys.stderr)
            session.fail(message)
            return 1
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    bench = sub.add_parser(
        "bench", help="hot-path microbenchmarks (encode / enumeration / sweep)"
    )
    bench.add_argument("--out", default="", help="write the JSON report here")
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus, one repetition — structure check only",
    )
    bench.add_argument(
        "--corpus-limit", type=int, default=0,
        help="cap on corpus matrices (0 = the full bench corpus)",
    )
    bench.add_argument(
        "--repeat", type=int, default=3,
        help="repetitions per timing (best-of, default 3)",
    )
    add_obs_flags(bench)
    add_run_flags(bench)
    bench.set_defaults(
        func=cmd_bench,
        make_spec=lambda a: make_spec(
            a, "bench",
            {"smoke": a.smoke, "corpus_limit": a.corpus_limit,
             "repeat": a.repeat}),
    )
