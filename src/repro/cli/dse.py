"""The ``dse`` subcommand: design-space exploration."""

from __future__ import annotations

import argparse
import sys

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


def _load_space(args: argparse.Namespace):
    import json

    from repro.dse import DesignSpace, default_space

    if args.space:
        try:
            with open(args.space, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"cannot read space spec {args.space}: {exc}") from exc
    else:
        spec = default_space().as_spec()
    if args.matrix:
        spec["matrices"] = split_csv(args.matrix)
    if args.kernel:
        spec["kernels"] = split_csv(args.kernel)
    return DesignSpace.from_spec(spec)


def cmd_dse(args: argparse.Namespace, session: Session) -> int:
    """Design-space exploration: search configs, report the frontier.

    The default space is the paper's own design walk (Table IV tile
    candidates x Fig. 22 DPG counts on the 'cant' stand-in); pass
    ``--space FILE`` for a custom JSON spec and/or ``--matrix`` /
    ``--kernel`` to re-target the workload axes.  ``--checkpoint`` +
    ``--resume`` replay journaled evaluations after an interrupted
    campaign instead of re-simulating them.
    """
    from repro.dse import Campaign, make_strategy

    space = _load_space(args)
    strategy = make_strategy(args.strategy, seed=session.spec.seed,
                             budget=args.budget)
    res = session.spec.resilience
    campaign = Campaign(
        space,
        strategy,
        n_cores=args.cores,
        journal_path=res.checkpoint or None,
        resume=res.resume,
        timeout_s=res.timeout,
        max_retries=res.max_retries,
        exec_policy=session.spec.exec,
    )
    if session.spec.exec.workers and res.checkpoint:
        print(f"live status: repro top {res.checkpoint}", file=sys.stderr)
    result = campaign.run()
    print(f"dse campaign [{result.strategy}] over {space.n_configs} candidate "
          f"config(s) x {len(space.matrices) * len(space.kernels)} workload "
          f"cell(s): {len(result.summaries)} evaluated, "
          f"{result.n_simulated} point(s) simulated, "
          f"{result.n_resumed} replayed from the journal")
    if result.failed:
        print(f"warning: {len(result.failed)} candidate(s) failed and were "
              f"excluded from the frontier")
    if not result.summaries:
        print("no candidate produced a complete evaluation")
        session.fail("no candidate produced a complete evaluation")
        return 1
    print()
    print(result.render_table())
    if args.plot:
        print()
        print(result.render_plot())
    knee = result.knee_summary
    print(f"\nfrontier: {len(result.frontier)} of {len(result.summaries)} "
          f"candidate(s); knee point: {knee.label()}")
    if args.out:
        result.write_json(args.out)
        print(f"wrote frontier JSON to {args.out}")
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    dse = sub.add_parser(
        "dse",
        help="design-space exploration (Pareto frontier over config knobs)",
    )
    dse.add_argument(
        "--space", default="", metavar="FILE",
        help="JSON space spec (default: the paper's Table IV x Fig. 22 walk)",
    )
    dse.add_argument(
        "--matrix", default="",
        help="override the space's matrices (comma list of matrix specs)",
    )
    dse.add_argument(
        "--kernel", default="",
        help="override the space's kernels (comma list)",
    )
    dse.add_argument(
        "--strategy", default="grid", choices=["grid", "random", "evolve"],
        help="search strategy (all deterministic under --seed)",
    )
    dse.add_argument(
        "--budget", type=int, default=0,
        help="max candidate configs to evaluate (0 = strategy default; "
             "grid: whole space)",
    )
    dse.add_argument("--seed", type=int, default=0,
                     help="seed for random/evolve sampling")
    dse.add_argument(
        "--cores", type=int, default=1,
        help="simulate each evaluation across this many cores "
             "(shared block cache)",
    )
    dse.add_argument(
        "--out", default="", metavar="FILE",
        help="write the deterministic frontier JSON artifact here",
    )
    dse.add_argument(
        "--plot", action="store_true",
        help="also print the ASCII cycles-vs-area frontier plot",
    )
    add_resilience_flags(dse, unit="evaluation")
    add_exec_flags(dse)
    add_obs_flags(dse)
    add_run_flags(dse)
    dse.set_defaults(
        func=cmd_dse,
        make_spec=lambda a: make_spec(
            a, "dse",
            {"space": a.space, "matrix": a.matrix, "kernel": a.kernel,
             "strategy": a.strategy, "budget": a.budget, "cores": a.cores},
            seed=a.seed),
    )
