"""The ``amg`` subcommand: the AMG case study."""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.tables import render_table
from repro.cli.common import add_run_flags, build_stcs, make_spec
from repro.runtime import Session


def cmd_amg(args: argparse.Namespace, session: Session) -> int:
    from repro.apps.amg import AMGSolver
    from repro.formats.csr import CSRMatrix
    from repro.graph import GraphRunner

    a = CSRMatrix.from_coo(session.matrix(f"poisson:{args.grid}"))
    solver = AMGSolver(a)
    result = solver.solve(np.ones(a.shape[0]))
    print(f"Poisson {args.grid}x{args.grid}: levels "
          f"{[l.a.shape[0] for l in solver.levels]}, "
          f"{result.iterations} V-cycles, converged={result.converged}")
    graph = solver.trace.graph("amg")
    rows = []
    for stc in build_stcs(args.stc):
        cycles = GraphRunner(graph, stc).run().kernel_cycles()
        # A one-level hierarchy (a small grid) traces no SpGEMM.
        rows.append([stc.name] + [cycles.get(k, 0) for k in ("spmv", "spgemm")])
    print(render_table(["stc", "spmv cycles", "spgemm cycles"], rows))
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    amg = sub.add_parser("amg", help="AMG case study")
    amg.add_argument("--grid", type=int, default=20)
    amg.add_argument("--stc", default="ds-stc,rm-stc,uni-stc")
    add_run_flags(amg)
    amg.set_defaults(
        func=cmd_amg,
        make_spec=lambda a: make_spec(
            a, "amg", {"grid": a.grid, "stc": a.stc}),
    )
