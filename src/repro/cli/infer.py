"""The ``infer`` subcommand: end-to-end model inference simulation.

``repro infer`` builds a model graph (``repro.graph``), schedules it
through the :class:`~repro.graph.runner.GraphRunner` on each requested
STC, and prints the per-layer schedule plus the end-to-end summary —
latency, energy including DRAM edge traffic, buffer residency, and
block-cache/store amortisation across the batch.  ``--out`` writes the
:class:`~repro.graph.runner.ModelReport` JSON the CI smoke consumes.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis.tables import render_table
from repro.cli.common import (
    add_obs_flags,
    add_run_flags,
    build_stcs,
    make_spec,
)
from repro.graph import DEFAULT_BUFFER_KIB, GraphRunner, dnn_graph
from repro.runtime import Session


def cmd_infer(args: argparse.Namespace, session: Session) -> int:
    scale = args.scale if args.scale > 0 else None
    stcs = build_stcs(args.stc)
    reports = {}
    for stc in stcs:
        graph = dnn_graph(args.model, args.sparsity, scale=scale,
                          seed=args.seed)
        runner = GraphRunner(graph, stc, batch=args.batch,
                             buffer_bytes=args.buffer_kib * 1024)
        reports[stc.name] = runner.run()

    for name, report in reports.items():
        rows = []
        for node in report.per_layer(request=0):
            rows.append([
                node.node, node.kernel, node.compute_cycles,
                node.memory_cycles, node.latency_cycles,
                node.energy_pj / 1e3, node.dram_bytes / 1024,
                ("R" if node.read_resident else "-")
                + ("W" if node.write_resident else "-"),
            ])
        print(f"\n{args.model} on {name}  "
              f"(batch {report.batch}, buffer {args.buffer_kib} KiB, "
              f"{len(report.plan.resident)} resident / "
              f"{len(report.plan.spilled)} spilled edges)")
        print(render_table(
            ["layer", "kernel", "cycles", "mem cyc", "latency",
             "energy (nJ)", "DRAM (KiB)", "buf"],
            rows,
        ))
        print(f"e2e latency: {report.e2e_latency} cycles   "
              f"e2e energy: {report.e2e_energy_pj / 1e3:.1f} nJ   "
              f"DRAM: {report.dram_traffic_bytes / 1024:.1f} KiB   "
              f"cache hit rate: {100 * report.cache_hit_rate:.1f}%")

    if args.out:
        path = Path(args.out)
        if len(reports) == 1:
            payload = next(iter(reports.values())).as_json()
        else:
            payload = {
                "kind": "repro.model_report_set",
                "model": args.model,
                "reports": {name: r.as_json() for name, r in reports.items()},
            }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"\nwrote model report to {path}")
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    infer = sub.add_parser(
        "infer",
        help="simulate a model's forward pass end to end (graph runner)",
    )
    infer.add_argument("--model", default="resnet50",
                       choices=["resnet50", "transformer"])
    infer.add_argument("--stc", default="uni-stc,ds-stc,rm-stc")
    infer.add_argument("--sparsity", type=float, default=0.70)
    infer.add_argument("--scale", type=float, default=0.0,
                       help="linear layer-shape scale (0 = the model's "
                            "default catalogue scale)")
    infer.add_argument("--batch", type=int, default=1,
                       help="user requests folded through one simulated "
                            "device (the shared block cache amortises "
                            "repeated tile patterns across requests)")
    infer.add_argument("--buffer-kib", type=int, default=DEFAULT_BUFFER_KIB,
                       help="on-chip inter-layer buffer budget; edges that "
                            "fit stay resident, the rest spill to DRAM")
    infer.add_argument("--seed", type=int, default=11,
                       help="weight/activation seed (threaded through "
                            "every layer draw)")
    infer.add_argument("--out", default="", metavar="FILE",
                       help="write the ModelReport JSON here")
    infer.add_argument(
        "--store", default="", metavar="DIR",
        help="persistent content-addressed result store directory bound "
             "for the run (second tier under the block cache)",
    )
    add_obs_flags(infer)
    add_run_flags(infer)
    infer.set_defaults(
        func=cmd_infer,
        make_spec=lambda a: make_spec(
            a, "infer",
            {"model": a.model, "stc": a.stc, "sparsity": a.sparsity,
             "scale": a.scale, "batch": a.batch,
             "buffer_kib": a.buffer_kib},
            seed=a.seed),
    )
