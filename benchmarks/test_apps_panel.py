"""Application panel: BFS, PageRank and GNN traces across the STCs.

Table II motivates Uni-STC with applications that *combine* kernels:
BFS (SpMV + SpMSpV), GNN (SpMM + SpGEMM), and iterative solvers.  The
AMG case study has its own Fig. 21 benchmark; this panel runs the
other Table II workloads end to end — real traversals/propagations
over the package's own kernels — and runs their combined kernel
traces, lowered to chain graphs, on DS-STC, RM-STC and Uni-STC.
"""

import numpy as np
import pytest

from benchmarks.harness import headline_stcs
from repro.analysis.tables import print_table
from repro.apps.bfs import bfs
from repro.apps.gnn import GNNLayer, normalised_adjacency, two_hop
from repro.apps.pagerank import pagerank
from repro.apps.trace import KernelTrace
from repro.formats.csr import CSRMatrix
from repro.graph import GraphRunner
from repro.kernels import reference
from repro.workloads.structured import rmat


def _graph(scale=8, seed=5):
    raw = CSRMatrix.from_coo(rmat(scale, edge_factor=6, seed=seed))
    return reference.add(raw, raw.transpose())


def _compute():
    adjacency = _graph()
    traces = {}

    bfs_trace = KernelTrace()
    result = bfs(adjacency, 0, trace=bfs_trace)
    assert result.reached > adjacency.shape[0] // 2
    traces["bfs"] = bfs_trace

    pr_trace = KernelTrace()
    ranks = pagerank(adjacency, trace=pr_trace, max_iterations=40, tol=1e-8)
    assert ranks.ranks.sum() == pytest.approx(1.0)
    traces["pagerank"] = pr_trace

    gnn_trace = KernelTrace()
    a_hat = normalised_adjacency(adjacency)
    rng = np.random.default_rng(0)
    layer = GNNLayer(a_hat, rng.standard_normal((16, 8)) / 4)
    layer.forward(rng.standard_normal((adjacency.shape[0], 16)), trace=gnn_trace)
    two_hop(adjacency, trace=gnn_trace)
    traces["gnn"] = gnn_trace

    stcs = headline_stcs()
    table = {}
    for app, trace in traces.items():
        graph = trace.graph(app)
        for name, stc in stcs.items():
            report = GraphRunner(graph, stc).run()
            table[(app, name)] = (
                report.e2e_compute_cycles,
                report.e2e_compute_energy_pj,
                "+".join(sorted(report.kernel_cycles())),
            )
    return table


def test_apps_panel(benchmark):
    table = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = []
    for (app, name), (cycles, energy, kernels) in table.items():
        ds_cycles, ds_energy, _ = table[(app, "ds-stc")]
        rows.append([
            app, kernels, name, cycles, ds_cycles / cycles,
            (ds_cycles / cycles) * (ds_energy / energy),
        ])
    print_table(
        ["app", "kernels", "stc", "cycles", "speedup vs DS", "energy-eff vs DS"],
        rows, title="Table II applications — combined-kernel traces across STCs",
    )
    for app in ("bfs", "pagerank", "gnn"):
        uni = table[(app, "uni-stc")]
        ds = table[(app, "ds-stc")]
        rm = table[(app, "rm-stc")]
        # Uni-STC: best energy on every application and never slower
        # than DS-STC (RM-STC is faster on BFS).
        assert uni[1] < ds[1], app
        assert uni[1] < rm[1], app
        assert uni[0] <= ds[0], app
        benchmark.extra_info[f"{app}_speedup"] = round(ds[0] / uni[0], 2)
