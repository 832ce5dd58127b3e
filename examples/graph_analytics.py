"""Graph analytics: BFS (SpMV + SpMSpV), PageRank, a GNN layer.

Demonstrates the multi-kernel workloads of Table II on one power-law
graph: a direction-optimising BFS whose push steps are SpMSpV and pull
steps SpMV, PageRank's SpMV power iteration, and a GCN propagation
layer plus two-hop neighbourhood expansion (SpMM + SpGEMM).  Every
kernel call is traced; the trace is lowered to a chain graph and run
on the STC models.

Run:  python examples/graph_analytics.py
"""

import numpy as np

from repro.analysis.tables import print_table
from repro.apps.bfs import bfs
from repro.apps.gnn import GNNLayer, normalised_adjacency, two_hop
from repro.apps.trace import KernelTrace
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC
from repro.formats.csr import CSRMatrix
from repro.graph import GraphRunner
from repro.kernels import reference
from repro.workloads.synthetic import power_law


def main() -> None:
    n = 512
    raw = CSRMatrix.from_coo(power_law(n, avg_row_nnz=6.0, seed=3))
    adjacency = reference.add(raw, raw.transpose())  # undirected
    print(f"graph: {n} vertices, {adjacency.nnz} edges")

    # --- BFS -------------------------------------------------------------
    trace = KernelTrace()
    result = bfs(adjacency, source=0, trace=trace)
    print(f"\nBFS from vertex 0: reached {result.reached}/{n} vertices, "
          f"max level {result.levels.max()}, "
          f"{result.push_steps} push (SpMSpV) + {result.pull_steps} pull (SpMV) steps")
    print(f"frontier sizes: {result.frontier_sizes}")

    # --- PageRank -----------------------------------------------------------
    from repro.apps.pagerank import pagerank

    ranks = pagerank(adjacency, trace=trace)
    print(f"\nPageRank: converged in {ranks.iterations} SpMV iterations; "
          f"top vertices {ranks.top(3)}")

    # --- GNN layer ---------------------------------------------------------
    a_hat = normalised_adjacency(adjacency)
    rng = np.random.default_rng(0)
    features = rng.standard_normal((n, 32))
    weight = rng.standard_normal((32, 16)) / np.sqrt(32)
    layer = GNNLayer(a_hat, weight)
    hidden = layer.forward(features, trace=trace)
    print(f"\nGNN layer: features {features.shape} -> hidden {hidden.shape} "
          f"({np.count_nonzero(hidden)} active units after ReLU)")
    hops2 = two_hop(adjacency, trace=trace)
    print(f"two-hop neighbourhood: {hops2.nnz} entries (SpGEMM)")

    # --- Run the combined trace on the STC models --------------------------
    print(f"\ncombined kernel trace: {trace.kernel_counts()}")
    graph = trace.graph("analytics")
    rows = []
    reports = {}
    for stc in (DsSTC(), RmSTC(), UniSTC()):
        report = GraphRunner(graph, stc).run()
        total = report.e2e_compute_cycles
        energy = report.e2e_compute_energy_pj
        reports[stc.name] = (total, energy)
        rows.append([stc.name, total, energy / 1e3])
    base_cycles, base_energy = reports["ds-stc"]
    for row in rows:
        row.append(base_cycles / row[1])
        row.append((base_cycles / row[1]) * (base_energy / (row[2] * 1e3)))
    print_table(
        ["stc", "cycles", "energy (nJ)", "speedup vs DS", "energy-eff vs DS"],
        rows, title="Whole-application replay (BFS + GNN)",
    )


if __name__ == "__main__":
    main()
