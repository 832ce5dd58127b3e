"""AMG case study: solve a 2-D Poisson problem and compare STCs.

Reproduces the paper's §VI-D experiment end-to-end: build a smoothed-
aggregation AMG hierarchy over the package's own CSR kernels, solve to
1e-8, then lower the solver's recorded SpMV/SpGEMM kernel trace to a
chain graph, run it on every tensor-core model and print the Fig. 21
speedups.

Run:  python examples/amg_solver.py
"""

import numpy as np

from repro.analysis.tables import print_table
from repro.apps.amg import AMGSolver
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, Gamma, NvDTC, RmSTC, Sigma, Trapezoid
from repro.formats.csr import CSRMatrix
from repro.graph import GraphRunner
from repro.workloads.synthetic import poisson2d


def main() -> None:
    grid = 28
    a = CSRMatrix.from_coo(poisson2d(grid))
    print(f"Poisson {grid}x{grid}: {a.shape[0]} unknowns, {a.nnz} nonzeros")

    solver = AMGSolver(a)
    sizes = [level.a.shape[0] for level in solver.levels]
    print(f"hierarchy: {' -> '.join(map(str, sizes))} "
          f"(grid complexity {solver.grid_complexity():.2f})")

    rng = np.random.default_rng(1)
    b = rng.random(a.shape[0])
    result = solver.solve(b)
    print(f"converged in {result.iterations} V-cycles; "
          f"relative residual {result.residuals[-1] / result.residuals[0]:.2e}")
    history = "  ".join(f"{r / result.residuals[0]:.1e}" for r in result.residuals[:8])
    print(f"residual history: {history} ...")

    counts = solver.trace.kernel_counts()
    print(f"\nkernel trace: {counts['spgemm']} SpGEMM (setup), "
          f"{counts['spmv']} SpMV (V-cycles)")

    graph = solver.trace.graph("amg")
    stcs = [NvDTC(), Gamma(), Sigma(), Trapezoid(), DsSTC(), RmSTC(), UniSTC()]
    per_kernel = {}
    for stc in stcs:
        for kernel, cycles in GraphRunner(graph, stc).run().kernel_cycles().items():
            per_kernel.setdefault(kernel, {})[stc.name] = cycles
    rows = []
    for kernel in ("spmv", "spgemm"):
        ds_cycles = per_kernel[kernel]["ds-stc"]
        for name, cycles in per_kernel[kernel].items():
            rows.append([kernel, name, cycles, ds_cycles / cycles])
    print_table(
        ["kernel", "stc", "cycles", "speedup vs DS-STC"], rows,
        title="Fig. 21 — AMG kernel speedups (paper: Uni-STC 4.84x SpMV, 2.46x SpGEMM)",
    )


if __name__ == "__main__":
    main()
