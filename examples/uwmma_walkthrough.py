"""Walkthrough: one T1 task through TMS -> DPG -> SDPU, cycle by cycle.

Reproduces the paper's worked examples (Figs. 8, 9 and 14) as live
output: the per-cycle T3 dispatch, the decoded 8-bit T4 task codes
(including a Fig. 9-style 'C[t] += A*B + A*B' reading), the SDPU lane
packing, and finally the UWMMA instruction stream the SM would issue
for a whole kernel (§IV-F/G), with its stall/overlap accounting.

Run:  python examples/uwmma_walkthrough.py
"""

import numpy as np

from repro.analysis.ascii_plot import histogram
from repro.arch.dataflow_trace import trace_block
from repro.arch.program import compile_kernel, validate_program
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC
from repro.formats.bbc import BBCMatrix
from repro.sim.engine import simulate_kernel
from repro.workloads.synthetic import banded


def main() -> None:
    rng = np.random.default_rng(5)

    # --- one sparse T1 task, traced cycle by cycle ---------------------
    a = rng.random((16, 16)) < 0.25
    b = rng.random((16, 16)) < 0.25
    task = T1Task.from_bitmaps(a, b)
    print(f"T1 task: nnz(A)={a.sum()}, nnz(B)={b.sum()}, "
          f"{task.intermediate_products()} intermediate products\n")
    trace = trace_block(task)
    print(trace.render(max_cycles=4))

    # --- the same task's utilisation profile ---------------------------
    # A and B as one-block matrices: their SpGEMM is exactly this task.
    uni = UniSTC()
    block = simulate_kernel("spgemm", BBCMatrix.from_dense(a), uni,
                            b=BBCMatrix.from_dense(b))
    print("\nper-cycle utilisation bins:")
    print(histogram(["0-25%", "25-50%", "50-75%", "75-100%"],
                    block.util_hist.fractions(), width=30))

    # --- whole-kernel UWMMA program -------------------------------------
    bbc = BBCMatrix.from_coo(banded(128, 12, 0.4, run_length=2, seed=1))
    program = compile_kernel("spgemm", bbc)
    validate_program(program)
    report = simulate_kernel("spgemm", bbc, uni)
    print(f"\nUWMMA program for SpGEMM on a {bbc.shape} matrix:")
    print(f"  {program.t1_tasks} T1 tasks -> {len(program.instructions)} instructions")
    print(f"  SDPU execution cycles: {report.cycles}")
    print(f"  numeric-instruction cycles: {program.numeric_cycles} "
          f"(Table V clamps each batch to 64)")
    print(f"  stalls waiting on BUSY task queues: {program.stall_cycles} "
          f"(overlap efficiency {100 * program.overlap_efficiency:.1f}%)")
    print(f"  SM-observed cycles incl. loads: {program.sm_cycles}")
    print("\nfirst instruction group:")
    for inst in program.instructions[:4]:
        kind = "async" if inst.asynchronous else "sync "
        print(f"  [{kind}] {inst.opcode:<22} {inst.cycles} cycles"
              + (f" (+{inst.stall_cycles} stall)" if inst.stall_cycles else ""))


if __name__ == "__main__":
    main()
