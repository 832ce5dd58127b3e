"""Fig. 17 — speedup, energy and energy efficiency on the eight
representative matrices (four kernels @FP64) plus ResNet-50 and
Transformer inference (@FP32), all normalised to DS-STC.

Expected shape (paper): Uni-STC achieves the highest speedup, energy
reduction and energy efficiency in every column; headline kernel-level
geomeans vs DS-STC / RM-STC: SpMV 5.21x/2.74x, SpMSpV 5.25x/5.50x,
SpMM and SpGEMM with efficiency gains of 1.74x/2.21x over RM-STC.
"""

import pytest

from benchmarks.harness import headline_stcs, run_kernel_suite
from repro.analysis.tables import print_table
from repro.apps.dnn import compare_models
from repro.arch.config import FP32
from repro.sim.results import geomean

KERNELS = ("spmv", "spmspv", "spmm", "spgemm")


def _kernel_rows(representative_bbc, representative_order):
    stcs = headline_stcs()
    per_kernel = {k: [] for k in KERNELS}
    for matrix in representative_order:
        suite = run_kernel_suite(representative_bbc[matrix], stcs, KERNELS, matrix=matrix)
        for kernel in KERNELS:
            per_kernel[kernel].append(suite[kernel])
    rows = []
    summary = {}
    for kernel in KERNELS:
        for target in ("rm-stc", "uni-stc"):
            speed = geomean([r[target].speedup_vs(r["ds-stc"]) for r in per_kernel[kernel]])
            energy = geomean([r[target].energy_reduction_vs(r["ds-stc"]) for r in per_kernel[kernel]])
            rows.append([kernel, target, speed, energy, speed * energy])
            summary[f"{kernel}_{target}"] = (speed, energy)
    return rows, summary


def _dnn_rows():
    rows = []
    for model in ("resnet50", "transformer"):
        for sparsity in (0.70, 0.98):
            reports = compare_models(
                list(headline_stcs(FP32).values()), model, sparsity, scale=0.0625
            )
            ds = reports["ds-stc"]
            for target in ("rm-stc", "uni-stc"):
                r = reports[target]
                speed = ds.e2e_compute_cycles / r.e2e_compute_cycles
                energy = ds.e2e_compute_energy_pj / r.e2e_compute_energy_pj
                rows.append([f"{model}@{sparsity:.0%}", target, speed, energy, speed * energy])
    return rows


def test_fig17_kernel_panel(benchmark, representative_bbc, representative_order):
    rows, summary = benchmark.pedantic(
        _kernel_rows, args=(representative_bbc, representative_order), rounds=1, iterations=1
    )
    print_table(
        ["kernel", "stc", "speedup", "energy red.", "energy eff."], rows,
        title="Fig. 17 (kernels) — geomeans over 8 matrices, normalised to DS-STC",
    )
    for key, (speed, energy) in summary.items():
        benchmark.extra_info[key] = round(speed, 2)
    # Expected shape: Uni-STC leads every kernel on speedup and efficiency.
    for kernel in KERNELS:
        uni_s, uni_e = summary[f"{kernel}_uni-stc"]
        rm_s, rm_e = summary[f"{kernel}_rm-stc"]
        assert uni_s > rm_s >= 0.9, kernel
        assert uni_s * uni_e > rm_s * rm_e, kernel
        assert uni_s > 1.25, kernel


def test_fig17_dnn_panel(benchmark):
    rows = benchmark.pedantic(_dnn_rows, rounds=1, iterations=1)
    print_table(
        ["model", "stc", "speedup", "energy red.", "energy eff."], rows,
        title="Fig. 17 (DNN @FP32) — normalised to DS-STC "
              "(paper: Uni-STC 1.35-1.53x over RM-STC)",
    )
    uni_rows = [r for r in rows if r[1] == "uni-stc"]
    rm_rows = [r for r in rows if r[1] == "rm-stc"]
    # Uni-STC's efficiency leads on every model/sparsity column.
    for uni, rm in zip(uni_rows, rm_rows):
        assert uni[4] > rm[4], uni[0]
        assert uni[2] >= rm[2] * 0.95, uni[0]
