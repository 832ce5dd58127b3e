"""Ablations of Uni-STC's individual design choices.

Each design decision DESIGN.md calls out is toggled in isolation on
the same workload so its contribution is visible:

- dynamic DPG power gating (§IV-C: up to 2.83x energy saving);
- the Z-shaped dot-product-queue fill order (§IV-A: the N-shaped
  alternative was "tested and found inferior");
- the adaptive row-/column-major intra-layer ordering (§IV-A);
- the write-conflict stall (Fig. 8's round-robin arbitration);
- precision scaling (§IV-A: 64 MACs@FP64 to 256 MACs@FP16 in the same
  footprint);
- multi-core static load balancing (§V-A's warpIndex scheme).
"""

import numpy as np
import pytest

from repro.analysis.tables import print_table
from repro.arch.config import FP16, FP32, FP64, UniSTCConfig
from repro.arch.unistc import UniSTC
from repro.energy.model import DEFAULT_MODEL
from repro.formats.bbc import BBCMatrix
from repro.sim.engine import simulate_kernel
from repro.sim.parallel import simulate_parallel
from repro.workloads.representative import build_matrix

from benchmarks.harness import bbc_of


@pytest.fixture(scope="module")
def workload():
    return bbc_of(build_matrix("consph", n=256))


def test_ablation_dynamic_gating(benchmark):
    """Power gating idle DPGs cuts the DPG-datapath energy on sparse work.

    The saving is workload-dependent ("up to 2.83x", §IV-C): an
    extremely sparse matrix keeps most DPGs idle, which is where gating
    pays.  SpMV on a 1%-dense random matrix is such a workload.
    """
    from repro.workloads.synthetic import random_uniform

    sparse = bbc_of(random_uniform(256, 256, 0.01, seed=8))

    def run():
        gated = UniSTC(UniSTCConfig(dynamic_gating=True))
        always_on = UniSTC(UniSTCConfig(dynamic_gating=False))
        table = DEFAULT_MODEL.table
        out = {}
        for name, stc in (("gated", gated), ("always-on", always_on)):
            report = simulate_kernel("spmv", sparse, stc)
            dpg_energy = (
                report.counters.get("dpg_active_cycles") * table.dpg_active_cycle
                + report.counters.get("dpg_gated_cycles") * table.dpg_gated_cycle
            )
            out[name] = (report.cycles, dpg_energy, report.energy_pj)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, c, d / 1e3, e / 1e3] for name, (c, d, e) in data.items()]
    print_table(
        ["config", "cycles", "DPG+datapath energy (nJ)", "total (nJ)"], rows,
        title="Ablation — dynamic DPG gating (paper: up to 2.83x on the gated datapath)",
    )
    gated, always = data["gated"], data["always-on"]
    assert gated[0] == always[0]                   # performance unchanged
    ratio = always[1] / gated[1]
    benchmark.extra_info["dpg_energy_ratio"] = round(ratio, 2)
    assert ratio > 1.5                             # substantial gated-datapath saving
    assert gated[2] < always[2]


def test_ablation_fill_order(benchmark, workload):
    """The Z-shaped fill order needs fewer operand fetches than N-shaped."""
    def run():
        out = {}
        for order in ("z", "n"):
            stc = UniSTC(fill_order=order)
            report = simulate_kernel("spgemm", workload, stc)
            out[order] = (
                report.cycles,
                report.counters.get("a_elem_reads"),
                report.counters.get("b_elem_reads"),
                report.energy_pj,
            )
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[order, c, a, b, e / 1e3] for order, (c, a, b, e) in data.items()]
    print_table(
        ["fill order", "cycles", "A fetches", "B fetches", "energy (nJ)"], rows,
        title="Ablation — Z vs N dot-product-queue fill (paper: N inferior)",
    )
    z, n = data["z"], data["n"]
    assert z[0] == n[0]                            # cycles identical
    assert z[1] + z[2] <= n[1] + n[2]              # Z fetches no more operands
    benchmark.extra_info["fetch_saving"] = round((n[1] + n[2]) / (z[1] + z[2]), 3)


def test_ablation_adaptive_ordering(benchmark, workload):
    """Adaptive intra-layer direction improves tile reuse."""
    def run():
        out = {}
        for adaptive in (True, False):
            stc = UniSTC(UniSTCConfig(adaptive_ordering=adaptive))
            report = simulate_kernel("spgemm", workload, stc)
            out[adaptive] = (report.cycles, report.counters.get("tile_fetches"))
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        ["adaptive", "cycles", "tile fetches"],
        [[k, c, f] for k, (c, f) in data.items()],
        title="Ablation — adaptive intra-layer ordering (§IV-A)",
    )
    assert data[True][1] <= data[False][1] * 1.05  # reuse no worse when adaptive


def test_ablation_conflict_stall(benchmark, workload):
    """Modelling the accumulator write-conflict hazard costs cycles."""
    def run():
        out = {}
        for stall in (True, False):
            stc = UniSTC(UniSTCConfig(conflict_stall=stall))
            out[stall] = simulate_kernel("spgemm", workload, stc).cycles
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        ["conflict stall", "cycles"], [[k, v] for k, v in data.items()],
        title="Ablation — write-conflict round-robin stall (Fig. 8)",
    )
    assert data[True] >= data[False]
    benchmark.extra_info["stall_overhead"] = round(data[True] / data[False], 3)


def test_ablation_precision_scaling(benchmark):
    """64 MACs@FP64 / 128@FP32 / 256@FP16 in the same footprint (§IV-A)."""
    # One all-ones 16x16 block: its SpGEMM square is one dense T1 task.
    dense = BBCMatrix.from_dense(np.ones((16, 16)))

    def run():
        out = {}
        for precision in (FP64, FP32, FP16):
            stc = UniSTC(UniSTCConfig(precision=precision))
            report = simulate_kernel("spgemm", dense, stc)
            assert report.t1_tasks == 1
            out[precision.name] = (precision.macs, report.cycles)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        ["precision", "MACs", "dense-block cycles"],
        [[name, m, c] for name, (m, c) in data.items()],
        title="Ablation — precision scaling of the MAC budget",
    )
    assert data["fp64"] == (64, 64)
    assert data["fp32"] == (128, 32)
    assert data["fp16"] == (256, 16)


def test_ablation_multicore_scaling(benchmark, workload):
    """Static warp-level balancing (§V-A) across 1/2/4 Uni-STCs per SM."""
    def run():
        out = {}
        for cores in (1, 2, 4):
            par = simulate_parallel("spgemm", workload, UniSTC, n_cores=cores)
            out[cores] = (par.wall_cycles, par.speedup_vs_single(), par.load_imbalance)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        ["cores", "wall cycles", "speedup", "load imbalance"],
        [[c, w, s, i] for c, (w, s, i) in data.items()],
        title="Ablation — multi-core scaling with static load balancing (§V-A)",
    )
    assert data[1][0] >= data[2][0] >= data[4][0]
    assert data[4][1] > 2.0                       # 4 cores buy > 2x wall-clock
    benchmark.extra_info["speedup_4c"] = round(data[4][1], 2)
