"""Tables I, III, IV, VI, VII and IX, §IV-C and §IV-G — design properties.

These tables are properties of the design rather than sweeps; the
benchmark prints each one and asserts the paper's stated conclusions
(4x4x4 wins Table IV; the area deployment lands at ~2.12% of the die;
the Table VII stand-ins hit their #inter-prod/blk operating points;
the §IV-C buffers hold a dense FP64 T1 task; Table IX's Benes tile
router routes any permutation; §IV-G's queues raise READY in cycle 0
without starving the SDPU).
"""

import numpy as np
import pytest

from benchmarks.conftest import REPRESENTATIVE_N
from repro.analysis.tables import print_table
from repro.arch.benes import apply_routing, benes_stage_count, route
from repro.arch.buffers import minimum_config_bytes, verify_paper_sizing
from repro.arch.config import UniSTCConfig
from repro.arch.dataflow_trace import trace_block
from repro.arch.queues import generation_hides_latency, replay_queues
from repro.arch.tradeoffs import best_tile_size, table_iv
from repro.energy.area import area_breakdown, die_percentage, total_area_mm2
from repro.workloads.representative import (
    TABLE_VII,
    mean_products_per_task,
    representative_matrices,
)


def test_tab01_tab03_tab06_configs(benchmark):
    """Tables I/III/VI: task shapes of every architecture."""
    def build():
        return [
            ["NV-DTC", "dense", "T2 8x8x4", "T3 4x4x4", "-"],
            ["GAMMA", "row-row (Gustavson)", "-", "T3 16x4x1", "-"],
            ["SIGMA", "flexible dot", "-", "T3 1x4x16", "-"],
            ["Trapezoid", "TrIP/TrGT/TrGS", "-", "T3 16x2x2 best-of", "-"],
            ["DS-STC", "outer-product", "T2 16x16x1", "T3 8x8x1", "-"],
            ["RM-STC", "row-row (merge)", "T2 8x16x2", "T3 8x4x2", "T4 1x1x4"],
            ["Uni-STC", "outer-product + segmented dot", "bypassed",
             "T3 4x4x4", "T4 1x1x<=4"],
        ]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print_table(
        ["stc", "dataflow", "T2", "T3 (64 MACs)", "T4"], rows,
        title="Tables I/III/VI — architecture configurations (FP64)",
    )
    assert rows[-1][0] == "Uni-STC"


def test_tab04_tile_size_tradeoff(benchmark):
    rows_data = benchmark.pedantic(table_iv, rounds=1, iterations=1)
    rows = [
        [f"{r.tile}x{r.tile}x{r.tile}", r.cycles_per_t3,
         f"{r.dpgs_to_saturate[0]}-{r.dpgs_to_saturate[1]}",
         f"{r.tile_network_scale} x #DPGs",
         f"{r.nonzero_network_scale[0]}x{r.nonzero_network_scale[1]}"]
        for r in rows_data
    ]
    print_table(
        ["task size", "#cycles", "#DPGs to saturate", "tile net", "nonzero net"],
        rows, title="Table IV — T3 task-size trade-offs",
    )
    assert best_tile_size(64) == 4
    assert rows_data[0].dpgs_to_saturate == (32, 64)
    assert rows_data[2].cycles_per_t3 >= 2


def test_tab07_representative_matrices(benchmark):
    def build():
        mats = representative_matrices(n=REPRESENTATIVE_N)
        rows = []
        for info in TABLE_VII:
            from repro.formats.bbc import BBCMatrix

            matrix = mats[info.name]
            measured = mean_products_per_task(BBCMatrix.from_coo(matrix))
            rows.append([
                info.name, matrix.shape[0], matrix.nnz,
                info.paper_inter_prod_per_block, measured,
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print_table(
        ["matrix", "n (stand-in)", "nnz", "paper #ip/blk", "measured #ip/blk"],
        rows, title="Table VII — representative-matrix stand-ins",
        precision=1,
    )
    for row in rows:
        assert row[4] == pytest.approx(row[3], rel=0.4), row[0]
    # The density ordering of the catalogue must be preserved.
    measured = [row[4] for row in rows]
    assert measured[0] < measured[-1]


def test_tab09_area(benchmark):
    def build():
        breakdown = area_breakdown(UniSTCConfig())
        rows = [[module, area, 100 * area * 432 / 826.0]
                for module, area in breakdown.items()]
        rows.append(["Total Overhead", total_area_mm2(), die_percentage()])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print_table(
        ["module", "area (mm^2)", "% of A100 die (432 units)"], rows,
        title="Table IX — area breakdown (paper total: 0.0425 mm^2, 2.12%)",
        precision=4,
    )
    total_row = rows[-1]
    benchmark.extra_info["total_mm2"] = round(total_row[1], 4)
    assert total_row[1] == pytest.approx(0.0425, rel=0.15)
    assert total_row[2] == pytest.approx(2.12, rel=0.2)


def test_sec4c_buffer_sizing(benchmark):
    """§IV-C: the 144 B Meta, 2 KB Matrix A and 1 KB Accumulator buffers
    hold a dense FP64 T1 task, and Matrix A is exactly one dense block."""
    def build():
        config = UniSTCConfig()
        capacity = {"meta": config.meta_buffer_bytes,
                    "matrix_a": config.matrix_a_buffer_bytes,
                    "accumulator": config.accumulator_buffer_bytes}
        demand = minimum_config_bytes()
        return [[name, demand[name], size, 100 * demand[name] / size]
                for name, size in capacity.items()]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print_table(
        ["buffer", "dense FP64 T1 demand (B)", "capacity (B)", "occupancy (%)"],
        rows, title="§IV-C — on-chip buffers against a dense FP64 T1 task",
    )
    assert [row[2] for row in rows] == [144, 2048, 1024]
    assert all(verify_paper_sizing().values())
    assert rows[1][1] == 2048  # 256 FP64 values: one dense 16x16 A block


def test_tab09_benes_router(benchmark):
    """Table IX's tile router: an N-input Benes network of 2 log2(N) - 1
    stages routes the reversal and seeded random permutations."""
    def build():
        rng = np.random.default_rng(9)
        rows = []
        for n in (4, 8, 16):
            stages = benes_stage_count(n)
            perms = [list(reversed(range(n)))]
            perms += [rng.permutation(n).tolist() for _ in range(20)]
            routings = [route(perm) for perm in perms]
            routed = sum(r.stage_count == stages and apply_routing(r, list(range(n))) == perm
                         for r, perm in zip(routings, perms))
            rows.append([n, stages, routings[0].switch_count, len(perms), routed])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print_table(
        ["N", "stages", "2x2 switches", "permutations", "routed"], rows,
        title="Table IX — Benes tile router (reversal + 20 seeded permutations)",
    )
    for n, stages, switches, tried, routed in rows:
        assert stages == 2 * (n.bit_length() - 1) - 1
        assert switches == n // 2 * stages
        assert routed == tried


def test_sec4g_queue_replay(benchmark):
    """§IV-G: at the default T3 generation rate the tile queue never
    starves the DPGs and READY rises in cycle 0, on every nonempty block
    of the parity population (real kernel blocks plus edge cases),
    replayed at each block's traced schedule and T4 expansion; a
    generation rate of 2 per cycle underflows on most of them."""
    from tests.blocks import handmade_tasks, kernel_tasks

    def build():
        schedules = []
        for task in kernel_tasks() + handmade_tasks():
            cycles = trace_block(task).cycles
            counts = [len(cyc.dispatches) for cyc in cycles]
            if sum(counts):
                t4 = sum(len(d.t4_tasks) for cyc in cycles for d in cyc.dispatches)
                schedules.append((counts, t4 / sum(counts)))
        rows = []
        for rate in (16, 2):
            traces = [replay_queues(counts, t4_per_t3, generation_rate=rate)
                      for counts, t4_per_t3 in schedules]
            rows.append([rate, len(traces),
                         sum(generation_hides_latency(t) for t in traces),
                         sum(t.underflow_cycles > 0 for t in traces),
                         max(t.ready_cycle for t in traces)])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print_table(
        ["T3 / cycle", "blocks", "latency hidden", "underflowing", "latest READY"],
        rows, title="§IV-G — tile/dot queue replay over the parity blocks",
    )
    (default, blocks, hidden, starved, ready), slow = rows
    assert default == 16 and blocks > 100
    assert hidden == blocks and starved == 0 and ready == 0
    assert slow[3] > blocks // 2
