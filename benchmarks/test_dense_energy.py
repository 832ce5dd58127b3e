"""§VI-C dense-workload check: utilisation and energy versus NV-DTC.

In fully dense computation every architecture reaches 100% MAC
utilisation; what differs is energy.  Expected shape (paper, normalised
to NV-DTC): Uni-STC stays closest to the dense tensor core (0.94x
"energy reduction", i.e. a small overhead), ahead of RM-STC (0.83x)
and DS-STC (0.67x), because only a couple of DPGs are active and data
movement matches the dense pattern.
"""

import numpy as np

from repro.analysis.tables import print_table
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, NvDTC, RmSTC
from repro.formats.bbc import BBCMatrix
from repro.sim.engine import simulate_kernel

#: One all-ones 16x16 block: its SpGEMM square is one dense T1 task.
DENSE = BBCMatrix.from_dense(np.ones((16, 16)))


def _compute():
    out = {}
    for stc in (NvDTC(), DsSTC(), RmSTC(), UniSTC()):
        report = simulate_kernel("spgemm", DENSE, stc)
        assert report.t1_tasks == 1
        util = report.products / (report.cycles * stc.macs)
        out[stc.name] = (report.cycles, util, report.energy_pj)
    return out


def test_dense_energy(benchmark):
    data = benchmark.pedantic(_compute, rounds=1, iterations=1)
    nv_energy = data["nv-dtc"][2]
    rows = [[name, cycles, 100 * util, energy / nv_energy]
            for name, (cycles, util, energy) in data.items()]
    print_table(
        ["stc", "cycles", "utilisation (%)", "energy vs NV-DTC"], rows,
        title="Dense 16x16x16 block (paper: Uni 1.06x, RM ~1.2x, DS ~1.5x of NV)",
    )
    benchmark.extra_info.update(
        {name: round(e / nv_energy, 2) for name, (_, _, e) in data.items()}
    )
    # All architectures reach full utilisation and identical cycles.
    assert all(abs(util - 1.0) < 1e-9 for _, util, _ in data.values())
    assert len({cycles for cycles, _, _ in data.values()}) == 1
    # Energy ordering: Uni ~ NV (within a small band) < RM < DS.
    assert data["uni-stc"][2] < data["rm-stc"][2] < data["ds-stc"][2]
    assert 0.8 < data["uni-stc"][2] / nv_energy < 1.3
