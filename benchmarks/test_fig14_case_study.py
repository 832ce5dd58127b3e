"""Fig. 14 — the downsized 8x8x8 T1 case study.

The paper walks one 8(M) x 8(N) x 8(K) task through DS-STC, RM-STC and
Uni-STC (each scaled to 16 multipliers) and reports utilisations of
37.5%, 50% and 75% respectively.  We reproduce the comparison on a
population of half-dense 8x8x8 tasks embedded in the 16x16x16 frame:
the ordering (Uni > RM > DS) and the rough levels must match.
"""

import numpy as np
import pytest

from benchmarks.harness import headline_stcs
from repro.analysis.tables import print_table
from repro.kernels.batched import TaskBatch
from repro.sim.engine import simulate_batches


def _embedded_task(rng, density=0.5):
    """A random 8x8x8 sub-problem inside the 16x16x16 T1 frame."""
    a = np.zeros((16, 16), dtype=bool)
    b = np.zeros((16, 16), dtype=bool)
    a[:8, :8] = rng.random((8, 8)) < density
    b[:8, :8] = rng.random((8, 8)) < density
    return a, b


def _case_study_batch(count=60):
    """``count`` embedded tasks as one batch, task ``i`` pairing A_i with B_i."""
    rng = np.random.default_rng(1)
    a, b = (np.stack(side) for side in zip(*(_embedded_task(rng) for _ in range(count))))
    index = np.arange(count, dtype=np.int64)
    return TaskBatch(a_patterns=a, b_patterns=b, a_index=index, b_index=index,
                     weights=np.ones(count, dtype=np.int64), n=16)


def _compute():
    batch = _case_study_batch()
    out = {}
    for name, stc in headline_stcs().items():
        report = simulate_batches(stc, [batch], kernel="case-study")
        out[name] = report.mean_utilisation
    return out


def test_fig14_case_study(benchmark):
    utils = benchmark.pedantic(_compute, rounds=1, iterations=1)
    print_table(
        ["stc", "MAC utilisation (%)"],
        [[name, 100 * u] for name, u in utils.items()],
        title="Fig. 14 — 8x8x8 case study (paper: DS 37.5%, RM 50%, Uni 75%)",
        precision=1,
    )
    benchmark.extra_info.update({k: round(100 * v, 1) for k, v in utils.items()})
    assert utils["uni-stc"] > utils["rm-stc"] > utils["ds-stc"]
    # Rough levels: Uni roughly doubles DS-STC's utilisation.
    assert utils["uni-stc"] / utils["ds-stc"] > 1.5
