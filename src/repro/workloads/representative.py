"""Stand-ins for the eight representative SuiteSparse matrices (Table VII).

The paper keys each of its eight matrices to one quantity: the average
number of intermediate products per T1 task during SpGEMM (C = A^2),
ranging from 164.9 (`consph`) to 1154.1 (`gupta3`).  The real matrices
(64K-218K rows, 2M-14M nonzeros) are far beyond a pure-Python cycle
simulator, so each stand-in is a scaled-down synthetic matrix with

- the *pattern archetype* the paper's plots show (banded FEM shells,
  diagonal concentration for `cant`, block-dense chemistry for
  `pdb1HYS`/`opt1`, the arrow/long-row structure of `gupta3`), and
- the in-band density *calibrated* so the measured #inter-prod/blk
  lands on the Table VII operating point.

Figs. 5/17/18/19 plot behaviour as a function of exactly this density
axis, which is why the substitution preserves their shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import math

import numpy as np

from repro.formats.bbc import BBCMatrix
from repro.formats.coo import COOMatrix
from repro.kernels.batched import spgemm_batch
from repro.workloads import synthetic


@dataclass(frozen=True)
class RepresentativeInfo:
    """Table VII row: the paper's values plus the stand-in's parameters."""

    name: str
    paper_n: int
    paper_nnz: int
    paper_inter_prod_per_block: float
    pattern: str


#: The Table VII catalogue, ordered by #inter-prod/blk as in the paper.
TABLE_VII: List[RepresentativeInfo] = [
    RepresentativeInfo("consph", 83_000, 6_000_000, 164.9, "banded"),
    RepresentativeInfo("shipsec1", 140_000, 7_800_000, 189.5, "banded"),
    RepresentativeInfo("crankseg_2", 64_000, 14_100_000, 198.5, "longrows"),
    RepresentativeInfo("cant", 62_000, 4_000_000, 280.2, "diagonal"),
    RepresentativeInfo("opt1", 15_000, 1_900_000, 506.4, "blockdense"),
    RepresentativeInfo("pdb1HYS", 36_000, 4_300_000, 517.2, "blockdense"),
    RepresentativeInfo("pwtk", 218_000, 11_600_000, 548.3, "banded"),
    RepresentativeInfo("gupta3", 17_000, 9_300_000, 1154.1, "arrow"),
]

INFO_BY_NAME: Dict[str, RepresentativeInfo] = {info.name: info for info in TABLE_VII}


def mean_products_per_task(a: BBCMatrix) -> float:
    """Measured #inter-prod/blk of C = A^2 (the Table VII column).

    A task's products are ``sum_k nnz(A[:, k]) * nnz(B[k, :])``
    (:meth:`~repro.arch.tasks.T1Task.intermediate_products`), taken
    here over every pattern pair of the batch at once.
    """
    batch = spgemm_batch(a)
    a_cols = batch.a_patterns.sum(axis=1, dtype=np.int64)[batch.a_index]
    b_rows = batch.b_patterns.sum(axis=2, dtype=np.int64)[batch.b_index]
    total = int((a_cols * b_rows).sum(axis=1) @ batch.weights)
    count = batch.total_tasks
    return total / count if count else 0.0


def _pattern_builder(info: RepresentativeInfo, n: int, seed: int) -> Callable[[float], COOMatrix]:
    """A density-parameterised generator matching the matrix's archetype."""
    if info.pattern == "banded":
        # FEM shells store small dense element couplings: cluster the
        # in-band nonzeros into runs of 3 (consph/shipsec1/pwtk plots).
        bw = max(24, n // 12)
        return lambda d: synthetic.banded(n, bw, d, run_length=3, seed=seed)
    if info.pattern == "diagonal":
        bw = max(12, n // 24)
        return lambda d: synthetic.banded(n, bw, d, run_length=3, seed=seed)
    if info.pattern == "longrows":
        bw = max(24, n // 12)

        def build_long(d: float) -> COOMatrix:
            base = synthetic.banded(n, bw, d, seed=seed)
            heavy = synthetic.long_rows(
                n, heavy_rows=max(2, n // 64), heavy_density=min(1.0, 2 * d),
                background_density=0.0, seed=seed + 1,
            )
            rows = np.concatenate([base.rows, heavy.rows])
            cols = np.concatenate([base.cols, heavy.cols])
            vals = np.concatenate([base.vals, heavy.vals])
            return COOMatrix((n, n), rows, cols, vals)

        return build_long
    if info.pattern == "blockdense":
        return lambda d: synthetic.block_dense(
            n, block=16, block_density=0.015, fill=min(1.0, d), seed=seed
        )
    if info.pattern == "arrow":
        # gupta3 is both dense (~550 nnz/row) and arrow-shaped: a dense
        # background carries most of the block density, with a few
        # near-full rows/columns on top.
        return lambda d: synthetic.long_rows(
            n, heavy_rows=max(4, n // 16), heavy_density=min(1.0, 1.5 * d),
            background_density=min(0.9, 0.75 * d), seed=seed,
        )
    raise ValueError(f"unknown pattern {info.pattern!r}")


def build_matrix(name: str, n: int = 384, calibrate: bool = True, seed: int = 7) -> COOMatrix:
    """Build one stand-in, calibrating density to its Table VII target.

    Calibration runs at most three fixed-point steps of
    ``d <- d * sqrt(target / measured)`` (intermediate products grow
    quadratically with density), stopping within 15% of the target.
    """
    info = INFO_BY_NAME[name]
    builder = _pattern_builder(info, n, seed)
    density = min(0.95, math.sqrt(info.paper_inter_prod_per_block / 4096.0))
    matrix = builder(density)
    if not calibrate:
        return matrix
    target = info.paper_inter_prod_per_block
    for _ in range(3):
        measured = mean_products_per_task(BBCMatrix.from_coo(matrix))
        if measured and abs(measured - target) / target < 0.15:
            break
        adjust = math.sqrt(target / measured) if measured else 2.0
        density = min(0.98, max(0.01, density * adjust))
        matrix = builder(density)
    return matrix


def representative_matrices(n: int = 384, calibrate: bool = True, seed: int = 7) -> Dict[str, COOMatrix]:
    """All eight Table VII stand-ins, in the paper's order."""
    return {info.name: build_matrix(info.name, n=n, calibrate=calibrate, seed=seed)
            for info in TABLE_VII}
