"""Static block-row work estimation and partitioning (§V-A).

The paper's `warpRow`/`warpIndex`/`warpRowId` arrays assign each warp
a contiguous range of block rows with roughly equal work.  These two
helpers implement that static scheme over BBC block rows for the
multi-core simulator (:mod:`repro.sim.parallel`) and the test suite's
warp-level software model (``tests/warp.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.formats.bbc import BBCMatrix


def block_row_work(a: BBCMatrix, kernel: str, b: Optional[BBCMatrix] = None) -> np.ndarray:
    """Static per-block-row work estimate the partitioner balances on.

    SpMV/SpMSpV/SpMM work scales with a block row's stored nonzeros;
    SpGEMM work with the number of (A-block, B-block) pairs its blocks
    spawn — exactly what the `warpIndex` prefix arrays encode.
    Vectorised: one segment-sum over stored blocks, no per-row loops.
    """
    work = np.zeros(a.block_rows, dtype=np.int64)
    if a.nblocks == 0:
        return work
    row_of_block = np.repeat(
        np.arange(a.block_rows, dtype=np.int64), np.diff(a.row_ptr)
    )
    if kernel == "spgemm":
        other = b if b is not None else a
        b_row_blocks = np.diff(other.row_ptr)
        valid = a.col_idx < other.block_rows
        safe_cols = np.minimum(a.col_idx, other.block_rows - 1)
        per_block = np.where(valid, b_row_blocks[safe_cols], 0)
    else:
        per_block = a.nnz_per_block()
    np.add.at(work, row_of_block, per_block.astype(np.int64))
    return work


def partition_block_rows(work: np.ndarray, n_parts: int) -> List[range]:
    """Contiguous prefix-sum partition into ``n_parts`` balanced ranges.

    Greedy cut at each multiple of total/n_parts — the classic static
    scheme behind `warpIndex`.  Empty trailing parts get empty ranges.
    """
    if n_parts <= 0:
        raise SimulationError("need at least one partition")
    total = int(work.sum())
    prefix = np.concatenate(([0], np.cumsum(work)))
    bounds = [0]
    for part in range(1, n_parts):
        target = total * part / n_parts
        cut = int(np.searchsorted(prefix, target, side="left"))
        bounds.append(min(max(cut, bounds[-1]), work.size))
    bounds.append(work.size)
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
