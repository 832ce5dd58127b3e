"""Warp-level software execution of Algorithms 1 and 2 (a test model).

The paper's software dataflow (§V-A) runs on 32-thread warps: each
warp owns a contiguous, load-balanced range of block rows
(`warpRowId` / `warpIndex`), loads block data into per-lane registers,
issues the UWMMA instruction groups, and reduces partial results with
`shfl_gather` into the first 16 lanes before the write-back.

This module *executes* that program numerically with an explicit
32-lane register model — every value flows through per-lane registers
exactly as the pseudo-code distributes it — while logging the issued
UWMMA opcodes.  It is the bridge between the numeric BBC kernels
(which ignore the thread layout) and the instruction-level model in
:mod:`repro.arch.program`.

Lane layout: lane ``l`` owns output row ``l % 16`` and the column half
``l // 16`` (columns 0-7 for lanes 0-15, columns 8-15 for lanes
16-31), so ``shfl_gather`` reduces lane ``r`` and lane ``r + 16`` into
the final row-``r`` result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ShapeError, SimulationError
from repro.formats.bbc import BLOCK, BBCMatrix
from repro.kernels.partition import block_row_work, partition_block_rows
from repro.kernels.vector import SparseVector, dense_segment_mask

#: Threads per warp (CUDA).
WARP_LANES = 32


def shfl_gather(ry: np.ndarray) -> np.ndarray:
    """The Algorithm 1 reduction: fold lane r+16 into lane r (r < 16)."""
    if ry.shape != (WARP_LANES,):
        raise ShapeError(f"shfl_gather needs a {WARP_LANES}-lane register")
    return ry[:16] + ry[16:]


@dataclass
class WarpLog:
    """Issued UWMMA opcodes and warp-level statistics."""

    opcode_counts: Dict[str, int] = field(default_factory=dict)
    blocks_processed: int = 0
    warps_used: int = 0

    def issue(self, opcode: str, count: int = 1) -> None:
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + count

    def total_instructions(self) -> int:
        return sum(self.opcode_counts.values())


def _lane_partial_products(block: np.ndarray, x_seg: np.ndarray) -> np.ndarray:
    """Per-lane partials of ``block @ x_seg`` under the warp layout."""
    ry = np.zeros(WARP_LANES, dtype=np.float64)
    for lane in range(WARP_LANES):
        row = lane % 16
        half = lane // 16
        cols = slice(8 * half, 8 * (half + 1))
        ry[lane] = float(block[row, cols] @ x_seg[cols])
    return ry


def warp_spmv(
    a: BBCMatrix,
    x: np.ndarray,
    n_warps: int = 4,
    log: Optional[WarpLog] = None,
) -> np.ndarray:
    """Algorithm 1: SpMV executed warp by warp with lane registers."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.shape[1],):
        raise ShapeError(f"x has shape {x.shape}, expected ({a.shape[1]},)")
    log = log if log is not None else WarpLog()
    padded_x = np.zeros(a.block_cols * BLOCK, dtype=np.float64)
    padded_x[: x.size] = x
    y = np.zeros(a.block_rows * BLOCK, dtype=np.float64)

    work = block_row_work(a, "spmv")
    parts = partition_block_rows(work, n_warps)
    for rows in parts:
        if not len(rows):
            continue
        log.warps_used += 1
        for brow in rows:
            cols, idxs = a.block_row(brow)
            if not len(cols):
                continue
            ry = np.zeros(WARP_LANES, dtype=np.float64)
            # The j += 2 loop of Algorithm 1: two blocks per iteration.
            for j in range(0, len(cols), 2):
                pair = list(zip(cols[j : j + 2], idxs[j : j + 2]))
                log.issue("stc.load.meta_mv")
                log.issue("stc.task_gen.mv")
                for bcol, idx in pair:
                    mask = dense_segment_mask(a.shape[1], int(bcol), BLOCK)
                    if not mask.any():
                        continue
                    block = a.block_dense(int(idx))
                    seg = padded_x[bcol * BLOCK : (bcol + 1) * BLOCK]
                    log.issue("stc.load.a")
                    ry += _lane_partial_products(block, seg)
                    log.blocks_processed += 1
                log.issue("stc.numeric.mv")
            y[brow * BLOCK : (brow + 1) * BLOCK] += shfl_gather(ry)
    return y[: a.shape[0]]


def warp_spmspv(
    a: BBCMatrix,
    x: SparseVector,
    n_warps: int = 4,
    log: Optional[WarpLog] = None,
) -> SparseVector:
    """Algorithm 1, sparse-x variant: dead x segments are skipped."""
    if x.n != a.shape[1]:
        raise ShapeError(f"x has length {x.n}, expected {a.shape[1]}")
    log = log if log is not None else WarpLog()
    live = set(int(s) for s in x.nonempty_segments(BLOCK))
    y = np.zeros(a.block_rows * BLOCK, dtype=np.float64)
    work = block_row_work(a, "spmv")
    parts = partition_block_rows(work, n_warps)
    for rows in parts:
        if not len(rows):
            continue
        log.warps_used += 1
        for brow in rows:
            cols, idxs = a.block_row(brow)
            live_pairs = [(int(c), int(i)) for c, i in zip(cols, idxs) if int(c) in live]
            if not live_pairs:
                continue
            ry = np.zeros(WARP_LANES, dtype=np.float64)
            for j in range(0, len(live_pairs), 2):
                log.issue("stc.load.meta_mv")
                log.issue("stc.task_gen.mv")
                for bcol, idx in live_pairs[j : j + 2]:
                    block = a.block_dense(idx)
                    seg = x.segment_values(bcol, BLOCK)
                    log.issue("stc.load.a")
                    ry += _lane_partial_products(block, seg)
                    log.blocks_processed += 1
                log.issue("stc.numeric.mv")
            y[brow * BLOCK : (brow + 1) * BLOCK] += shfl_gather(ry)
    return SparseVector.from_dense(y[: a.shape[0]])


def warp_spgemm(
    a: BBCMatrix,
    b: BBCMatrix,
    n_warps: int = 4,
    log: Optional[WarpLog] = None,
) -> BBCMatrix:
    """Algorithm 2: row-by-row outer-product SpGEMM with lane registers.

    Each warp walks its A block rows; for every (A block, B block) pair
    found through B's block-row structure (`bfind` in the pseudo-code)
    the lanes compute their C partials and ``accumulate_c`` merges them
    into the output block.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    log = log if log is not None else WarpLog()
    out_blocks: Dict[Tuple[int, int], np.ndarray] = {}
    work = block_row_work(a, "spgemm", b)
    parts = partition_block_rows(work, n_warps)
    for rows in parts:
        if not len(rows):
            continue
        log.warps_used += 1
        for brow in rows:
            a_cols, a_idx = a.block_row(brow)
            for acol, aidx in zip(a_cols, a_idx):
                if acol >= b.block_rows:
                    continue
                a_dense = a.block_dense(int(aidx))
                log.issue("stc.load.a")
                b_cols, b_idx = b.block_row(int(acol))
                for bcol, bidx in zip(b_cols, b_idx):  # the bfind loop
                    log.issue("stc.load.meta_mm")
                    log.issue("stc.task_gen.mm")
                    log.issue("stc.numeric.mm")
                    b_dense = b.block_dense(int(bidx))
                    # Per-lane partial: lane l computes row l%16 over
                    # its column half, then accumulate_c merges halves.
                    cv = np.zeros((WARP_LANES, 16), dtype=np.float64)
                    for lane in range(WARP_LANES):
                        row = lane % 16
                        half = lane // 16
                        ks = slice(8 * half, 8 * (half + 1))
                        cv[lane] = a_dense[row, ks] @ b_dense[ks, :]
                    merged = cv[:16] + cv[16:]
                    key = (int(brow), int(bcol))
                    acc = out_blocks.get(key)
                    if acc is None:
                        acc = np.zeros((BLOCK, BLOCK), dtype=np.float64)
                        out_blocks[key] = acc
                    acc += merged
                    log.blocks_processed += 1
    from repro.formats.coo import COOMatrix

    shape = (a.shape[0], b.shape[1])
    rows_l, cols_l, vals_l = [], [], []
    for (brow, bcol), blockv in out_blocks.items():
        lr, lc = np.nonzero(blockv)
        gr, gc = brow * BLOCK + lr, bcol * BLOCK + lc
        keep = (gr < shape[0]) & (gc < shape[1])
        rows_l.append(gr[keep])
        cols_l.append(gc[keep])
        vals_l.append(blockv[lr, lc][keep])
    if rows_l:
        coo = COOMatrix(shape, np.concatenate(rows_l), np.concatenate(cols_l),
                        np.concatenate(vals_l))
    else:
        coo = COOMatrix(shape, [], [], [])
    return BBCMatrix.from_coo(coo)


def validate_log(log: WarpLog) -> None:
    """Structural consistency of an execution log."""
    mm_numeric = log.opcode_counts.get("stc.numeric.mm", 0)
    mv_numeric = log.opcode_counts.get("stc.numeric.mv", 0)
    if mm_numeric and mm_numeric != log.opcode_counts.get("stc.task_gen.mm", 0):
        raise SimulationError("every MM numeric needs a matching task_gen")
    if mv_numeric and mv_numeric != log.opcode_counts.get("stc.task_gen.mv", 0):
        raise SimulationError("every MV numeric needs a matching task_gen")
