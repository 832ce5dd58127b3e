"""Numeric BBC block kernels — the software side of Algorithms 1 & 2.

These compute actual values (they are tested against the CSR golden
kernels); the matching T1 *task streams* consumed by the simulators
come from :mod:`repro.kernels.batched`.  Both walk the BBC structure
the same way: SpMV/SpMSpV per Algorithm 1 (block row x vector segment),
SpMM/SpGEMM per Algorithm 2 (row-by-row outer product over block rows,
``C_{i*} += A_{ik} x B_{k*}``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.formats.bbc import BLOCK, BBCMatrix
from repro.formats.coo import COOMatrix
from repro.kernels.vector import SparseVector


def spmv(a: BBCMatrix, x: np.ndarray) -> np.ndarray:
    """y = A @ x over BBC blocks (Algorithm 1, dense-x variant)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.shape[1],):
        raise ShapeError(f"x has shape {x.shape}, expected ({a.shape[1]},)")
    padded_x = np.zeros(a.block_cols * BLOCK, dtype=np.float64)
    padded_x[: x.size] = x
    y = np.zeros(a.block_rows * BLOCK, dtype=np.float64)
    for brow, bcol, idx in a.iter_blocks():
        seg = padded_x[bcol * BLOCK : (bcol + 1) * BLOCK]
        y[brow * BLOCK : (brow + 1) * BLOCK] += a.block_dense(idx) @ seg
    return y[: a.shape[0]]


def spmspv(a: BBCMatrix, x: SparseVector) -> SparseVector:
    """y = A @ x for sparse x: blocks whose x-segment is empty are skipped."""
    if x.n != a.shape[1]:
        raise ShapeError(f"x has length {x.n}, expected {a.shape[1]}")
    live_segments = set(int(s) for s in x.nonempty_segments(BLOCK))
    y = np.zeros(a.block_rows * BLOCK, dtype=np.float64)
    for brow, bcol, idx in a.iter_blocks():
        if bcol not in live_segments:
            continue
        seg = x.segment_values(bcol, BLOCK)
        y[brow * BLOCK : (brow + 1) * BLOCK] += a.block_dense(idx) @ seg
    return SparseVector.from_dense(y[: a.shape[0]])


def spmm(a: BBCMatrix, b: np.ndarray) -> np.ndarray:
    """C = A @ B for dense B (Algorithm 2 with dense block row of B)."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != a.shape[1]:
        raise ShapeError(f"B has shape {b.shape}, expected ({a.shape[1]}, *)")
    padded_b = np.zeros((a.block_cols * BLOCK, b.shape[1]), dtype=np.float64)
    padded_b[: b.shape[0]] = b
    c = np.zeros((a.block_rows * BLOCK, b.shape[1]), dtype=np.float64)
    for brow, bcol, idx in a.iter_blocks():
        c[brow * BLOCK : (brow + 1) * BLOCK] += (
            a.block_dense(idx) @ padded_b[bcol * BLOCK : (bcol + 1) * BLOCK]
        )
    return c[: a.shape[0]]


def spgemm(a: BBCMatrix, b: BBCMatrix) -> BBCMatrix:
    """C = A @ B by block-level Gustavson over the outer CSR structure."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out_blocks: Dict[Tuple[int, int], np.ndarray] = {}
    for brow in range(a.block_rows):
        a_cols, a_idx = a.block_row(brow)
        for bcol_a, idx_a in zip(a_cols, a_idx):
            if bcol_a >= b.block_rows:
                continue
            a_dense = a.block_dense(int(idx_a))
            b_cols, b_idx = b.block_row(int(bcol_a))
            for bcol_b, idx_b in zip(b_cols, b_idx):
                key = (brow, int(bcol_b))
                acc = out_blocks.get(key)
                if acc is None:
                    acc = np.zeros((BLOCK, BLOCK), dtype=np.float64)
                    out_blocks[key] = acc
                acc += a_dense @ b.block_dense(int(idx_b))
    shape = (a.shape[0], b.shape[1])
    rows, cols, vals = [], [], []
    for (brow, bcol), block in out_blocks.items():
        local_r, local_c = np.nonzero(block)
        gr, gc = brow * BLOCK + local_r, bcol * BLOCK + local_c
        keep = (gr < shape[0]) & (gc < shape[1])
        rows.append(gr[keep])
        cols.append(gc[keep])
        vals.append(block[local_r, local_c][keep])
    if rows:
        coo = COOMatrix(shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    else:
        coo = COOMatrix(shape, [], [], [])
    return BBCMatrix.from_coo(coo)
