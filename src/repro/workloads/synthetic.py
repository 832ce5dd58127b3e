"""Synthetic sparse-matrix generators spanning SuiteSparse's pattern axes.

The paper's corpus experiments (Figs. 15/16/20, Table VIII) depend on
*structural diversity* — banded FEM discretisations, power-law graphs,
uniformly random matrices, block-dense matrices, and matrices with a
few pathological long rows/columns — across a wide density range.  Each
generator here produces one of those archetypes deterministically from
a seed.  All generators return :class:`~repro.formats.coo.COOMatrix`
with values in (0, 1]; structure, not values, drives every simulator.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.formats.coo import COOMatrix


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def _coo_from_mask(mask: np.ndarray, rng: np.random.Generator) -> COOMatrix:
    rows, cols = np.nonzero(mask)
    vals = rng.uniform(0.1, 1.0, size=rows.size)
    return COOMatrix(mask.shape, rows, cols, vals)


def random_uniform(m: int, n: int, density: float, seed: Optional[int] = None) -> COOMatrix:
    """Uniformly random sparsity — the Fig. 16 random-matrix workload."""
    if not 0.0 <= density <= 1.0:
        raise ShapeError(f"density {density} outside [0, 1]")
    rng = _rng(seed)
    target = int(round(m * n * density))
    if target == 0:
        return COOMatrix((m, n), [], [], [])
    flat = rng.choice(m * n, size=min(target, m * n), replace=False)
    return COOMatrix((m, n), flat // n, flat % n, rng.uniform(0.1, 1.0, size=flat.size))


def banded(
    n: int,
    bandwidth: int,
    density: float = 1.0,
    run_length: int = 1,
    seed: Optional[int] = None,
) -> COOMatrix:
    """A banded matrix (FEM/stencil archetype: consph, shipsec1, pwtk).

    Entries live within ``bandwidth`` of the diagonal and are kept with
    probability ``density``; the diagonal itself is always present.
    ``run_length > 1`` clusters kept entries into horizontal runs of
    that length — real FEM discretisations store small dense element
    couplings, so their nonzeros are contiguous rather than scattered.
    """
    rng = _rng(seed)
    rows_list, cols_list = [], []
    for i in range(n):
        lo, hi = max(0, i - bandwidth), min(n, i + bandwidth + 1)
        cols = np.arange(lo, hi)
        if run_length <= 1:
            keep = rng.random(cols.size) < density
        else:
            # Seed run starts at density/run_length, then dilate rightward.
            starts = rng.random(cols.size) < density / run_length
            keep = starts.copy()
            for shift in range(1, run_length):
                keep[shift:] |= starts[:-shift]
        keep[cols == i] = True
        cols = cols[keep]
        rows_list.append(np.full(cols.size, i, dtype=np.int64))
        cols_list.append(cols)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return COOMatrix((n, n), rows, cols, rng.uniform(0.1, 1.0, size=rows.size))


def power_law(
    n: int, avg_row_nnz: float = 8.0, alpha: float = 2.0, seed: Optional[int] = None
) -> COOMatrix:
    """A scale-free graph adjacency (web/social archetype).

    Row degrees follow a truncated Zipf law and column endpoints are
    preferentially attached, producing the heavy rows *and* heavy
    columns real graph matrices show.
    """
    rng = _rng(seed)
    raw = rng.zipf(alpha, size=n).astype(np.float64)
    degrees = np.minimum(np.maximum(1, (raw * avg_row_nnz / raw.mean())).astype(np.int64), n)
    popularity = rng.zipf(alpha, size=n).astype(np.float64)
    popularity /= popularity.sum()
    rows_list, cols_list = [], []
    for i in range(n):
        cols = np.unique(rng.choice(n, size=int(degrees[i]), replace=True, p=popularity))
        rows_list.append(np.full(cols.size, i, dtype=np.int64))
        cols_list.append(cols)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return COOMatrix((n, n), rows, cols, rng.uniform(0.1, 1.0, size=rows.size))


def block_dense(
    n: int, block: int = 16, block_density: float = 0.1, fill: float = 0.9,
    seed: Optional[int] = None,
) -> COOMatrix:
    """Sparse at block level, dense inside blocks (opt1/pdb1HYS archetype)."""
    rng = _rng(seed)
    nb = -(-n // block)
    mask = np.zeros((n, n), dtype=bool)
    # Always populate the block diagonal, then random off-diagonal blocks.
    chosen = {(i, i) for i in range(nb)}
    extra = int(block_density * nb * nb)
    if extra:
        bi = rng.integers(0, nb, size=extra)
        bj = rng.integers(0, nb, size=extra)
        chosen.update(zip(bi.tolist(), bj.tolist()))
    for bi, bj in chosen:
        r0, c0 = bi * block, bj * block
        r1, c1 = min(n, r0 + block), min(n, c0 + block)
        mask[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < fill
    np.fill_diagonal(mask, True)
    return _coo_from_mask(mask, rng)


def long_rows(
    n: int, heavy_rows: int = 4, heavy_density: float = 0.8,
    background_density: float = 0.01, symmetric_arrow: bool = True,
    seed: Optional[int] = None,
) -> COOMatrix:
    """A few nearly-dense rows (and columns) over sparse background.

    This is the `gupta3` archetype — the "long rows in matrix A" case
    §III-B calls out as degrading rigid T3 task shapes.
    """
    rng = _rng(seed)
    mask = rng.random((n, n)) < background_density
    heavy = rng.choice(n, size=min(heavy_rows, n), replace=False)
    for r in heavy:
        mask[r] |= rng.random(n) < heavy_density
        if symmetric_arrow:
            mask[:, r] |= rng.random(n) < heavy_density
    np.fill_diagonal(mask, True)
    return _coo_from_mask(mask, rng)


def diagonal_stencil(n: int, offsets: Sequence[int] = (-16, -1, 0, 1, 16),
                     seed: Optional[int] = None) -> COOMatrix:
    """A multi-diagonal stencil matrix (cant/crankseg archetype)."""
    rng = _rng(seed)
    rows_list, cols_list = [], []
    for off in offsets:
        length = n - abs(off)
        if length <= 0:
            continue
        r = np.arange(max(0, -off), max(0, -off) + length)
        rows_list.append(r)
        cols_list.append(r + off)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    return COOMatrix((n, n), rows, cols, rng.uniform(0.1, 1.0, size=rows.size))


def poisson2d(grid: int, epsilon: float = 1.0) -> COOMatrix:
    """The 5-point Laplacian on a ``grid x grid`` mesh (AMG's test problem).

    ``epsilon`` scales the y-direction coupling: values far from 1 give
    the *anisotropic* problem classical AMG coarsening is usually
    stress-tested on.
    """
    if grid < 1:
        raise ShapeError(f"Poisson grid must be >= 1, got {grid}")
    n = grid * grid
    rows, cols, vals = [], [], []
    diag = 2.0 + 2.0 * epsilon
    for i in range(grid):
        for j in range(grid):
            idx = i * grid + j
            rows.append(idx); cols.append(idx); vals.append(diag)
            for di, dj, w in ((-1, 0, epsilon), (1, 0, epsilon), (0, -1, 1.0), (0, 1, 1.0)):
                ni, nj = i + di, j + dj
                if 0 <= ni < grid and 0 <= nj < grid:
                    rows.append(idx); cols.append(ni * grid + nj); vals.append(-w)
    return COOMatrix((n, n), rows, cols, vals)


def poisson3d(grid: int) -> COOMatrix:
    """The 7-point Laplacian on a ``grid^3`` mesh (the 3-D AMG problem)."""
    if grid < 1:
        raise ShapeError(f"Poisson grid must be >= 1, got {grid}")
    n = grid ** 3
    rows, cols, vals = [], [], []
    for i in range(grid):
        for j in range(grid):
            for k in range(grid):
                idx = (i * grid + j) * grid + k
                rows.append(idx); cols.append(idx); vals.append(6.0)
                for di, dj, dk in (
                    (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
                ):
                    ni, nj, nk = i + di, j + dj, k + dk
                    if 0 <= ni < grid and 0 <= nj < grid and 0 <= nk < grid:
                        rows.append(idx)
                        cols.append((ni * grid + nj) * grid + nk)
                        vals.append(-1.0)
    return COOMatrix((n, n), rows, cols, vals)
