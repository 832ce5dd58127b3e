"""PageRank — the canonical SpMV-iteration graph workload.

Power iteration on the column-stochastic transition matrix with
damping: ``r' = d * P @ r + (1 - d)/n``.  Every iteration is one SpMV
over the same matrix, which makes PageRank the textbook case for the
§VI-B amortisation argument (encode BBC once, reuse across dozens of
iterations); the recorded trace lowers to a chain graph and runs on
the STC models like every other application in :mod:`repro.apps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.trace import KernelTrace
from repro.errors import ConvergenceError, ShapeError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels import reference


def transition_matrix(adjacency: CSRMatrix) -> CSRMatrix:
    """Column-stochastic transition matrix P with P[j, i] = 1/deg(i).

    Dangling vertices (out-degree 0) get a uniform column, the standard
    PageRank fix.
    """
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ShapeError("PageRank needs a square adjacency")
    n = adjacency.shape[0]
    out_degree = adjacency.row_nnz().astype(np.float64)
    coo = adjacency.to_coo()
    vals = 1.0 / out_degree[coo.rows]
    # P[j, i] for edge i -> j: transpose the scaled adjacency.
    rows, cols = coo.cols, coo.rows
    dangling = np.flatnonzero(out_degree == 0)
    if dangling.size:
        extra_rows = np.tile(np.arange(n), dangling.size)
        extra_cols = np.repeat(dangling, n)
        extra_vals = np.full(extra_rows.size, 1.0 / n)
        rows = np.concatenate([rows, extra_rows])
        cols = np.concatenate([cols, extra_cols])
        vals = np.concatenate([vals, extra_vals])
    return CSRMatrix.from_coo(COOMatrix((n, n), rows, cols, vals))


@dataclass
class PageRankResult:
    """Converged ranks plus iteration history."""

    ranks: np.ndarray
    iterations: int = 0
    deltas: List[float] = field(default_factory=list)
    converged: bool = False

    def top(self, k: int = 5) -> List[int]:
        """Indices of the k highest-ranked vertices."""
        return list(np.argsort(self.ranks)[::-1][:k])


def pagerank(
    adjacency: CSRMatrix,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iterations: int = 200,
    trace: Optional[KernelTrace] = None,
) -> PageRankResult:
    """Power-iteration PageRank over the package's own SpMV."""
    if not 0.0 < damping < 1.0:
        raise ConvergenceError(f"damping must be in (0, 1), got {damping}")
    p = transition_matrix(adjacency)
    n = p.shape[0]
    ranks = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    result = PageRankResult(ranks=ranks)
    for it in range(max_iterations):
        spread = reference.spmv(p, ranks)
        if trace is not None:
            trace.record("spmv", p, label=f"pagerank@{it}")
        new_ranks = damping * spread + teleport
        delta = float(np.abs(new_ranks - ranks).sum())
        result.deltas.append(delta)
        ranks = new_ranks
        result.iterations = it + 1
        if delta <= tol:
            result.converged = True
            break
    result.ranks = ranks
    return result
