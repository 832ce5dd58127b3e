"""Algebraic multigrid (AMG) solver — the §VI-D application case study.

A complete smoothed-aggregation AMG implementation over the package's
own CSR kernels:

- strength-of-connection filtering,
- greedy root-node aggregation,
- smoothed prolongation ``P = (I - w D^-1 A) P_hat`` (one SpGEMM),
- Galerkin coarsening ``A_c = P^T A P`` (two SpGEMMs),
- weighted-Jacobi-smoothed V-cycles (SpMV-dominated).

Every SpMV and SpGEMM the solver issues is recorded in a
:class:`~repro.apps.trace.KernelTrace`; Fig. 21 lowers it to a chain
graph and runs that on each STC: the paper substitutes STCs into an
existing FP64 AMG solver and reports per-kernel speedups, which is
exactly what the trace yields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.apps.trace import KernelTrace
from repro.errors import ConvergenceError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.kernels import reference


@dataclass
class AMGLevel:
    """One level of the multigrid hierarchy."""

    a: CSRMatrix
    p: Optional[CSRMatrix] = None       # prolongation to this level's fine grid
    r: Optional[CSRMatrix] = None       # restriction (P^T)
    jacobi_diag: Optional[np.ndarray] = None


@dataclass
class AMGSolveResult:
    """Outcome of an AMG solve."""

    solution: np.ndarray
    residuals: List[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def converged(self) -> bool:
        return bool(self.residuals) and self.residuals[-1] <= self.residuals[0] * 1e-8


def strength_graph(a: CSRMatrix, theta: float = 0.08) -> CSRMatrix:
    """Symmetric strength-of-connection filter.

    Keeps off-diagonal entries with
    ``|a_ij| >= theta * sqrt(|a_ii| * |a_jj|)`` plus the diagonal.
    """
    diag = np.abs(a.diagonal())
    coo = a.to_coo()
    thresh = theta * np.sqrt(diag[coo.rows] * diag[coo.cols])
    keep = (np.abs(coo.vals) >= thresh) | (coo.rows == coo.cols)
    from repro.formats.coo import COOMatrix

    return CSRMatrix.from_coo(
        COOMatrix(a.shape, coo.rows[keep], coo.cols[keep], coo.vals[keep])
    )


def aggregate(strength: CSRMatrix) -> Tuple[np.ndarray, int]:
    """Greedy root-node aggregation over the strength graph.

    Returns ``(aggregate_id_per_node, n_aggregates)``; every node is
    assigned (unaggregated leftovers join a strongly-connected
    neighbour's aggregate, or form singletons).
    """
    n = strength.shape[0]
    agg = np.full(n, -1, dtype=np.int64)
    count = 0
    # Pass 1: roots whose whole neighbourhood is free.
    for i in range(n):
        if agg[i] != -1:
            continue
        cols, _ = strength.row(i)
        if np.all(agg[cols] == -1):
            agg[i] = count
            agg[cols] = count
            count += 1
    # Pass 2: attach leftovers to a neighbouring aggregate.
    for i in range(n):
        if agg[i] != -1:
            continue
        cols, _ = strength.row(i)
        neighbours = agg[cols]
        assigned = neighbours[neighbours != -1]
        if assigned.size:
            agg[i] = assigned[0]
        else:
            agg[i] = count
            count += 1
    return agg, count


def tentative_prolongator(agg: np.ndarray, n_agg: int) -> CSRMatrix:
    """Piecewise-constant prolongator from the aggregation."""
    n = agg.size
    return CSRMatrix(
        (n, n_agg), np.arange(n + 1), agg.copy(), np.ones(n), _skip_checks=True
    )


class AMGSolver:
    """Smoothed-aggregation AMG with kernel tracing."""

    def __init__(
        self,
        a: CSRMatrix,
        theta: float = 0.08,
        omega: float = 2.0 / 3.0,
        max_levels: int = 10,
        coarse_size: int = 32,
        smooth_prolongator: bool = True,
        smoother: str = "jacobi",
        gamma: int = 1,
        pre_sweeps: int = 1,
        post_sweeps: int = 1,
    ):
        if a.shape[0] != a.shape[1]:
            raise ShapeError("AMG needs a square matrix")
        if smoother not in ("jacobi", "gauss-seidel"):
            raise ShapeError(f"unknown smoother {smoother!r}")
        if gamma not in (1, 2):
            raise ShapeError("gamma must be 1 (V-cycle) or 2 (W-cycle)")
        self.omega = omega
        self.smoother = smoother
        self.gamma = gamma
        self.pre_sweeps = pre_sweeps
        self.post_sweeps = post_sweeps
        self.trace = KernelTrace()
        self.levels: List[AMGLevel] = []
        self._coarse_dense: Optional[np.ndarray] = None
        with obs.span("amg_setup", n=a.shape[0], nnz=a.nnz):
            self._setup(a, theta, max_levels, coarse_size, smooth_prolongator)

    # -- setup (SpGEMM-dominated) ------------------------------------------

    def _setup(self, a: CSRMatrix, theta: float, max_levels: int,
               coarse_size: int, smooth: bool) -> None:
        current = a
        for _ in range(max_levels):
            diag = current.diagonal()
            if np.any(diag == 0):
                raise ConvergenceError("zero diagonal entry; AMG needs SPD-like input")
            level = AMGLevel(a=current, jacobi_diag=diag)
            self.levels.append(level)
            if current.shape[0] <= coarse_size:
                break
            strength = strength_graph(current, theta)
            agg, n_agg = aggregate(strength)
            if n_agg >= current.shape[0]:
                break  # aggregation stalled; stop coarsening
            p_hat = tentative_prolongator(agg, n_agg)
            if smooth:
                # P = (I - w D^-1 A) P_hat: one SpGEMM plus a scaled add.
                d_inv_a = CSRMatrix(
                    current.shape, current.indptr.copy(), current.indices.copy(),
                    current.data / diag[np.repeat(np.arange(current.shape[0]),
                                                  current.row_nnz())],
                    _skip_checks=True,
                )
                ap = reference.spgemm(d_inv_a, p_hat)
                self.trace.record("spgemm", d_inv_a, b=p_hat, label="smooth P")
                p = reference.add(p_hat, ap, 1.0, -self.omega)
            else:
                p = p_hat
            r = p.transpose()
            # Galerkin triple product: A_c = R (A P).
            ap = reference.spgemm(current, p)
            self.trace.record("spgemm", current, b=p, label="A*P")
            coarse = reference.spgemm(r, ap)
            self.trace.record("spgemm", r, b=ap, label="R*(AP)")
            level.p = p
            level.r = r
            current = coarse
        self._coarse_dense = self.levels[-1].a.to_dense()

    # -- V-cycle (SpMV-dominated) -------------------------------------------

    def _smooth(self, level: AMGLevel, x: np.ndarray, b: np.ndarray, sweeps: int) -> np.ndarray:
        if self.smoother == "jacobi":
            for _ in range(sweeps):
                ax = reference.spmv(level.a, x)
                self.trace.record("spmv", level.a, label="jacobi")
                x = x + self.omega * (b - ax) / level.jacobi_diag
            return x
        # Gauss-Seidel: forward sweeps over the rows.  Each sweep reads
        # the whole matrix once — traced as one SpMV-equivalent.
        a = level.a
        x = x.copy()
        for _ in range(sweeps):
            for i in range(a.shape[0]):
                cols, vals = a.row(i)
                sigma = float(vals @ x[cols]) - level.jacobi_diag[i] * x[i]
                x[i] = (b[i] - sigma) / level.jacobi_diag[i]
            self.trace.record("spmv", a, label="gauss-seidel")
        return x

    def _cycle(self, idx: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One multigrid cycle: gamma=1 is a V-cycle, gamma=2 a W-cycle."""
        level = self.levels[idx]
        if idx == len(self.levels) - 1:
            return np.linalg.solve(
                self._coarse_dense + 1e-14 * np.eye(level.a.shape[0]), b
            )
        x = self._smooth(level, x, b, sweeps=self.pre_sweeps)
        residual = b - reference.spmv(level.a, x)
        self.trace.record("spmv", level.a, label="residual")
        coarse_b = reference.spmv(level.r, residual)
        self.trace.record("spmv", level.r, label="restrict")
        coarse_x = np.zeros(coarse_b.size)
        for _ in range(self.gamma):
            coarse_x = self._cycle(idx + 1, coarse_b, coarse_x)
        x = x + reference.spmv(level.p, coarse_x)
        self.trace.record("spmv", level.p, label="prolong")
        return self._smooth(level, x, b, sweeps=self.post_sweeps)

    def cycle(self, b: np.ndarray, x: Optional[np.ndarray] = None) -> np.ndarray:
        """One cycle from the finest level (CG's preconditioner): unlike
        :meth:`solve`, it traces no residual checks."""
        return self._cycle(0, b, np.zeros(b.shape) if x is None else x)

    def solve(
        self,
        b: np.ndarray,
        x0: Optional[np.ndarray] = None,
        tol: float = 1e-8,
        max_iterations: int = 60,
    ) -> AMGSolveResult:
        """Run V-cycles until the relative residual drops below ``tol``."""
        a = self.levels[0].a
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (a.shape[0],):
            raise ShapeError(f"rhs has shape {b.shape}, expected ({a.shape[0]},)")
        x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
        result = AMGSolveResult(solution=x)
        norm0 = float(np.linalg.norm(b - reference.spmv(a, x)))
        self.trace.record("spmv", a, label="residual0")
        result.residuals.append(norm0)
        # Absolute floor: a warm start at (numerically) the exact
        # solution must not iterate against an unreachable relative goal.
        floor = 1e-13 * max(1.0, float(np.linalg.norm(b)))
        if norm0 <= floor:
            return result
        for it in range(max_iterations):
            with obs.span("amg_vcycle", iteration=it):
                x = self.cycle(b, x)
                res = float(np.linalg.norm(b - reference.spmv(a, x)))
            self.trace.record("spmv", a, label="check")
            result.residuals.append(res)
            result.iterations = it + 1
            obs.observe("amg.residual", res)
            if res <= max(tol * norm0, floor):
                break
        result.solution = x
        return result

    # -- reporting -------------------------------------------------------

    def grid_complexity(self) -> float:
        """Sum of per-level nnz over finest nnz (a standard AMG metric)."""
        fine = self.levels[0].a.nnz
        return sum(level.a.nnz for level in self.levels) / fine if fine else 0.0
