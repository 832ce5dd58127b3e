"""Conjugate Gradient, optionally AMG-preconditioned.

The AMG solvers the paper's motivation cites (AmgT, AmgR) are used in
practice as *preconditioners* inside Krylov methods; this module
closes that loop: a from-scratch CG over the package's CSR kernels,
with an optional one-V-cycle AMG preconditioner, tracing every SpMV so
the whole solve can be lowered to a graph and simulated on the STC
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.amg import AMGSolver
from repro.apps.trace import KernelTrace
from repro.errors import ConvergenceError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.kernels import reference


@dataclass
class CGResult:
    """Outcome of one CG solve."""

    solution: np.ndarray
    residuals: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def conjugate_gradient(
    a: CSRMatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iterations: int = 500,
    preconditioner: Optional[AMGSolver] = None,
    trace: Optional[KernelTrace] = None,
) -> CGResult:
    """Solve A x = b for SPD A by (preconditioned) conjugate gradients.

    With ``preconditioner`` given, each iteration applies one AMG
    V-cycle as M^-1; its internal kernel calls land in the solver's own
    trace, while this function records the CG-level SpMVs into
    ``trace``.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError("CG needs a square (SPD) matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.shape[0],):
        raise ShapeError(f"rhs has shape {b.shape}, expected ({a.shape[0]},)")

    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - reference.spmv(a, x)
    if trace is not None:
        trace.record("spmv", a, label="cg residual0")

    def apply_preconditioner(residual: np.ndarray) -> np.ndarray:
        if preconditioner is None:
            return residual
        return preconditioner.cycle(residual)

    z = apply_preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    norm0 = float(np.linalg.norm(r))
    result = CGResult(solution=x, residuals=[norm0])
    # Absolute floor so a warm start at the (numerically) exact solution
    # is recognised instead of iterating towards an unreachable target.
    floor = 1e-13 * max(1.0, float(np.linalg.norm(b)))
    if norm0 <= floor:
        result.converged = True
        return result

    for it in range(max_iterations):
        ap = reference.spmv(a, p)
        if trace is not None:
            trace.record("spmv", a, label="cg A*p")
        p_ap = float(p @ ap)
        if p_ap <= 0:
            raise ConvergenceError("matrix is not positive definite along p")
        alpha = rz / p_ap
        x = x + alpha * p
        r = r - alpha * ap
        res_norm = float(np.linalg.norm(r))
        result.residuals.append(res_norm)
        result.iterations = it + 1
        if res_norm <= max(tol * norm0, floor):
            result.converged = True
            break
        z = apply_preconditioner(r)
        rz_next = float(r @ z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    result.solution = x
    return result
