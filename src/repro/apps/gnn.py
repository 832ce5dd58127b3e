"""A GNN propagation layer — Table II's SpMM + SpGEMM combination.

Graph neural networks propagate node features (``H' = ReLU(A_hat H W)``,
an SpMM over the normalised adjacency) and aggregate neighbourhood
structure (two-hop connectivity ``A^2``, an SpGEMM).  This module
implements both numerically over the package's own kernels and records
the kernel trace, demonstrating the multi-kernel workloads Uni-STC's
generality argument (§III-A) is about.

The simulation side runs through :mod:`repro.graph`: ``propagation_graph``
declares the propagate/two-hop stack as a :class:`ModelGraph` and
``simulate_propagation`` schedules it (the hand-rolled loop it replaced
is the parity oracle in ``tests/test_graph_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.trace import KernelTrace
from repro.arch.base import STCModel
from repro.errors import ShapeError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.graph import DEFAULT_BUFFER_KIB, GraphRunner, ModelGraph, ModelReport, gnn_graph
from repro.kernels import reference


def normalised_adjacency(adjacency: CSRMatrix) -> CSRMatrix:
    """Symmetric GCN normalisation: D^-1/2 (A + I) D^-1/2."""
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ShapeError("adjacency must be square")
    with_self = reference.add(adjacency, CSRMatrix.identity(adjacency.shape[0]))
    degrees = np.asarray(
        [with_self.row(i)[1].sum() for i in range(with_self.shape[0])], dtype=np.float64
    )
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    coo = with_self.to_coo()
    vals = coo.vals * inv_sqrt[coo.rows] * inv_sqrt[coo.cols]
    return CSRMatrix.from_coo(COOMatrix(with_self.shape, coo.rows, coo.cols, vals))


@dataclass
class GNNLayer:
    """One GCN layer with a dense weight matrix."""

    a_hat: CSRMatrix
    weight: np.ndarray

    def forward(self, features: np.ndarray, trace: Optional[KernelTrace] = None) -> np.ndarray:
        """H' = ReLU(A_hat @ H @ W) — the SpMM step of Table II."""
        if features.shape[0] != self.a_hat.shape[1]:
            raise ShapeError("feature rows must match graph size")
        propagated = reference.spmm(self.a_hat, features)
        if trace is not None:
            trace.record("spmm", self.a_hat, b_cols=features.shape[1], label="propagate")
        return np.maximum(propagated @ self.weight, 0.0)


def two_hop(adjacency: CSRMatrix, trace: Optional[KernelTrace] = None) -> CSRMatrix:
    """Two-hop connectivity A @ A — the SpGEMM step of Table II."""
    result = reference.spgemm(adjacency, adjacency)
    if trace is not None:
        trace.record("spgemm", adjacency, b=adjacency, label="two-hop")
    return result


def propagation_graph(
    adjacency: CSRMatrix,
    feature_dim: int = 64,
    layers: int = 2,
) -> ModelGraph:
    """The GCN stack as a model graph (propagate x ``layers`` + two-hop)."""
    return gnn_graph(normalised_adjacency(adjacency), adjacency,
                     feature_dim=feature_dim, layers=layers)


def simulate_propagation(
    stc: STCModel,
    adjacency: CSRMatrix,
    feature_dim: int = 64,
    layers: int = 2,
    batch: int = 1,
    buffer_kib: int = DEFAULT_BUFFER_KIB,
) -> ModelReport:
    """Simulate the GCN stack end to end through the graph runner."""
    graph = propagation_graph(adjacency, feature_dim=feature_dim,
                              layers=layers)
    return GraphRunner(graph, stc, batch=batch,
                       buffer_bytes=buffer_kib * 1024).run()

