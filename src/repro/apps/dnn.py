"""Sparse DNN inference over DLMC-style weights (Fig. 17's right half).

The paper evaluates ResNet-50 and Transformer inference at
128 MAC@FP32: linear/projection layers are SpMM (sparse weight x dense
activation), and sparse convolution is treated as SpGEMM (sparse
im2col weight x sparse activation — ReLU'd feature maps are sparse,
which the paper notes makes Uni-STC enable *more* DPGs on ResNet-50
and fewer on the denser Transformer).

The forward pass is built as a :class:`~repro.graph.ir.ModelGraph` and
scheduled by :class:`~repro.graph.runner.GraphRunner` — request 0 of
the graph path reproduces the historic per-layer loop bit for bit (the
loop survives as the parity oracle in ``tests/test_graph_parity.py``),
and ``batch``/``buffer_kib`` expose the end-to-end story the loop
could never tell.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.arch.base import STCModel
from repro.errors import ShapeError
from repro.formats.bbc import BBCMatrix
from repro.graph import DEFAULT_BUFFER_KIB, GraphRunner, ModelReport, dnn_graph
from repro.kernels import bbc_kernels
from repro.workloads.dnn import ACTIVATION_SPARSITY

__all__ = [
    "ACTIVATION_SPARSITY",
    "compare_models",
    "forward_layer",
    "simulate_inference",
]


def simulate_inference(
    stc: STCModel,
    model: str = "resnet50",
    sparsity: float = 0.70,
    scale: Optional[float] = None,
    seed: int = 11,
    batch: int = 1,
    buffer_kib: int = DEFAULT_BUFFER_KIB,
) -> ModelReport:
    """Simulate a model's forward pass on one STC via the graph runner.

    Linear layers run SpMM with the layer's activation width; conv
    layers run SpGEMM against a ReLU-sparse activation matrix.  With
    ``batch > 1`` the graph runs once per request through the same
    warm block cache (fresh conv activations per request); request 0's
    per-layer reports (``per_layer(0)``) are identical to those of the
    historic per-layer loop.
    """
    graph = dnn_graph(model, sparsity, scale=scale, seed=seed)
    return GraphRunner(graph, stc, batch=batch,
                       buffer_bytes=buffer_kib * 1024).run()


def forward_layer(weight: BBCMatrix, activations: np.ndarray, relu: bool = True) -> np.ndarray:
    """Numerically execute one layer (SpMM + optional ReLU) over BBC."""
    if activations.ndim != 2 or activations.shape[0] != weight.shape[1]:
        raise ShapeError(
            f"activations {activations.shape} incompatible with weight {weight.shape}"
        )
    out = bbc_kernels.spmm(weight, activations)
    if relu:
        out = np.maximum(out, 0.0)
    return out


def compare_models(
    stcs: List[STCModel],
    model: str = "resnet50",
    sparsity: float = 0.70,
    scale: Optional[float] = None,
    seed: int = 11,
) -> Dict[str, ModelReport]:
    """Run the same model on several STCs (all at FP32 by convention).

    ``seed`` reaches every STC's weight and activation draws — it used
    to be silently pinned to 11, so multi-STC comparisons could never
    vary their inputs.
    """
    return {
        stc.name: simulate_inference(stc, model, sparsity, scale=scale, seed=seed)
        for stc in stcs
    }
