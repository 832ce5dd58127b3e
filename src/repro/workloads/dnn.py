"""DNN layer catalogues: ResNet-50 and Transformer GEMM shapes.

The paper's DNN evaluation (Fig. 17, right columns) runs SpMM/SpGEMM
over DLMC weight matrices for ResNet-50 and a Vaswani-style
Transformer at 128 MAC@FP32.  These catalogues list the layers as GEMM
problems — convolutions in their im2col form (the paper treats sparse
convolution as SpGEMM) — scaled down by ``scale`` so a pure-Python
simulator can sweep them while preserving the aspect ratios that
determine dataflow behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.formats.bbc import BBCMatrix

#: Typical post-ReLU activation sparsity for the conv-as-SpGEMM path.
ACTIVATION_SPARSITY = 0.5


def activation_matrix(k: int, n: int, seed: int) -> BBCMatrix:
    """A ReLU'd (half-sparse) ``k x n`` activation matrix, BBC-encoded.

    The operand the conv-as-SpGEMM path feeds as B; seeded so the same
    request always sees the same feature map (the graph runner derives
    per-request seeds from this one).  The dense draw is encoded
    straight from its layout (:meth:`BBCMatrix.from_dense`), array for
    array what the CSR route would give.
    """
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((k, n))
    np.maximum(dense, 0.0, out=dense)  # ReLU: ~50% sparsity
    return BBCMatrix.from_dense(dense)


@dataclass(frozen=True)
class LayerSpec:
    """One GEMM-shaped layer: ``(m x k) weight @ (k x n) activation``."""

    name: str
    m: int       # output channels / projection width
    k: int       # input channels x kernel window (im2col depth)
    n: int       # spatial positions / sequence length
    kind: str    # "conv" (treated as SpGEMM) or "linear" (SpMM)

    def scaled(self, scale: float) -> "LayerSpec":
        """Shrink every dimension, keeping at least one 16-block."""
        def s(v: int) -> int:
            return max(16, int(round(v * scale)) // 16 * 16)

        return LayerSpec(self.name, s(self.m), s(self.k), s(self.n), self.kind)


#: Representative ResNet-50 layers across its four stages (im2col GEMMs).
RESNET50_LAYERS: List[LayerSpec] = [
    LayerSpec("resnet50.conv2_1", 64, 576, 3136, "conv"),
    LayerSpec("resnet50.conv2_3", 256, 64, 3136, "conv"),
    LayerSpec("resnet50.conv3_2", 128, 1152, 784, "conv"),
    LayerSpec("resnet50.conv4_2", 256, 2304, 196, "conv"),
    LayerSpec("resnet50.conv5_2", 512, 4608, 49, "conv"),
    LayerSpec("resnet50.fc", 1000, 2048, 1, "linear"),
]

#: Transformer (base) projection and FFN layers at sequence length 128.
TRANSFORMER_LAYERS: List[LayerSpec] = [
    LayerSpec("transformer.qkv", 512, 512, 128, "linear"),
    LayerSpec("transformer.attn_out", 512, 512, 128, "linear"),
    LayerSpec("transformer.ffn_up", 2048, 512, 128, "linear"),
    LayerSpec("transformer.ffn_down", 512, 2048, 128, "linear"),
]


def resnet50_layers(scale: float = 0.125) -> List[LayerSpec]:
    """Scaled ResNet-50 catalogue (default 1/8 linear scale)."""
    return [layer.scaled(scale) for layer in RESNET50_LAYERS]


def transformer_layers(scale: float = 0.25) -> List[LayerSpec]:
    """Scaled Transformer catalogue (default 1/4 linear scale)."""
    return [layer.scaled(scale) for layer in TRANSFORMER_LAYERS]
