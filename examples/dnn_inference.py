"""Sparse DNN inference: DLMC-style weights at 70% / 98% sparsity.

Reproduces the Fig. 17 DNN columns: ResNet-50 (conv as SpGEMM) and
Transformer (SpMM) at 128 MAC@FP32, plus a numeric forward pass of one
pruned layer over the BBC kernels.

Run:  python examples/dnn_inference.py
"""

import numpy as np

from repro.analysis.tables import print_table
from repro.apps.dnn import compare_models, forward_layer
from repro.arch.config import FP32, UniSTCConfig
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC
from repro.formats.bbc import BBCMatrix
from repro.workloads.dlmc import pruned_weight


def main() -> None:
    stcs = [DsSTC(FP32), RmSTC(FP32), UniSTC(UniSTCConfig(precision=FP32))]

    rows = []
    for model in ("resnet50", "transformer"):
        for sparsity in (0.70, 0.98):
            reports = compare_models(stcs, model, sparsity, scale=0.0625)
            ds = reports["ds-stc"]
            for name, report in reports.items():
                speed = ds.e2e_compute_cycles / report.e2e_compute_cycles
                energy = ds.e2e_compute_energy_pj / report.e2e_compute_energy_pj
                rows.append([
                    model, f"{sparsity:.0%}", name, report.e2e_compute_cycles,
                    speed, speed * energy,
                ])
    print_table(
        ["model", "sparsity", "stc", "cycles", "speedup vs DS", "energy-eff vs DS"],
        rows, title="Fig. 17 (DNN) — inference on 128 MAC@FP32",
    )

    # A real numeric forward pass through one pruned projection layer.
    weight = pruned_weight(128, 256, sparsity=0.9, seed=4)
    bbc = BBCMatrix.from_coo(weight)
    activations = np.random.default_rng(0).standard_normal((256, 32))
    out = forward_layer(bbc, activations)
    expected = np.maximum(weight.to_dense() @ activations, 0.0)
    assert np.allclose(out, expected)
    print(f"\nnumeric check: 128x256 weight @ 90% sparsity, batch 32 -> "
          f"output {out.shape}, matches dense numpy "
          f"({np.count_nonzero(out)} active units)")


if __name__ == "__main__":
    main()
