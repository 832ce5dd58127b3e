"""Graph-path vs legacy-loop parity: byte-identical per-layer reports.

The refactor contract: request 0 of the graph runner must call
``simulate_kernel`` with exactly the arguments the hand-rolled app
loops used, so every per-layer ``SimReport`` is byte-identical
(compared via the canonical ``report_digest``, which excludes only
host wall time and cache attribution).  The loops themselves are the
oracles below; nothing in ``repro`` runs them.
"""

from typing import Optional

import pytest

from repro.apps.dnn import InferenceReport, LayerReport, simulate_inference
from repro.apps.gnn import normalised_adjacency, simulate_propagation
from repro.arch.base import STCModel
from repro.arch.config import FP32, UniSTCConfig
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC
from repro.formats import BBCMatrix, CSRMatrix
from repro.perf.bench import report_digest
from repro.sim.engine import simulate_kernel
from repro.workloads.dlmc import dlmc_corpus
from repro.workloads.dnn import activation_matrix
from repro.workloads.synthetic import random_uniform


def simulate_inference_legacy(
    stc: STCModel,
    model: str = "resnet50",
    sparsity: float = 0.70,
    scale: Optional[float] = None,
    seed: int = 11,
) -> InferenceReport:
    """The historic hand-rolled per-layer loop.

    Kept as the parity reference the graph path is tested against:
    request 0 of :func:`simulate_inference` must produce byte-identical
    per-layer reports to this loop.
    """
    out = InferenceReport(model=model, stc=stc.name, sparsity=sparsity)
    for i, (layer, weight) in enumerate(dlmc_corpus(model, sparsity, scale=scale, seed=seed)):
        bbc = BBCMatrix.from_coo(weight)
        if layer.kind == "linear":
            report = simulate_kernel("spmm", bbc, stc, b_cols=layer.n, matrix=layer.name)
        else:
            acts = activation_matrix(layer.k, layer.n, seed=seed + 100 + i)
            report = simulate_kernel(
                "spgemm", bbc, stc, b=BBCMatrix.from_csr(acts), matrix=layer.name
            )
        out.layers.append(LayerReport(layer=layer, report=report))
    return out


def simulate_propagation_legacy(
    stc: STCModel,
    adjacency: CSRMatrix,
    feature_dim: int = 64,
    layers: int = 2,
):
    """The hand-rolled per-kernel loop the graph path must match.

    Returns the per-kernel :class:`~repro.sim.results.SimReport` list in
    the same order the graph schedules its nodes.
    """
    a_hat = BBCMatrix.from_csr(normalised_adjacency(adjacency))
    reports = []
    for i in range(1, layers + 1):
        reports.append(simulate_kernel(
            "spmm", a_hat, stc, b_cols=feature_dim,
            matrix=f"gnn.propagate{i}",
        ))
    adj = BBCMatrix.from_csr(adjacency)
    reports.append(simulate_kernel(
        "spgemm", adj, stc, b=adj, matrix="gnn.two_hop",
    ))
    return reports

STCS = {
    "uni-stc": lambda: UniSTC(UniSTCConfig(precision=FP32)),
    "ds-stc": lambda: DsSTC(FP32),
    "rm-stc": lambda: RmSTC(FP32),
}


@pytest.fixture(scope="module")
def adjacency():
    return CSRMatrix.from_coo(random_uniform(128, 128, 0.06, seed=9))


@pytest.mark.parametrize("stc_name", sorted(STCS))
@pytest.mark.parametrize("model,scale", [("resnet50", 0.05),
                                         ("transformer", 0.125)])
def test_dnn_graph_matches_legacy_loop(stc_name, model, scale):
    graph = simulate_inference(STCS[stc_name](), model, 0.70, scale=scale)
    legacy = simulate_inference_legacy(STCS[stc_name](), model, 0.70,
                                       scale=scale)
    assert [l.layer.name for l in graph.layers] \
        == [l.layer.name for l in legacy.layers]
    assert [report_digest(l.report) for l in graph.layers] \
        == [report_digest(l.report) for l in legacy.layers]
    assert graph.total_cycles == legacy.total_cycles
    assert graph.total_energy_pj == legacy.total_energy_pj


@pytest.mark.parametrize("stc_name", sorted(STCS))
def test_gnn_graph_matches_legacy_loop(stc_name, adjacency):
    report = simulate_propagation(STCS[stc_name](), adjacency,
                                  feature_dim=32, layers=2)
    legacy = simulate_propagation_legacy(STCS[stc_name](), adjacency,
                                         feature_dim=32, layers=2)
    nodes = report.per_layer(request=0)
    assert len(nodes) == len(legacy) == 3      # 2 propagations + two-hop
    assert [report_digest(n.report) for n in nodes] \
        == [report_digest(r) for r in legacy]


def test_dnn_parity_holds_under_batching():
    """Request 0 of a batched run is still the legacy run."""
    uni = UniSTC(UniSTCConfig(precision=FP32))
    batched = simulate_inference(uni, "resnet50", 0.70, scale=0.05, batch=3)
    legacy = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05)
    assert [report_digest(l.report) for l in batched.layers] \
        == [report_digest(l.report) for l in legacy.layers]


def test_dnn_parity_tracks_the_seed():
    """A non-default seed reaches both paths identically."""
    uni = UniSTC(UniSTCConfig(precision=FP32))
    graph = simulate_inference(uni, "resnet50", 0.70, scale=0.05, seed=42)
    legacy = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05,
                                       seed=42)
    assert [report_digest(l.report) for l in graph.layers] \
        == [report_digest(l.report) for l in legacy.layers]
    default = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05)
    assert [report_digest(l.report) for l in graph.layers] \
        != [report_digest(l.report) for l in default.layers]
