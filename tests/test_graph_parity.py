"""Graph-path vs legacy-loop parity: byte-identical per-layer reports.

The refactor contract: request 0 of the graph runner must call
``simulate_kernel`` with exactly the arguments the hand-rolled app
loops used, so every per-layer ``SimReport`` is byte-identical
(compared via the canonical ``report_digest``, which excludes only
host wall time and cache attribution).  The loops themselves are the
oracles below; nothing in ``repro`` runs them.  The same holds for
kernel traces: a trace lowered by ``KernelTrace.graph`` must match one
``simulate_kernel`` call per recorded invocation.  The DNN oracle builds
its conv activations by the historic CSR route, so the graph's direct
dense encode is checked against it, operand by operand.
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.apps.amg import AMGSolver
from repro.apps.bfs import bfs
from repro.apps.cg import conjugate_gradient
from repro.apps.dnn import simulate_inference
from repro.apps.gnn import GNNLayer, normalised_adjacency, simulate_propagation, two_hop
from repro.apps.pagerank import pagerank
from repro.apps.trace import KernelTrace
from repro.arch.base import STCModel
from repro.arch.config import FP32, UniSTCConfig
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC
from repro.formats import BBCMatrix, CSRMatrix
from repro.graph import GraphRunner, dnn_graph
from repro.graph import runner as graph_runner
from repro.graph.build import REQUEST_SEED_STRIDE
from repro.kernels import reference
from repro.perf.bench import report_digest
from repro.registry import create_stc, registered_stcs
from repro.sim.engine import simulate_kernel
from repro.sim.memory import spgemm_output_nnz
from repro.sim.results import SimReport
from repro.workloads.dlmc import dlmc_corpus
from repro.workloads.structured import rmat
from repro.workloads.synthetic import poisson2d, random_uniform


def legacy_activation(k: int, n: int, seed: int) -> BBCMatrix:
    """A conv activation by the historic route: draw, ReLU, CSR, BBC.

    The oracle's own copy, apart from ``activation_matrix``'s direct
    dense encode, so the parity checks below stay independent of it.
    """
    dense = np.random.default_rng(seed).standard_normal((k, n))
    dense[dense < 0] = 0.0
    return BBCMatrix.from_csr(CSRMatrix.from_dense(dense))


def simulate_inference_legacy(
    stc: STCModel,
    model: str = "resnet50",
    sparsity: float = 0.70,
    scale: Optional[float] = None,
    seed: int = 11,
) -> List[Tuple[str, SimReport]]:
    """The historic hand-rolled per-layer loop.

    Kept as the parity reference the graph path is tested against:
    request 0 of :func:`simulate_inference` must produce byte-identical
    per-layer reports to this loop.  Returns ``(layer name, report)``
    pairs in layer order.
    """
    out = []
    for i, (layer, weight) in enumerate(dlmc_corpus(model, sparsity, scale=scale, seed=seed)):
        bbc = BBCMatrix.from_coo(weight)
        if layer.kind == "linear":
            report = simulate_kernel("spmm", bbc, stc, b_cols=layer.n, matrix=layer.name)
        else:
            acts = legacy_activation(layer.k, layer.n, seed + 100 + i)
            report = simulate_kernel("spgemm", bbc, stc, b=acts, matrix=layer.name)
        out.append((layer.name, report))
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


def simulate_trace_legacy(trace: KernelTrace, stc: STCModel) -> List[SimReport]:
    """One ``simulate_kernel`` call per recorded invocation, in order.

    The per-call loop a lowered trace must match: the operands are the
    ones the trace's former per-kernel replay passed (``x`` for SpMSpV,
    ``b`` for SpGEMM, ``b_cols`` for SpMM), labelled with the op's
    label.
    """
    reports = []
    for op in trace.ops:
        kwargs = {}
        if op.kernel == "spmspv":
            kwargs["x"] = op.x
        elif op.kernel == "spgemm" and op.b is not None:
            kwargs["b"] = BBCMatrix.from_csr(op.b)
        elif op.kernel == "spmm":
            kwargs["b_cols"] = op.b_cols
        reports.append(simulate_kernel(
            op.kernel, BBCMatrix.from_csr(op.a), stc, matrix=op.label,
            **kwargs,
        ))
    return reports


STCS = {
    "uni-stc": lambda: UniSTC(UniSTCConfig(precision=FP32)),
    "ds-stc": lambda: DsSTC(FP32),
    "rm-stc": lambda: RmSTC(FP32),
}


def _digests(nodes) -> List[str]:
    return [report_digest(n.report) for n in nodes]


def _legacy_digests(pairs) -> List[str]:
    return [report_digest(r) for _, r in pairs]


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
    nodes = graph.per_layer(0)
    assert [n.node for n in nodes] == [name for name, _ in legacy]
    assert _digests(nodes) == _legacy_digests(legacy)
    assert graph.e2e_compute_cycles == sum(int(r.cycles) for _, r in legacy)
    assert graph.e2e_compute_energy_pj == sum(r.energy_pj for _, r in legacy)


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
    assert _digests(batched.per_layer(0)) == _legacy_digests(legacy)


def test_dnn_parity_tracks_the_seed():
    """A non-default seed reaches both paths identically."""
    uni = UniSTC(UniSTCConfig(precision=FP32))
    graph = simulate_inference(uni, "resnet50", 0.70, scale=0.05, seed=42)
    legacy = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05,
                                       seed=42)
    assert _digests(graph.per_layer(0)) == _legacy_digests(legacy)
    default = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05)
    assert _digests(graph.per_layer(0)) != _legacy_digests(default)


_BBC_ARRAYS = ("row_ptr", "col_idx", "bitmap_lv1", "tile_ptr", "bitmap_lv2",
               "val_ptr_lv1", "val_ptr_lv2", "values")


@pytest.mark.parametrize("batch,offset", [(3, 0), (1, 7)])
def test_conv_operands_match_the_csr_route(batch, offset, monkeypatch):
    """Every conv node's ``b``, as the runner passes it, equals the
    legacy route's encoding array for array, at every request."""
    seen = []
    real = graph_runner.simulate_kernel

    def spy(kernel, a, stc, **kwargs):
        if kernel == "spgemm":
            seen.append(kwargs["b"])
        return real(kernel, a, stc, **kwargs)

    monkeypatch.setattr(graph_runner, "simulate_kernel", spy)
    seed = 11
    GraphRunner(dnn_graph("resnet50", scale=0.05, seed=seed),
                UniSTC(UniSTCConfig(precision=FP32)),
                batch=batch, request_offset=offset).run()
    corpus = dlmc_corpus("resnet50", 0.70, scale=0.05, seed=seed)
    want = [legacy_activation(layer.k, layer.n,
                              seed + 100 + i + REQUEST_SEED_STRIDE * request)
            for request in range(offset, offset + batch)
            for i, (layer, _) in enumerate(corpus) if layer.kind == "conv"]
    assert len(seen) == len(want) == 5 * batch
    for got, legacy in zip(seen, want):
        assert got.shape == legacy.shape
        for field in _BBC_ARRAYS:
            mine, theirs = getattr(got, field), getattr(legacy, field)
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), field


def _amg_pcg_trace() -> KernelTrace:
    """AMG setup plus three AMG-preconditioned CG iterations, one trace."""
    a = CSRMatrix.from_coo(poisson2d(12))
    amg = AMGSolver(a)
    b = np.random.default_rng(0).random(a.shape[0])
    conjugate_gradient(a, b, max_iterations=3, preconditioner=amg,
                       trace=amg.trace)
    return amg.trace


def _graph_adjacency() -> CSRMatrix:
    raw = CSRMatrix.from_coo(rmat(6, seed=5))
    return reference.add(raw, raw.transpose())


def _bfs_trace() -> KernelTrace:
    trace = KernelTrace()
    result = bfs(_graph_adjacency(), 0, trace=trace, pull_threshold=0.2)
    assert result.push_steps and result.pull_steps
    return trace


def _pagerank_trace() -> KernelTrace:
    trace = KernelTrace()
    pagerank(_graph_adjacency(), max_iterations=5, trace=trace)
    return trace


def _gnn_trace() -> KernelTrace:
    adjacency = _graph_adjacency()
    rng = np.random.default_rng(0)
    layer = GNNLayer(normalised_adjacency(adjacency),
                     rng.standard_normal((16, 8)))
    trace = KernelTrace()
    layer.forward(rng.standard_normal((adjacency.shape[0], 16)), trace=trace)
    two_hop(adjacency, trace=trace)
    return trace


TRACES = {
    "amg-pcg": _amg_pcg_trace,
    "bfs": _bfs_trace,
    "pagerank": _pagerank_trace,
    "gnn": _gnn_trace,
}


@pytest.fixture(scope="module")
def traces():
    return {app: build() for app, build in TRACES.items()}


def test_traces_cover_all_four_kernels(traces):
    kernels = set()
    for trace in traces.values():
        kernels |= set(trace.kernel_counts())
    assert kernels == {"spmv", "spmspv", "spmm", "spgemm"}


@pytest.mark.parametrize("stc_name", registered_stcs())
@pytest.mark.parametrize("app", sorted(TRACES))
def test_trace_graph_matches_per_invocation_loop(app, stc_name, traces):
    trace = traces[app]
    nodes = GraphRunner(trace.graph(app), create_stc(stc_name)).run().per_layer(0)
    legacy = simulate_trace_legacy(trace, create_stc(stc_name))
    assert len(nodes) == len(trace.ops)
    assert _digests(nodes) == [report_digest(r) for r in legacy]


@pytest.mark.parametrize("app", sorted(TRACES))
def test_trace_graph_structure(app, traces, monkeypatch):
    """A chain of one node per call; one weight tensor and one BBC
    encode per distinct matrix; SpGEMM outputs at their exact nnz."""
    trace = traces[app]
    encode = BBCMatrix.from_csr
    encoded = []
    monkeypatch.setattr(BBCMatrix, "from_csr", staticmethod(
        lambda m: encoded.append(m) or encode(m)))
    graph = trace.graph(app)

    matrices = {id(m): m for op in trace.ops
                for m in (op.a, op.b) if m is not None}
    assert sorted(map(id, encoded)) == sorted(matrices)
    weights = [t for t, spec in graph.tensors.items() if spec.kind == "weight"]
    assert len(weights) == len(matrices)
    assert graph.external_inputs() == weights

    assert [n.name for n in graph.schedule()] \
        == [f"{app}.{i}" for i in range(len(trace.ops))]
    for i, (node, op) in enumerate(zip(graph.nodes, trace.ops)):
        assert node.kernel == op.kernel
        assert node.operands["matrix"] == op.label
        if i:
            assert graph.nodes[i - 1].output in node.inputs
        assert graph.consumers(node.output) == (
            (graph.nodes[i + 1].name,) if i + 1 < len(graph.nodes) else ())
        out = graph.tensors[node.output]
        assert out.rows == op.a.shape[0]
        if op.kernel == "spgemm":
            b = op.a if op.b is None else op.b
            assert out.cols == b.shape[1]
            assert out.nnz == spgemm_output_nnz(node.a, node.operands["b"])
        else:
            assert out.dense
            assert out.cols == (op.b_cols if op.kernel == "spmm" else 1)
