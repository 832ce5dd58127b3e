"""Graph constructors for the apps' model families.

Each builder emits exactly the ``simulate_kernel`` invocations the
historic per-layer loops of ``repro.apps`` hand-rolled — same weights,
same operand seeds, same matrix labels — so the graph path's request-0
per-layer reports are byte-identical to the loops it replaced (kept as
the parity oracles of ``tests/test_graph_parity.py``).  On top
of that it declares the inter-layer tensors the loops could never
express, which is what the buffer model and edge-traffic accounting
consume.
"""

from __future__ import annotations

from typing import Optional

from repro.formats.bbc import BBCMatrix
from repro.formats.csr import CSRMatrix
from repro.graph.ir import GraphNode, ModelGraph, TensorSpec
from repro.workloads.dlmc import dlmc_corpus
from repro.workloads.dnn import ACTIVATION_SPARSITY, activation_matrix

#: Per-request activation-seed stride: request ``r`` of a batched run
#: draws conv activations at ``layer_seed + REQUEST_SEED_STRIDE * r``,
#: so request 0 reproduces the legacy single-request operands exactly.
REQUEST_SEED_STRIDE = 1000


def dnn_graph(
    model: str = "resnet50",
    sparsity: float = 0.70,
    scale: Optional[float] = None,
    seed: int = 11,
) -> ModelGraph:
    """The DNN forward pass as a chain graph.

    Linear layers are SpMM nodes (sparse weight x dense activation at
    the layer's width); conv layers are SpGEMM nodes against a seeded
    ReLU-sparse activation operand.  Layer ``i+1`` consumes layer
    ``i``'s output activation; weights are external (streamed) tensors.
    """
    graph = ModelGraph(model)
    corpus = dlmc_corpus(model, sparsity, scale=scale, seed=seed)
    first = corpus[0][0]
    previous = graph.add_tensor(TensorSpec(
        f"{model}.input", rows=first.k, cols=first.n, kind="input",
    )).name
    for i, (layer, weight) in enumerate(corpus):
        w_name = f"{layer.name}.w"
        graph.add_tensor(TensorSpec(
            w_name, rows=layer.m, cols=layer.k, nnz=weight.nnz,
            kind="weight",
        ))
        out_nnz = None
        if layer.kind != "linear":
            # Conv outputs are post-ReLU feature maps: half-sparse.
            out_nnz = int(layer.m * layer.n * (1.0 - ACTIVATION_SPARSITY))
        out_name = graph.add_tensor(TensorSpec(
            f"{layer.name}.out", rows=layer.m, cols=layer.n, nnz=out_nnz,
        )).name
        bbc = BBCMatrix.from_coo(weight)
        if layer.kind == "linear":
            node = GraphNode(
                name=layer.name, kernel="spmm", a=bbc,
                inputs=(previous, w_name), output=out_name,
                operands={"b_cols": layer.n, "matrix": layer.name},
            )
        else:
            layer_seed = seed + 100 + i

            def _acts(request: int, k=layer.k, n=layer.n, s=layer_seed):
                return {"b": activation_matrix(k, n, s + REQUEST_SEED_STRIDE * request)}

            node = GraphNode(
                name=layer.name, kernel="spgemm", a=bbc,
                inputs=(previous, w_name), output=out_name,
                operands={"matrix": layer.name},
                request_operands=_acts,
            )
        graph.add_node(node)
        previous = out_name
    return graph


def gnn_graph(
    a_hat: CSRMatrix,
    adjacency: CSRMatrix,
    feature_dim: int = 64,
    layers: int = 2,
) -> ModelGraph:
    """A GCN propagation stack plus the two-hop aggregation.

    ``layers`` SpMM nodes chain the feature tensor through the
    normalised adjacency; one SpGEMM node squares the raw adjacency
    (Table II's kernel pair).  The feature chain competes for the
    buffer; both adjacency structures stream as weights.
    """
    graph = ModelGraph("gnn")
    n = a_hat.shape[0]
    graph.add_tensor(TensorSpec(
        "gnn.a_hat", rows=n, cols=n, nnz=a_hat.nnz, kind="weight",
    ))
    graph.add_tensor(TensorSpec(
        "gnn.adjacency", rows=n, cols=n, nnz=adjacency.nnz, kind="weight",
    ))
    previous = graph.add_tensor(TensorSpec(
        "gnn.features", rows=n, cols=feature_dim, kind="input",
    )).name
    bbc_a_hat = BBCMatrix.from_csr(a_hat)
    for i in range(1, layers + 1):
        out = graph.add_tensor(TensorSpec(
            f"gnn.h{i}", rows=n, cols=feature_dim,
        )).name
        graph.add_node(GraphNode(
            name=f"gnn.propagate{i}", kernel="spmm", a=bbc_a_hat,
            inputs=(previous, "gnn.a_hat"), output=out,
            operands={"b_cols": feature_dim, "matrix": f"gnn.propagate{i}"},
        ))
        previous = out
    bbc_adj = BBCMatrix.from_csr(adjacency)
    two_hop_out = graph.add_tensor(TensorSpec(
        "gnn.two_hop.out", rows=n, cols=n, nnz=min(adjacency.nnz * 4, n * n),
    )).name
    graph.add_node(GraphNode(
        name="gnn.two_hop", kernel="spgemm", a=bbc_adj,
        inputs=("gnn.adjacency",), output=two_hop_out,
        operands={"b": bbc_adj, "matrix": "gnn.two_hop"},
    ))
    return graph
