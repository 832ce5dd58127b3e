"""Kernel-operation traces: what an application asks of the tensor core.

Applications (AMG, CG, BFS, PageRank, GNN) record every sparse-kernel
invocation.  :meth:`KernelTrace.graph` lowers a trace to a chain
:class:`~repro.graph.ir.ModelGraph` that
:class:`~repro.graph.runner.GraphRunner` runs on each STC, which yields
the application-level totals of Fig. 21 (AMG) and Table II without
re-running the numerics per architecture.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.formats.bbc import BBCMatrix
from repro.formats.csr import CSRMatrix
from repro.graph.ir import GraphNode, ModelGraph, TensorSpec
from repro.kernels.vector import SparseVector
from repro.sim.memory import spgemm_output_nnz


@dataclass
class TraceOp:
    """One recorded kernel invocation."""

    kernel: str
    a: CSRMatrix
    x: Optional[SparseVector] = None
    b: Optional[CSRMatrix] = None
    b_cols: int = 64
    label: str = ""


@dataclass
class KernelTrace:
    """An append-only log of kernel invocations, one op per call."""

    ops: List[TraceOp] = field(default_factory=list)

    def record(self, kernel: str, a: CSRMatrix, **operands) -> None:
        self.ops.append(TraceOp(kernel, a, **operands))

    def kernel_counts(self) -> Dict[str, int]:
        """Invocations per kernel."""
        return dict(Counter(op.kernel for op in self.ops))

    def graph(self, name: str) -> ModelGraph:
        """Lower the trace to a chain graph, one node per call.

        Node ``f"{name}.{i}"`` consumes node ``i - 1``'s output and one
        weight tensor per operand matrix; each distinct matrix (by
        identity) is BBC-encoded once.  Outputs are declared at their
        logical shape, SpGEMM's at its exact structural nnz.
        """
        graph = ModelGraph(name)
        weights: Dict[int, Tuple[BBCMatrix, str]] = {}

        def weight(m: CSRMatrix) -> Tuple[BBCMatrix, str]:
            if id(m) not in weights:
                tensor = TensorSpec(f"{name}.w{len(weights)}", *m.shape,
                                    nnz=m.nnz, kind="weight")
                weights[id(m)] = (BBCMatrix.from_csr(m),
                                  graph.add_tensor(tensor).name)
            return weights[id(m)]

        previous: Tuple[str, ...] = ()
        for i, op in enumerate(self.ops):
            a, a_name = weight(op.a)
            operands: Dict[str, object] = {"matrix": op.label}
            inputs = (a_name,)
            cols, nnz = 1, None          # a dense vector (SpMV, SpMSpV)
            if op.kernel == "spmspv":
                operands["x"] = op.x
            elif op.kernel == "spmm":
                operands["b_cols"] = cols = op.b_cols
            elif op.kernel == "spgemm":
                b, b_name = weight(op.a if op.b is None else op.b)
                operands["b"] = b
                if b_name != a_name:
                    inputs += (b_name,)
                cols, nnz = b.shape[1], spgemm_output_nnz(a, b)
            output = graph.add_tensor(TensorSpec(
                f"{name}.{i}.out", a.shape[0], cols, nnz=nnz)).name
            graph.add_node(GraphNode(
                f"{name}.{i}", op.kernel, a, inputs=previous + inputs,
                output=output, operands=operands,
            ))
            previous = (output,)
        return graph
