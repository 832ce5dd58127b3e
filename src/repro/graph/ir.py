"""The model-graph IR: typed tensors, kernel nodes, topological order.

A :class:`ModelGraph` is the schedulable form of a whole model: nodes
are kernel invocations (exactly the arguments the apps used to pass to
``simulate_kernel`` by hand), edges are the named operand tensors that
flow between them.  SCALE-Sim-style end-to-end simulation needs the
schedule to be a first-class object — the runner walks the topological
order, the buffer model reads tensor liveness off it, and batching
replays it per request — so the IR keeps all three views (nodes,
tensors, producer/consumer maps) consistent under one validator.

Tensors are *declared* sizes: the simulator's operands stay synthetic
(seeded weights and activations), but the IR records the logical shape
and byte volume of every edge so inter-layer buffer residency and DRAM
edge traffic can be accounted without touching per-kernel results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GraphError

#: Bytes per stored value (FP64, matching ``sim.memory._VALUE_BYTES``).
VALUE_BYTES = 8
#: Bytes per sparse index (column id, matching the traffic model).
INDEX_BYTES = 4


@dataclass(frozen=True)
class TensorSpec:
    """One named edge tensor with a declared logical size.

    ``nnz`` of ``None`` means dense (``rows x cols`` values); a sparse
    tensor stores one value plus one index per nonzero.
    """

    name: str
    rows: int
    cols: int
    nnz: Optional[int] = None
    kind: str = "activation"   # "activation" | "weight" | "input" | "output"

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise GraphError(f"tensor {self.name!r} has non-positive shape "
                             f"({self.rows} x {self.cols})")
        if self.nnz is not None and not 0 <= self.nnz <= self.rows * self.cols:
            raise GraphError(f"tensor {self.name!r} nnz {self.nnz} outside "
                             f"[0, {self.rows * self.cols}]")

    @property
    def dense(self) -> bool:
        return self.nnz is None

    def nbytes(self) -> int:
        """Declared byte volume (what residency/spill decisions weigh)."""
        if self.nnz is None:
            return self.rows * self.cols * VALUE_BYTES
        return self.nnz * (VALUE_BYTES + INDEX_BYTES)


@dataclass
class GraphNode:
    """One kernel invocation: the exact ``simulate_kernel`` call.

    ``operands`` are the request-independent keyword arguments
    (``b_cols``, ``b``, ``x``, ``matrix``); ``request_operands``, when
    set, is called with the request index and its result overrides
    ``operands`` for that request — request 0 must reproduce the legacy
    single-request operands exactly (the parity contract).
    """

    name: str
    kernel: str
    a: object                    # BBCMatrix weight/adjacency operand
    inputs: Tuple[str, ...] = ()
    output: Optional[str] = None
    operands: Dict[str, object] = field(default_factory=dict)
    request_operands: Optional[Callable[[int], Dict[str, object]]] = None

    def operand_kwargs(self, request: int = 0) -> Dict[str, object]:
        """The ``simulate_kernel`` keyword arguments for one request."""
        kwargs = dict(self.operands)
        if self.request_operands is not None:
            kwargs.update(self.request_operands(request))
        return kwargs


class ModelGraph:
    """Nodes + tensors + producer/consumer maps, kept consistent."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[GraphNode] = []
        self.tensors: Dict[str, TensorSpec] = {}
        self._producer: Dict[str, str] = {}      # tensor -> node name
        self._consumers: Dict[str, List[str]] = {}
        self._by_name: Dict[str, GraphNode] = {}

    # -- construction ----------------------------------------------------

    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        if spec.name in self.tensors:
            raise GraphError(f"tensor {spec.name!r} declared twice")
        self.tensors[spec.name] = spec
        self._consumers.setdefault(spec.name, [])
        return spec

    def add_node(self, node: GraphNode) -> GraphNode:
        if node.name in self._by_name:
            raise GraphError(f"node {node.name!r} declared twice")
        for name in node.inputs:
            if name not in self.tensors:
                raise GraphError(f"node {node.name!r} consumes undeclared "
                                 f"tensor {name!r}")
        if node.output is not None:
            if node.output not in self.tensors:
                raise GraphError(f"node {node.name!r} produces undeclared "
                                 f"tensor {node.output!r}")
            if node.output in self._producer:
                raise GraphError(
                    f"tensor {node.output!r} has two producers "
                    f"({self._producer[node.output]!r} and {node.name!r})")
            self._producer[node.output] = node.name
        for name in node.inputs:
            self._consumers[name].append(node.name)
        self.nodes.append(node)
        self._by_name[node.name] = node
        return node

    # -- queries ---------------------------------------------------------

    def node(self, name: str) -> GraphNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"no node named {name!r}") from None

    def producer(self, tensor: str) -> Optional[str]:
        """Producing node name, or ``None`` for an external input."""
        return self._producer.get(tensor)

    def consumers(self, tensor: str) -> Tuple[str, ...]:
        return tuple(self._consumers.get(tensor, ()))

    def external_inputs(self) -> List[str]:
        """Tensors no node produces (model inputs, streamed weights)."""
        return [t for t in self.tensors if t not in self._producer]

    def terminal_outputs(self) -> List[str]:
        """Produced tensors no node consumes (the model's results)."""
        return [t for t in self._producer if not self._consumers.get(t)]

    def edges(self) -> List[Tuple[str, str, str]]:
        """(producer node, consumer node, tensor) for internal edges."""
        out = []
        for tensor, producer in self._producer.items():
            for consumer in self._consumers.get(tensor, ()):
                out.append((producer, consumer, tensor))
        return out

    # -- scheduling ------------------------------------------------------

    def schedule(self) -> List[GraphNode]:
        """Deterministic Kahn topological order.

        Ready nodes are emitted in insertion order (stable across runs
        and processes — the parity and resume contracts rely on it).
        Raises :class:`GraphError` on a dependency cycle.
        """
        indegree: Dict[str, int] = {}
        for node in self.nodes:
            indegree[node.name] = sum(
                1 for t in node.inputs if t in self._producer
            )
        emitted: List[GraphNode] = []
        done: set = set()
        while len(emitted) < len(self.nodes):
            progressed = False
            for node in self.nodes:
                if node.name in done or indegree[node.name] > 0:
                    continue
                emitted.append(node)
                done.add(node.name)
                progressed = True
                if node.output is not None:
                    for consumer in self._consumers.get(node.output, ()):
                        indegree[consumer] -= 1
            if not progressed:
                stuck = sorted(n.name for n in self.nodes
                               if n.name not in done)
                raise GraphError(f"dependency cycle among nodes {stuck}")
        return emitted

    def validate(self) -> None:
        """Structural sanity: schedulable, no dangling declarations."""
        self.schedule()

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (f"ModelGraph({self.name!r}, nodes={len(self.nodes)}, "
                f"tensors={len(self.tensors)})")
