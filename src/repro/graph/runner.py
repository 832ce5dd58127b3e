"""The graph runner: topological end-to-end simulation with batching.

``GraphRunner`` walks a :class:`~repro.graph.ir.ModelGraph` in schedule
order, ``batch`` requests deep, pushing every node through the same
``simulate_kernel`` fastpath the apps always used — so the shared
:class:`~repro.sim.blockcache.BlockCache` (and any bound
:class:`~repro.store.ResultStore` tier) amortises identical tile
patterns across layers *and* across requests.  Each request runs inside
one :func:`~repro.sim.engine.miss_pool`: its nodes' ``simulate_kernel``
calls only probe the memo, and the pool simulates the request's misses
together when it closes (one ``simulate_blocks`` call per model and B
width, a pair shared by two nodes once).  A node's report is complete
only after that, so the runner prices traffic afterwards.  Request 0
reproduces the legacy per-layer loops bit for bit; later requests vary
only where the model's operands genuinely vary (fresh conv activations
per request).

On top of the untouched per-node reports it overlays the system story:
the buffer plan decides which inter-layer activations stay on chip,
:func:`~repro.sim.memory.kernel_traffic_bytes` prices each node's DRAM
traffic with resident edges zeroed, and the :class:`ModelReport`
aggregates end-to-end latency (compute/memory overlap per node),
energy (compute + DRAM), and traffic — the objectives ``repro.dse``
can now target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.arch.base import STCModel
from repro.energy.model import DEFAULT_MODEL, EnergyModel
from repro.errors import GraphError
from repro.graph.buffer import DEFAULT_BUFFER_KIB, BufferPlan, plan_buffers
from repro.graph.ir import GraphNode, ModelGraph
from repro.sim.blockcache import BlockCache
from repro.sim.engine import get_cache, miss_pool, simulate_kernel
from repro.sim.memory import (
    DEFAULT_MEMORY,
    MemoryConfig,
    dram_energy_pj,
    kernel_traffic_bytes,
    memory_cycles,
    spgemm_output_nnz,
)
from repro.sim.results import SimReport


@dataclass
class NodeResult:
    """One node of one request: the kernel report plus its edge story."""

    node: str
    kernel: str
    request: int
    report: SimReport
    traffic: Dict[str, float] = field(default_factory=dict)
    memory_cycles: int = 0
    read_resident: bool = False
    write_resident: bool = False

    @property
    def compute_cycles(self) -> int:
        return int(self.report.cycles)

    @property
    def latency_cycles(self) -> int:
        """Wall cycles with perfect compute/memory overlap."""
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def dram_bytes(self) -> float:
        return sum(self.traffic.values())

    @property
    def energy_pj(self) -> float:
        """Compute energy plus the DRAM cost of this node's traffic."""
        return float(self.report.energy_pj) + dram_energy_pj(self.traffic)


@dataclass
class ModelReport:
    """Whole-model, whole-batch outcome on one simulated device."""

    model: str
    stc: str
    batch: int
    buffer_bytes: int
    plan: BufferPlan
    nodes: List[NodeResult] = field(default_factory=list)
    #: Block-cache counter deltas over the whole run (all requests).
    cache: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0

    # -- end-to-end aggregates (integer domain where counts live) -------

    @property
    def e2e_compute_cycles(self) -> int:
        return sum(n.compute_cycles for n in self.nodes)

    @property
    def e2e_compute_energy_pj(self) -> float:
        """Compute energy summed over the nodes, without DRAM."""
        return sum(float(n.report.energy_pj) for n in self.nodes)

    def kernel_cycles(self) -> Dict[str, int]:
        """Compute cycles summed per kernel."""
        out: Dict[str, int] = {}
        for n in self.nodes:
            out[n.kernel] = out.get(n.kernel, 0) + n.compute_cycles
        return out

    @property
    def e2e_latency(self) -> int:
        """Sequential end-to-end latency: per-node compute/memory max."""
        return sum(n.latency_cycles for n in self.nodes)

    @property
    def e2e_energy_pj(self) -> float:
        return sum(n.energy_pj for n in self.nodes)

    @property
    def dram_traffic_bytes(self) -> float:
        return sum(n.dram_bytes for n in self.nodes)

    @property
    def cache_hit_rate(self) -> float:
        return float(self.cache.get("hit_rate", 0.0))

    def per_layer(self, request: int = 0) -> List[NodeResult]:
        """One request's node results in schedule order."""
        return [n for n in self.nodes if n.request == request]

    def as_json(self) -> Dict[str, object]:
        """The serialisable report the CLI and CI consume."""
        return {
            "kind": "repro.model_report",
            "model": self.model,
            "stc": self.stc,
            "batch": self.batch,
            "buffer_bytes": self.buffer_bytes,
            "e2e_compute_cycles": self.e2e_compute_cycles,
            "e2e_latency": self.e2e_latency,
            "e2e_energy_pj": self.e2e_energy_pj,
            "dram_traffic_bytes": self.dram_traffic_bytes,
            "buffer": self.plan.as_dict(),
            "cache": dict(self.cache),
            "wall_s": self.wall_s,
            "nodes": [
                {
                    "node": n.node,
                    "kernel": n.kernel,
                    "request": n.request,
                    "cycles": n.compute_cycles,
                    "memory_cycles": n.memory_cycles,
                    "latency_cycles": n.latency_cycles,
                    "energy_pj": n.energy_pj,
                    "dram_bytes": n.dram_bytes,
                    "read_resident": n.read_resident,
                    "write_resident": n.write_resident,
                }
                for n in self.nodes
            ],
        }

    def write_json(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.as_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def objectives(self, area_mm2: Optional[float] = None) -> Dict[str, float]:
        """The end-to-end objective vector DSE frontiers minimise."""
        out = {
            "e2e_latency": float(self.e2e_latency),
            "e2e_energy": float(self.e2e_energy_pj),
        }
        if area_mm2 is not None:
            out["area_mm2"] = float(area_mm2)
        return out


@dataclass
class GraphRunner:
    """Schedule one graph through one STC, ``batch`` requests deep."""

    graph: ModelGraph
    stc: STCModel
    batch: int = 1
    buffer_bytes: int = DEFAULT_BUFFER_KIB * 1024
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL
    memory: MemoryConfig = DEFAULT_MEMORY
    cache: Optional[BlockCache] = None
    #: First request index simulated; requests span
    #: ``[request_offset, request_offset + batch)``.  Lets a sharded
    #: deployment (or the bench's sequential baseline) simulate request
    #: ``r`` standalone with exactly the operands the batched run gives
    #: it.
    request_offset: int = 0

    def run(self) -> ModelReport:
        from time import perf_counter

        if self.batch < 1:
            raise GraphError(f"batch must be >= 1, got {self.batch}")
        order = self.graph.schedule()
        plan = plan_buffers(self.graph, self.buffer_bytes)
        memo = self.cache if self.cache is not None else get_cache()
        stats_before = memo.stats.snapshot()
        report = ModelReport(
            model=self.graph.name, stc=self.stc.name, batch=self.batch,
            buffer_bytes=self.buffer_bytes, plan=plan,
        )
        t0 = perf_counter()
        with obs.span("graph.run", graph=self.graph.name, stc=self.stc.name,
                      batch=self.batch, nodes=len(order)):
            for request in range(self.request_offset,
                                 self.request_offset + self.batch):
                report.nodes.extend(self._run_request(order, request, plan))
        report.wall_s = perf_counter() - t0
        report.cache = memo.stats.delta(stats_before).as_dict()
        if obs.enabled():
            labels = {"graph": self.graph.name, "stc": self.stc.name}
            obs.inc("graph.requests", self.batch, **labels)
            obs.inc("graph.e2e_latency", report.e2e_latency, **labels)
            obs.inc("graph.dram_bytes", report.dram_traffic_bytes, **labels)
        return report

    # -- internals -------------------------------------------------------

    def _run_request(self, order: List[GraphNode], request: int,
                     plan: BufferPlan) -> List[NodeResult]:
        """One request: every node's kernel in one miss pool, then pricing."""
        calls: List[Tuple[GraphNode, dict, SimReport]] = []
        with miss_pool():
            for node in order:
                kwargs = node.operand_kwargs(request)
                with obs.span("graph.node", graph=self.graph.name,
                              node=node.name, kernel=node.kernel,
                              request=request):
                    sim = simulate_kernel(
                        node.kernel, node.a, self.stc,
                        energy_model=self.energy_model, cache=self.cache,
                        **kwargs,
                    )
                calls.append((node, kwargs, sim))
        return [self._price_node(node, request, plan, kwargs, sim)
                for node, kwargs, sim in calls]

    def _price_node(self, node: GraphNode, request: int, plan: BufferPlan,
                    kwargs: dict, sim: SimReport) -> NodeResult:
        """A node's traffic and memory cycles, from its finished report."""
        read_resident = any(
            plan.is_resident(t) for t in node.inputs
            if self.graph.producer(t) is not None
        )
        write_resident = (node.output is not None
                          and plan.is_resident(node.output))
        resident = set()
        if read_resident:
            resident.add("read_b")
        if write_resident:
            resident.add("write_c")
        if node.kernel == "spgemm":
            c_writes = float(spgemm_output_nnz(node.a, kwargs.get("b"), flops=sim.products))
        else:
            c_writes = sim.counters.get("c_elem_writes")
        traffic = kernel_traffic_bytes(
            node.kernel, node.a,
            b=kwargs.get("b"),
            b_cols=kwargs.get("b_cols", 64),
            x=kwargs.get("x"),
            c_writes=c_writes,
            resident=resident,
        )
        result = NodeResult(
            node=node.name, kernel=node.kernel, request=request,
            report=sim, traffic=traffic,
            memory_cycles=memory_cycles(traffic, self.memory),
            read_resident=read_resident, write_resident=write_resident,
        )
        if obs.enabled():
            labels = {"graph": self.graph.name, "stc": self.stc.name,
                      "node": node.name}
            obs.inc("graph.node.cycles", result.compute_cycles, **labels)
            obs.inc("graph.node.dram_bytes", result.dram_bytes, **labels)
            obs.inc("graph.node.runs", 1, **labels)
        return result
