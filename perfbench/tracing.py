"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code, around each call it
makes into a layer of the simulator: the benchmark hands the pipeline
proxies through its public parameters (``stc=``, ``cache=``, the
``BlockCache.store`` tier, ``energy_model=``) and, where the graph
runner exposes no parameter, rebinds the public function the runner
imported.  Nothing inside ``src/`` is instrumented.

Two kinds of span:

- a **span** (``span(layer, op)``) is a real interval: name, start,
  end, parent and case id, exported one-for-one to the trace file;
- a **tally** (``begin()`` / ``end(layer, op)``) times a call that runs
  hundreds of thousands of times per pass (block-cache and store
  lookups).  Tallies are folded into their enclosing span as one
  aggregated child per name (total time, call count, self time), which
  keeps the per-call cost to two clock reads and the span file small.

A span's *self* time is its duration minus the time its children
(spans and tallies) cover, so the self times of every record add up to
the duration of the root spans.  ``unattributed`` checks exactly
that; the self-test runs it.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Layers reported in the per-layer split, named after the modules.
#: ``bench`` is the benchmark's own case loop and never a layer.
LAYERS = ("formats", "kernels", "sim.blockcache", "store", "arch",
          "baselines", "sim.engine", "energy", "graph", "sim.memory")


def metric_name(name: str) -> str:
    """Sanitise an STC name for use inside a metric name.

    Metric names allow letters, digits, ``_``, ``.`` and ``-`` only, so
    ``nv-dtc-2:4`` becomes ``nv-dtc-2-4``.
    """
    return re.sub(r"[^A-Za-z0-9_.-]", "-", name)


def stc_layer(stc) -> str:
    """``arch`` for the Uni-STC model, ``baselines`` for the others."""
    return type(stc).__module__.split(".")[1]


class Record:
    """One finished span or one aggregated tally."""

    __slots__ = ("layer", "op", "start", "end", "sid", "parent", "case",
                 "self_s", "calls", "aggregated")

    def __init__(self, layer, op, start, end, sid, parent, case, self_s,
                 calls=1, aggregated=False):
        self.layer, self.op = layer, op
        self.start, self.end = start, end
        self.sid, self.parent, self.case = sid, parent, case
        self.self_s, self.calls, self.aggregated = self_s, calls, aggregated

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.op}"

    @property
    def duration(self) -> float:
        return self.end - self.start


def _add(tallies: dict, key, total: float, calls: int, self_s: float) -> None:
    slot = tallies.get(key)
    if slot is None:
        tallies[key] = [total, calls, self_s]
    else:
        slot[0] += total
        slot[1] += calls
        slot[2] += self_s


class Tracer:
    """Records spans and tallies of one traced pass, in memory."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.counts: Dict[str, float] = {}
        self.case: Optional[str] = None
        # Open frames: [layer, op, start, child_s, tallies, sid, parent].
        self._stack: List[list] = []
        self._next_sid = 0

    # -- spans -----------------------------------------------------------

    def _parent_sid(self) -> Optional[int]:
        return self._stack[-1][5] if self._stack else None

    @contextmanager
    def span(self, layer: str, op: str) -> Iterator[None]:
        sid = self._next_sid
        self._next_sid += 1
        depth = len(self._stack)
        self._stack.append([layer, op, perf_counter(), 0.0, None, sid,
                            self._parent_sid()])
        try:
            yield
        finally:
            end = perf_counter()
            # A raising tally inside this span leaves its frame open.
            del self._stack[depth + 1:]
            layer, op, start, child_s, tallies, sid, parent = self._stack.pop()
            self.records.append(Record(layer, op, start, end, sid, parent,
                                       self.case, end - start - child_s))
            for (t_layer, t_op), (total, calls, self_s) in (tallies or {}).items():
                self.records.append(Record(
                    t_layer, t_op, start, start + total, None, sid, self.case,
                    self_s, calls, aggregated=True))
            if self._stack:
                self._stack[-1][3] += end - start

    # -- tallies ---------------------------------------------------------

    def begin(self) -> None:
        self._stack.append([None, None, perf_counter(), 0.0, None, None, None])

    def end(self, layer: str, op: str) -> None:
        end = perf_counter()
        _, _, start, child_s, tallies, _, _ = self._stack.pop()
        frame = self._stack[-1]
        duration = end - start
        frame[3] += duration
        into = frame[4]
        if into is None:
            into = frame[4] = {}
        _add(into, (layer, op), duration, 1, duration - child_s)
        # Tallies nested in this one (store calls under a cache lookup)
        # move up to the enclosing frame with it.
        for key, (total, calls, self_s) in (tallies or {}).items():
            _add(into, key, total, calls, self_s)

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- summaries -------------------------------------------------------

    def self_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for rec in self.records:
            out[rec.layer] = out.get(rec.layer, 0.0) + rec.self_s
        return out

    def by_name(self) -> Dict[str, List[float]]:
        """Per span name: [self seconds, calls]."""
        out: Dict[str, List[float]] = {}
        for rec in self.records:
            slot = out.setdefault(rec.name, [0.0, 0])
            slot[0] += rec.self_s
            slot[1] += rec.calls
        return out

    def roots(self) -> List[Record]:
        return [r for r in self.records if r.parent is None]

    def unattributed(self, wall_s: float) -> float:
        """The traced wall time no layer span covers, in seconds.

        That is the gaps between root spans plus the self time of the
        benchmark's own ``bench`` spans, so the layers' self times plus
        it add up to ``wall_s``.  Raises ``ValueError`` if the self
        times do not add up to the root spans' durations (misnested or
        overlapping spans) or if those exceed the wall time.
        """
        root_s = sum(r.duration for r in self.roots())
        total_self = sum(r.self_s for r in self.records)
        tolerance = 1e-6 + 1e-9 * len(self.records)
        if abs(total_self - root_s) > tolerance:
            raise ValueError(f"self times {total_self:.9f}s != root spans "
                             f"{root_s:.9f}s")
        if root_s > wall_s + tolerance:
            raise ValueError(f"root spans {root_s:.9f}s exceed the traced "
                             f"wall {wall_s:.9f}s")
        return wall_s - sum(v for k, v in self.self_by_layer().items()
                            if k != "bench")

    # -- export ----------------------------------------------------------

    def write_chrome(self, path: Path, metadata: Dict[str, object]) -> None:
        """Write the spans as Chrome ``trace_event`` JSON (opens in Perfetto).

        Spans go on thread 1; each tally name gets a track of its own,
        with its per-parent aggregate drawn from the parent's start.
        """
        t0 = min((r.start for r in self.records), default=0.0)
        tracks: Dict[str, int] = {}
        events: List[Dict[str, object]] = [{
            "ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
            "args": {"name": "spans"},
        }]
        for rec in self.records:
            tid = 1
            if rec.aggregated:
                tid = tracks.get(rec.name)
                if tid is None:
                    tid = tracks[rec.name] = len(tracks) + 2
                    events.append({"ph": "M", "pid": 1, "tid": tid,
                                   "name": "thread_name",
                                   "args": {"name": f"{rec.name} (aggregated)"}})
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": rec.name,
                "cat": rec.layer,
                "ts": (rec.start - t0) * 1e6, "dur": rec.duration * 1e6,
                "args": {"case": rec.case, "self_us": rec.self_s * 1e6,
                         "calls": rec.calls},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "metadata": metadata}) + "\n")


# -- proxies handed to the pipeline through its public parameters --------


class TracedSTC:
    """An STC model whose ``simulate_blocks`` calls are spans."""

    def __init__(self, stc, tracer: Tracer) -> None:
        self._stc = stc
        self._tracer = tracer
        self.name = stc.name
        self._layer = stc_layer(stc)
        self._op = f"{metric_name(stc.name)}.simulate"
        self._blocks_key = f"{self._layer}.{metric_name(stc.name)}.blocks"

    def cache_key(self) -> str:
        return self._stc.cache_key()

    def simulate_blocks(self, tasks):
        self._tracer.count(self._blocks_key, len(tasks))
        with self._tracer.span(self._layer, self._op):
            return self._stc.simulate_blocks(tasks)

    def __getattr__(self, attr):
        return getattr(self._stc, attr)


class TracedCache:
    """A ``BlockCache`` stand-in whose lookups and inserts are tallies."""

    def __init__(self, cache, tracer: Tracer) -> None:
        self._cache = cache
        self._tracer = tracer

    @property
    def stats(self):
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, key):
        self._tracer.begin()
        result = self._cache.lookup(key)
        self._tracer.end("sim.blockcache", "lookup")
        return result

    def insert(self, key, result) -> None:
        self._tracer.begin()
        self._cache.insert(key, result)
        self._tracer.end("sim.blockcache", "insert")


class TracedStore:
    """A ``ResultStore`` stand-in for the ``BlockCache.store`` tier."""

    def __init__(self, store, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer

    def lookup(self, key):
        self._tracer.begin()
        result = self._store.lookup(key)
        self._tracer.end("store", "lookup")
        return result

    def insert(self, key, result):
        self._tracer.begin()
        written = self._store.insert(key, result)
        self._tracer.end("store", "insert")
        return written

    def __getattr__(self, attr):
        return getattr(self._store, attr)


class TracedEnergy:
    """An ``EnergyModel`` stand-in whose ``breakdown`` calls are spans."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer

    def breakdown(self, counters, stc_name):
        with self._tracer.span("energy", "price"):
            return self._model.breakdown(counters, stc_name)

    def __getattr__(self, attr):
        return getattr(self._model, attr)


def traced_simulate_kernel(tracer: Tracer):
    """A ``simulate_kernel`` split into its enumeration and engine calls.

    Enumeration is timed by calling ``kernel_task_batches`` directly
    and handing its batches to ``simulate_batches``, which is what
    ``simulate_kernel`` does on its default batched path.
    """
    from repro.energy.model import DEFAULT_MODEL
    from repro.kernels.batched import kernel_task_batches
    from repro.sim.engine import simulate_batches

    def simulate(kernel, a, stc, energy_model=DEFAULT_MODEL, matrix=None,
                 cache=None, **operands):
        with tracer.span("kernels", "enumerate"):
            batches = kernel_task_batches(kernel, a, **operands)
        tracer.count("kernels.t1_tasks", sum(b.total_tasks for b in batches))
        with tracer.span("sim.engine", "simulate_batches"):
            return simulate_batches(stc, batches, kernel=kernel.lower(),
                                    energy_model=energy_model, matrix=matrix,
                                    cache=cache)

    return simulate


def _timed(tracer: Tracer, layer: str, op: str, fn):
    def call(*args, **kwargs):
        with tracer.span(layer, op):
            return fn(*args, **kwargs)
    return call


def encode(coo, tracer: Optional[Tracer] = None):
    """``BBCMatrix.from_coo``, as a ``formats.encode`` span when traced."""
    from repro.formats.bbc import BBCMatrix

    if tracer is None:
        return BBCMatrix.from_coo(coo)
    tracer.count("formats.nnz", coo.nnz)
    with tracer.span("formats", "encode"):
        return BBCMatrix.from_coo(coo)


class _TracedBBC:
    """Stands in for ``BBCMatrix`` inside the graph builder's module."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def from_coo(self, coo):
        return encode(coo, self._tracer)

    def from_csr(self, csr):
        return encode(csr.to_coo(), self._tracer)


@contextmanager
def graph_hooks(tracer: Tracer) -> Iterator[None]:
    """Rebind the public functions ``repro.graph`` imported, for one pass.

    The graph runner has no parameter for its buffer planner, its DRAM
    traffic pricing or ``simulate_kernel``, nor the graph builder for
    its BBC encoder, so the names those modules imported are rebound to
    traced wrappers and restored on exit.
    """
    import repro.graph.build as build
    import repro.graph.runner as runner

    rebinds = [
        (runner, "simulate_kernel", traced_simulate_kernel(tracer)),
        (runner, "plan_buffers",
         _timed(tracer, "graph", "plan", runner.plan_buffers)),
        (runner, "kernel_traffic_bytes",
         _timed(tracer, "sim.memory", "traffic", runner.kernel_traffic_bytes)),
        (runner, "memory_cycles",
         _timed(tracer, "sim.memory", "cycles", runner.memory_cycles)),
        (runner, "spgemm_output_nnz",
         _timed(tracer, "sim.memory", "output_nnz", runner.spgemm_output_nnz)),
        (build, "BBCMatrix", _TracedBBC(tracer)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in rebinds]
    for module, name, value in rebinds:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
