"""The benchmark's workloads, built from one seed.

Every workload is a fixed list of *cases* run as one *pass*; a run
repeats passes until its time is up.  A case is one ``simulate_kernel``
call (one inference request on ``infer-stream``).  Every pass yields
per-case host latencies and a digest of each case's simulated report,
which :func:`check_pass` compares against the references.

Why these four (each stresses different layers; see README.md):

- ``cold-all``: every registered STC from a fresh cache, the first run
  of a paper figure or campaign; the STC models do most of the work.
- ``warm-lru``: uni-stc replayed from a pre-filled in-memory cache,
  the hot loop of a long-lived sweep; the models are never called.
- ``store-roundtrip``: a cold pass writing through a fresh result
  store, a reopen, and a replay served from the store alone.
- ``infer-stream``: batch-1 ResNet-50 requests on one shared cache,
  the only workload that runs ``repro.graph`` and ``sim.memory``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.energy.model import DEFAULT_MODEL
from repro.graph import GraphRunner, dnn_graph
from repro.kernels import KERNELS
from repro.kernels.vector import SparseVector
from repro.perf.bench import report_digest
from repro.registry import create_stc, registered_stcs
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.store import ResultStore
from repro.workloads.suitesparse import corpus

from hostspeed import HostSpeed
from tracing import (TracedCache, TracedEnergy, TracedSTC, TracedStore,
                     Tracer, encode, graph_hooks, metric_name, stc_layer,
                     traced_simulate_kernel)

#: Requests per ``infer-stream`` pass.
INFER_REQUESTS = 100


@dataclass(frozen=True)
class Seeds:
    """Every input seed, derived from the one workload seed."""

    corpus: int
    operands: int
    graph: int
    requests: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        state = np.random.SeedSequence(seed).generate_state(4)
        return cls(int(state[0]), int(state[1]), int(state[2] % 100_000),
                   int(state[3] % 100_000))


def stc_metric_prefixes() -> List[Tuple[str, str]]:
    """``(registry name, "<module>.<sanitised name>")`` per registered STC."""
    return [(name, f"{stc_layer(create_stc(name))}.{metric_name(name)}")
            for name in registered_stcs()]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    """One pass: host timings plus what the simulated reports say."""

    #: Host seconds of the pass, probes excluded, raw and scaled to the
    #: reference host speed (see hostspeed.py).
    wall_s: float = 0.0
    scaled_wall_s: float = 0.0
    case_ids: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    scaled_latencies: List[float] = field(default_factory=list)
    #: (start, end) host clock of every case, for the speed scaling.
    case_times: List[Tuple[float, float]] = field(default_factory=list)
    digests: List[Optional[str]] = field(default_factory=list)
    t1_tasks: int = 0
    cycles: int = 0
    energy_pj: float = 0.0
    #: Deterministic per-pass counts (graph nodes, DRAM bytes, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host seconds of named phases (store fill / reopen / replay).
    phases: Dict[str, float] = field(default_factory=dict)
    #: The tracer of a traced pass.
    tracer: Optional[Tracer] = None


class Workload:
    """Base class: a case list, a set-up, and a pass over the cases."""

    name = ""

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.seeds = Seeds.derive(seed)
        self.scratch = scratch
        self.speed = HostSpeed()
        #: In-process reference digests made in set-up, if any.
        self.setup_reference: Optional[List[str]] = None

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        raise NotImplementedError

    def timed_setup(self, tracer: Optional[Tracer] = None) -> Tuple[float, float]:
        """Set up once; (raw, scaled) host seconds, probes excluded."""
        self.speed.probe()
        spent = self.speed.spent
        t0 = perf_counter()
        self.setup(tracer)
        t1 = perf_counter()
        raw = t1 - t0 - (self.speed.spent - spent)
        self.speed.probe()
        return raw, raw * self.speed.scale(t0, t1)

    def timed_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        """One pass, probes excluded, with its host times also scaled."""
        self.speed.probe()
        spent = self.speed.spent
        result = self.run_pass(tracer)
        result.wall_s -= self.speed.spent - spent
        self.speed.probe()
        result.scaled_latencies = [
            latency * self.speed.scale(start, end)
            for latency, (start, end) in zip(result.latencies, result.case_times)]
        result.scaled_wall_s = result.wall_s * (
            sum(result.scaled_latencies) / sum(result.latencies))
        return result

    # -- shared helpers --------------------------------------------------

    def _case(self, out: PassResult, case_id: str, call: Callable[[], object],
              tracer: Optional[Tracer]):
        """Run and time one case; an exception records a failed case."""
        t0 = perf_counter()
        try:
            if tracer is None:
                report = call()
            else:
                tracer.case = case_id
                with tracer.span("bench", "case"):
                    report = call()
        except Exception:  # a case must not stop the run; it counts as failed
            traceback.print_exc(file=sys.stderr)
            report = None
        t1 = perf_counter()
        self.speed.tick()
        out.latencies.append(t1 - t0)
        out.case_times.append((t0, t1))
        out.case_ids.append(case_id)
        out.digests.append(None)
        return report


def _record(out: PassResult, reports) -> None:
    """Digest and total a pass's ``SimReport``s (``None``: the case raised)."""
    for slot, report in enumerate(reports):
        if report is None:
            continue
        out.digests[slot] = sha(report_digest(report))
        out.t1_tasks += report.t1_tasks
        out.cycles += report.cycles
        out.energy_pj += report.energy_pj


def _simulator(tracer: Optional[Tracer], stc, cache):
    """A ``simulate(kernel, bbc, operands)`` closure, traced or not."""
    if tracer is None:
        return lambda kernel, bbc, ops: simulate_kernel(
            kernel, bbc, stc, cache=cache, **ops)
    traced = traced_simulate_kernel(tracer)
    stc_proxy = TracedSTC(stc, tracer)
    cache_proxy = TracedCache(cache, tracer)
    energy = TracedEnergy(DEFAULT_MODEL, tracer)
    return lambda kernel, bbc, ops: traced(
        kernel, bbc, stc_proxy, energy_model=energy, cache=cache_proxy, **ops)


def _count_cache(tracer: Optional[Tracer], cache: BlockCache, before) -> None:
    if tracer is not None:
        delta = cache.stats.delta(before)
        tracer.count("sim.blockcache.hits", delta.hits)
        tracer.count("sim.blockcache.evictions", delta.evictions)


class CorpusWorkload(Workload):
    """A workload whose cases are ``simulate_kernel`` calls over a corpus."""

    def _corpus_cases(self, sizes: Tuple[int, ...], tracer: Optional[Tracer]):
        """Generate and encode the seeded corpus.

        Cases are ``(id, kernel, bbc, operands)``, matrices outer.
        """
        specs = corpus(sizes=sizes, limit=2 if self.tiny else None,
                       seed=self.seeds.corpus)
        cases = []
        for i, spec in enumerate(specs):
            bbc = encode(spec.matrix(), tracer)
            for kernel in KERNELS:
                cases.append((f"{kernel}/{spec.name}", kernel, bbc,
                              self._operands(kernel, bbc, i)))
        return cases

    def _operands(self, kernel: str, bbc, index: int) -> Dict[str, object]:
        if kernel == "spmspv":
            rng = np.random.default_rng([self.seeds.operands, index])
            n = bbc.shape[1]
            dense = rng.random(n) * (rng.random(n) < 0.5)
            return {"x": SparseVector.from_dense(dense)}
        if kernel == "spmm":
            return {"b_cols": 64}
        return {}

    def _sweep(self, out: PassResult, stc, cache: BlockCache,
               tracer: Optional[Tracer], prefix: str = "") -> list:
        """Run every case once; the reports, to digest after the timing."""
        before = cache.stats.snapshot()
        simulate = _simulator(tracer, stc, cache)
        reports = [self._case(out, prefix + case_id,
                              lambda: simulate(kernel, bbc, ops), tracer)
                   for case_id, kernel, bbc, ops in self.cases]
        _count_cache(tracer, cache, before)
        return reports


class ColdAll(CorpusWorkload):
    """Every registered STC x 4 kernels x corpus(sizes=(128,)), cold."""

    name = "cold-all"

    def setup(self, tracer=None):
        self.cases = self._corpus_cases((128,), tracer)
        self.stcs = registered_stcs()

    def run_pass(self, tracer=None):
        out = PassResult(tracer=tracer)
        reports = []
        t0 = perf_counter()
        for stc_name in self.stcs:
            reports += self._sweep(out, create_stc(stc_name), BlockCache(),
                                   tracer, f"{stc_name}/")
        out.wall_s = perf_counter() - t0
        _record(out, reports)
        return out


class WarmLRU(CorpusWorkload):
    """uni-stc x 4 kernels x corpus(sizes=(128,256,512)) from a warm LRU."""

    name = "warm-lru"

    def setup(self, tracer=None):
        sizes = (128,) if self.tiny else (128, 256, 512)
        self.cases = self._corpus_cases(sizes, tracer)
        self.stc = create_stc("uni-stc")
        self.cache = BlockCache()
        # The pre-fill is the cold pass; its digests are the reference
        # every timed (warm) pass must reproduce.
        cold = PassResult()
        _record(cold, self._sweep(cold, self.stc, self.cache, None))
        self.setup_reference = cold.digests

    def run_pass(self, tracer=None):
        out = PassResult(tracer=tracer)
        t0 = perf_counter()
        reports = self._sweep(out, self.stc, self.cache, tracer)
        out.wall_s = perf_counter() - t0
        _record(out, reports)
        return out


class StoreRoundtrip(CorpusWorkload):
    """uni-stc x 4 kernels x corpus(sizes=(128,256)) through a result store.

    One pass: a cold fill writing through a fresh ``ResultStore``,
    ``flush`` + ``close`` + reopen (the index scan a new process pays),
    then a replay with an empty LRU served entirely from the store.
    """

    name = "store-roundtrip"

    def setup(self, tracer=None):
        sizes = (128,) if self.tiny else (128, 256)
        self.cases = self._corpus_cases(sizes, tracer)
        self.stc = create_stc("uni-stc")
        # In-memory cold and warm passes: the reference digests, and the
        # no-store times the store's fill and replay are compared with.
        cache = BlockCache()
        cold = PassResult()
        t0 = perf_counter()
        reports = self._sweep(cold, self.stc, cache, None)
        t1 = perf_counter()
        self._sweep(PassResult(), self.stc, cache, None)
        self.nostore = {"cold_s": t1 - t0, "warm_s": perf_counter() - t1}
        _record(cold, reports)
        self.setup_reference = cold.digests * 2
        self._passes = 0

    def _open(self, root: Path, tracer):
        if tracer is None:
            return ResultStore(root)
        with tracer.span("store", "open"):
            return ResultStore(root)

    def _close(self, store, tracer):
        if tracer is None:
            store.flush()
            store.close()
            return
        with tracer.span("store", "flush"):
            store.flush()
            store.close()

    def _tier(self, store, tracer):
        return store if tracer is None else TracedStore(store, tracer)

    def run_pass(self, tracer=None):
        # Each pass gets a fresh store directory; all of them are removed
        # with the run's scratch directory, since deleting 24 MB between
        # passes puts the file system's cleanup into the next pass.
        self._passes += 1
        root = self.scratch / f"store-{self._passes}"
        out = PassResult(tracer=tracer)
        t0 = perf_counter()
        store = self._open(root, tracer)
        fill = self._sweep(out, self.stc, BlockCache(store=self._tier(store, tracer)),
                           tracer, "fill/")
        self._close(store, tracer)
        t1 = perf_counter()
        appends = store.stats.appends
        store = self._open(root, tracer)
        t2 = perf_counter()
        before = store.stats.snapshot()
        replay = self._sweep(out, self.stc,
                             BlockCache(store=self._tier(store, tracer)),
                             tracer, "replay/")
        self._close(store, tracer)
        t3 = perf_counter()
        out.wall_s = t3 - t0
        out.phases = {"fill_s": t1 - t0, "reopen_s": t2 - t1,
                      "replay_s": t3 - t2}
        _record(out, fill + replay)
        for slot, report in enumerate(replay, start=len(fill)):
            # A replayed case that missed the store re-simulated: a keying bug.
            if report is not None and report.cache.get("store_misses", 0):
                out.digests[slot] = "store-miss"
        served = store.stats.delta(before)
        out.counts = {"store.hits": served.hits,
                      "store.replay_lookups": served.lookups,
                      "store.served_bytes": served.served_bytes,
                      "store.appends": appends,
                      "store.bytes": store.bytes}
        return out


def _hooks(tracer: Optional[Tracer]):
    return nullcontext() if tracer is None else graph_hooks(tracer)


class InferStream(Workload):
    """A stream of batch-1 ResNet-50 requests on uni-stc, one shared cache."""

    name = "infer-stream"

    def setup(self, tracer=None):
        scale = 0.05 if self.tiny else 0.125
        self.requests = 3 if self.tiny else INFER_REQUESTS
        with _hooks(tracer):
            self.graph = dnn_graph("resnet50", scale=scale, seed=self.seeds.graph)
        self.stc = create_stc("uni-stc")

    def run_pass(self, tracer=None):
        out = PassResult(tracer=tracer)
        cache = BlockCache()
        before = cache.stats.snapshot()
        base = self.seeds.requests
        if tracer is None:
            stc, memo, energy = self.stc, cache, DEFAULT_MODEL
        else:
            stc = TracedSTC(self.stc, tracer)
            memo = TracedCache(cache, tracer)
            energy = TracedEnergy(DEFAULT_MODEL, tracer)

        def request(r):
            runner = GraphRunner(self.graph, stc, batch=1, request_offset=r,
                                 cache=memo, energy_model=energy)
            if tracer is None:
                return runner.run()
            with tracer.span("graph", "run"):
                return runner.run()

        t0 = perf_counter()
        with _hooks(tracer):
            reports = [self._case(out, f"request/{r}", lambda: request(r), tracer)
                       for r in range(base, base + self.requests)]
        out.wall_s = perf_counter() - t0
        _count_cache(tracer, cache, before)
        nodes = dram = resident = edges = 0
        for slot, report in enumerate(reports):
            if report is None:
                continue
            out.digests[slot] = sha(json.dumps([
                [n.node, n.request, report_digest(n.report), n.memory_cycles,
                 sorted(n.traffic.items()), n.read_resident, n.write_resident]
                for n in report.nodes]))
            out.t1_tasks += sum(n.report.t1_tasks for n in report.nodes)
            out.cycles += report.e2e_latency
            out.energy_pj += report.e2e_energy_pj
            nodes += len(report.nodes)
            dram += report.dram_traffic_bytes
            resident += len(report.plan.resident)
            edges += len(report.plan.resident) + len(report.plan.spilled)
        out.counts = {"graph.nodes_run": nodes, "sim.memory.dram_bytes": dram,
                      "graph.resident_edge_frac": resident / edges if edges else 0.0}
        return out


WORKLOADS = {w.name: w for w in (ColdAll, WarmLRU, StoreRoundtrip, InferStream)}


# -- output checks ---------------------------------------------------------


def check_pass(result: PassResult, references: List[List[str]]) -> List[int]:
    """The slots of the pass's failed cases, checked against every reference.

    A case fails if it raised (no digest) or if its digest differs from
    a reference's entry at the same position; a reference may hold full
    digests or short prefixes.  A reference of the wrong length fails
    every case.
    """
    failed = []
    for slot, digest in enumerate(result.digests):
        bad = digest is None
        for ref in references:
            if bad:
                break
            bad = (len(ref) != len(result.digests) or ref[slot] is None
                   or not digest.startswith(ref[slot]))
        if bad:
            failed.append(slot)
    return failed


REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: Hex characters of each case digest kept in a committed reference.
REFERENCE_CHARS = 8


def load_reference(workload: str, seed: int) -> Optional[List[str]]:
    """Committed per-case digest prefixes for ``seed``, if recorded."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    blob = json.loads(path.read_text()).get("seeds", {}).get(str(seed))
    if blob is None:
        return None
    return [blob[i:i + REFERENCE_CHARS]
            for i in range(0, len(blob), REFERENCE_CHARS)]


def save_reference(workload: str, seed: int, result: PassResult) -> None:
    """Record one pass's digests as the committed reference for ``seed``."""
    if any(d is None for d in result.digests):
        raise RuntimeError("refusing to record a reference from a failed pass")
    path = REFERENCE_DIR / f"{workload}.json"
    data = json.loads(path.read_text()) if path.is_file() else {
        "workload": workload,
        "digest": (f"first {REFERENCE_CHARS} hex chars of sha256 over "
                   "repro.perf.bench.report_digest per case, in case order"),
        "seeds": {},
    }
    data["seeds"][str(seed)] = "".join(d[:REFERENCE_CHARS] for d in result.digests)
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")
