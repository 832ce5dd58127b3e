"""Wall-clock microbenchmarks for the engine's hot paths.

Sections, mirroring where corpus sweeps actually spend time:

- **encode** — COO -> BBC conversion over the corpus;
- **enumeration** — per-kernel ``kernel_task_batches`` plus
  ``coalesce_raw``: the weighted unique-pair stream the engine
  consumes, at its full cost;
- **corpus_sweep** — end-to-end ``simulate_kernel`` over the corpus,
  cold (a fresh block cache) vs LRU-warm (the cache the cold pass
  filled), with the per-case report-digest identity of the two;
- **obs** — the observability layer's cost: warm sweep with tracing
  off vs on, plus the dormant null-span fast path measured directly
  (the <2%-when-disabled budget from ``docs/observability.md``);
- **telemetry** — streaming telemetry's cost on the warm sweep: what
  it adds to a worker's per-case journal append (the record's stamp
  and metrics delta), per-emit cost measured directly and the <2%
  budget asserted on the deterministic emits x cost estimate;
- **store** — the persistent result store as the block cache's second
  tier (:mod:`repro.store`): a cold sweep populating a fresh store vs
  a warm sweep replaying from it with an empty process-local LRU —
  hit rate, bytes served, and the per-case report-digest identity the
  replay claims;
- **infer** — batched end-to-end inference through :mod:`repro.graph`
  vs the same requests on independent devices.

Timing is best-of-``repeat`` wall seconds (``time.perf_counter``);
best-of suppresses scheduler noise without needing a quiet machine.
Every sweep runs uni-stc through the one engine path, over the one
case list :func:`_cases` builds.  The identity checks digest reports
kept from the timed passes *after* timing, so no timed region pays for
its own check: a benchmark that got faster by computing something else
is a bug, not a win.  (The stepped per-object oracle the vectorised
path is checked against lives in the test suite.)

``run_bench`` returns the report as a dict and optionally writes it as
JSON; the CLI front-end is ``repro bench``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar, Union)

import numpy as np

from repro import obs
from repro.formats.bbc import BBCMatrix
from repro.kernels import KERNELS
from repro.kernels.batched import coalesce_raw, kernel_task_batches
from repro.kernels.vector import SparseVector
from repro.registry import create_stc
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.sim.results import HOST_FIELDS, SimReport
from repro.workloads.suitesparse import MatrixSpec, corpus

#: Report schema version; bump when the JSON layout changes.
BENCH_SCHEMA = 6

#: One sweep case: (matrix name, BBC operand, kernel, kernel operands).
Case = Tuple[str, BBCMatrix, str, Dict[str, object]]

T = TypeVar("T")


def _time_best(fn: Callable[[], T], repeat: int,
               label: str = "timed") -> Tuple[float, T]:
    """Best-of-``repeat`` wall seconds for one call of ``fn``, and its result.

    The single timing helper every bench section goes through; the
    result is the last repetition's.  Each repetition is also recorded
    as a ``bench:<label>`` span, so running the harness under
    ``--trace`` yields a phase-by-phase timeline.
    """
    best = float("inf")
    for _ in range(max(1, repeat)):
        with obs.span(f"bench:{label}"):
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return best, result


def report_digest(report) -> str:
    """Canonical JSON of everything a simulation's semantics determine.

    The report's journal form (:meth:`~repro.sim.results.SimReport.as_json`)
    without its host fields (:data:`~repro.sim.results.HOST_FIELDS`),
    keys sorted: two evaluation paths claiming equivalence must produce
    identical digests case-for-case.  Used by the bench's per-case
    identity checks and by the test suite's stepped-vs-vectorised check.
    """
    return json.dumps({k: v for k, v in report.as_json().items()
                       if k not in HOST_FIELDS}, sort_keys=True)


def _operands_for(kernel: str, bbc: BBCMatrix, seed: int) -> Dict[str, object]:
    """Deterministic non-matrix operands for one kernel invocation."""
    if kernel == "spmspv":
        rng = np.random.default_rng(seed)
        dense = rng.random(bbc.shape[1]) * (rng.random(bbc.shape[1]) < 0.5)
        return {"x": SparseVector.from_dense(dense)}
    if kernel == "spmm":
        return {"b_cols": 64}
    return {}


def bench_encode(specs: Sequence[MatrixSpec], repeat: int) -> Dict[str, object]:
    """Time COO -> BBC conversion across the corpus."""
    coos = [(spec.name, spec.matrix()) for spec in specs]
    total_nnz = sum(coo.nnz for _, coo in coos)

    def encode_all() -> None:
        for _, coo in coos:
            BBCMatrix.from_coo(coo)

    seconds, _ = _time_best(encode_all, repeat, label="encode")
    return {
        "matrices": len(coos),
        "total_nnz": int(total_nnz),
        "seconds": seconds,
        "nnz_per_second": total_nnz / seconds if seconds else 0.0,
    }


def _cases(mats: Sequence[Tuple[str, BBCMatrix]],
           kernels: Sequence[str]) -> List[Case]:
    """Every matrix x kernel case, with its deterministic operands.

    Operands are seeded by the matrix's position in ``mats``, so a case
    is the same in every section that sweeps it.
    """
    return [
        (name, bbc, kernel, _operands_for(kernel, bbc, seed=i))
        for i, (name, bbc) in enumerate(mats)
        for kernel in kernels
    ]


def _sweep(cases: Sequence[Case], cache: BlockCache) -> Iterator[SimReport]:
    """Simulate every case on uni-stc through ``cache``, yielding each report."""
    for _, bbc, kernel, operands in cases:
        yield simulate_kernel(kernel, bbc, create_stc("uni-stc"), cache=cache,
                              **operands)


def _digests(cases: Sequence[Case],
             reports: Iterable[SimReport]) -> Dict[str, str]:
    """``kernel:matrix`` -> :func:`report_digest` for one pass's reports."""
    return {f"{kernel}:{name}": report_digest(report)
            for (name, _, kernel, _), report in zip(cases, reports)}


def _mismatches(want: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """Cases whose digest in ``got`` differs from ``want``, sorted."""
    return sorted(case for case in want if got.get(case) != want[case])


def bench_enumeration(
    mats: Sequence[Tuple[str, BBCMatrix]], repeat: int
) -> Dict[str, Dict[str, object]]:
    """Per-kernel task enumeration, as the engine consumes it.

    Times ``kernel_task_batches`` plus ``coalesce_raw`` — the full cost
    of producing the weighted unique-pair stream that
    ``simulate_batches`` looks up and simulates.
    """
    out: Dict[str, Dict[str, object]] = {}
    for kernel in KERNELS:
        cases = _cases(mats, (kernel,))

        def enumerate_all() -> None:
            for _, bbc, _, operands in cases:
                for batch in kernel_task_batches(kernel, bbc, **operands):
                    coalesce_raw(batch)

        total_tasks = sum(
            batch.total_tasks
            for _, bbc, _, operands in cases
            for batch in kernel_task_batches(kernel, bbc, **operands)
        )
        seconds, _ = _time_best(enumerate_all, repeat, label=f"enum:{kernel}")
        out[kernel] = {"tasks": int(total_tasks), "seconds": seconds}
    return out


def bench_corpus_sweep(cases: Sequence[Case], repeat: int) -> Dict[str, object]:
    """End-to-end ``simulate_kernel`` sweep: cold vs LRU-warm.

    Two regimes on the identical case list:

    - **cold** — a fresh :class:`BlockCache` per repetition, so every
      distinct block pattern pays one model evaluation.  Capped at
      best-of-2: the model cost dominating this phase makes it the
      bench's least sensitive — and most expensive — number.  The last
      cold pass's cache provides the ``cache`` stats snapshot and
      serves the warm passes.
    - **warm** — that cache already holds every pattern, the regime a
      long-lived sweep runs in.  Warm time *is* the enumeration,
      coalescing, lookup, aggregation and pricing overhead this layer
      owns; ``speedup`` is cold over warm.

    ``reports_identical`` is the per-case :func:`report_digest`
    identity of the last cold pass and one more, untimed, warm pass: a
    memo hit must reproduce exactly what the model computed.
    ``report_mismatches`` names any case violating it.
    """
    def cold_pass() -> Tuple[BlockCache, List[SimReport]]:
        cache = BlockCache()
        return cache, list(_sweep(cases, cache))

    cold_s, (cache, cold) = _time_best(
        cold_pass, min(2, max(1, repeat)), label="sweep_cold")
    stats = cache.stats.as_dict() | {"entries": len(cache)}
    warm_s, _ = _time_best(
        lambda: list(_sweep(cases, cache)), repeat, label="sweep_warm")
    mismatches = _mismatches(_digests(cases, cold),
                             _digests(cases, _sweep(cases, cache)))
    return {
        "cases": len(cases),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s if warm_s else 0.0,
        "reports_identical": not mismatches,
        "report_mismatches": mismatches,
        "totals": {field: sum(getattr(report, field) for report in cold)
                   for field in ("cycles", "products", "t1_tasks")},
        "cache": stats,
    }


def bench_obs_overhead(cases: Sequence[Case], repeat: int) -> Dict[str, object]:
    """Cost of the observability layer on the warm sweep.

    Three numbers, answering "can the instrumentation stay compiled
    in?":

    - ``disabled_seconds`` vs ``enabled_seconds`` — the warm sweep
      with observability off (the default) and on (tracer
      recording);
    - ``disabled_span_ns`` — per-call cost of a dormant ``obs.span``
      (the null fast path), measured over 100k calls;
    - ``estimated_disabled_overhead_pct`` — span call sites executed
      per sweep x the dormant per-call cost, as a percentage of the
      sweep's wall time.  This is the honest "what does the dormant
      instrumentation cost" figure (<2% is the budget); it is computed
      from deterministic counts rather than differencing two noisy
      wall-clock measurements of the same code path.
    """
    cache = BlockCache()

    def sweep() -> None:
        for _ in _sweep(cases, cache):
            pass

    sweep()  # warm the shared cache; both regimes below are warm

    was_enabled = obs.enabled()
    obs.disable()
    disabled_s, _ = _time_best(sweep, repeat, label="sweep_obs_disabled")

    tracer = obs.enable(fresh=not was_enabled)
    spans_before = len(tracer.spans)
    enabled_s, _ = _time_best(sweep, repeat, label="sweep_obs_enabled")
    reps = max(1, repeat)
    # Subtract the outer bench:* span each repetition adds itself.
    spans_per_sweep = (len(tracer.spans) - spans_before - reps) / reps

    obs.disable()
    n_calls = 100_000
    t0 = time.perf_counter()
    for _ in range(n_calls):
        with obs.span("noop"):
            pass
    disabled_span_ns = (time.perf_counter() - t0) / n_calls * 1e9

    if was_enabled:
        obs.enable(fresh=False)

    estimated_pct = (
        100.0 * spans_per_sweep * disabled_span_ns / (disabled_s * 1e9)
        if disabled_s else 0.0
    )
    return {
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "enabled_overhead_pct": (
            100.0 * (enabled_s / disabled_s - 1.0) if disabled_s else 0.0
        ),
        "spans_per_sweep": spans_per_sweep,
        "disabled_span_ns": disabled_span_ns,
        "estimated_disabled_overhead_pct": estimated_pct,
    }


def bench_telemetry_overhead(cases: Sequence[Case], repeat: int) -> Dict[str, object]:
    """Cost of streaming telemetry on the warm sweep.

    A worker appends one record per finished case to its shard journal
    (:meth:`~repro.obs.journal.JournalWriter.append`).  The ``write()``
    is the journal's own; telemetry adds the record's envelope
    (:meth:`~repro.obs.journal.JournalWriter.envelope`): its stamp and
    the metrics **delta** since the previous case, encoded.  Both
    regimes here run with the obs registry recording (as a worker
    does), so the difference is the envelope alone:

    - ``baseline_seconds`` vs ``streamed_seconds`` — the warm sweep
      without/with a per-case envelope;
    - ``per_emit_us`` — one envelope's cost measured directly over a
      few thousand calls against a registry with dirty series;
    - ``estimated_overhead_pct`` — emissions per sweep x per-emit cost
      as a percentage of the baseline wall time.  Like the obs
      section's dormant-span figure, the budget (<2%, asserted by the
      bench smoke test) is checked against this deterministic estimate
      rather than the difference of two noisy wall-clock numbers.
    """
    from repro.obs.journal import JournalWriter

    cache = BlockCache()

    def sweep(writer: Optional[JournalWriter] = None) -> None:
        for _ in _sweep(cases, cache):
            if writer is not None:
                writer.envelope()

    was_enabled = obs.enabled()
    obs.enable(fresh=not was_enabled)
    registry = obs.metrics()
    sweep()  # warm the shared cache; both regimes below are warm

    baseline_s, _ = _time_best(sweep, repeat, label="sweep_telemetry_off")
    # An envelope is only encoded: nothing is written to this path.
    writer = JournalWriter(os.devnull, registry=registry)
    streamed_s, _ = _time_best(
        lambda: sweep(writer), repeat, label="sweep_telemetry_on")

    # Direct per-emit cost: each call sees a dirty registry (the tick
    # counter) so it pays the full stamp + delta path.  The tick itself
    # is baseline registry work, not emission, so its separately
    # measured cost is subtracted back out.
    n_emits = 5_000
    t0 = time.perf_counter()
    for _ in range(n_emits):
        registry.inc("bench.telemetry.tick")
        writer.envelope()
    emit_loop_s = (time.perf_counter() - t0) / n_emits
    t0 = time.perf_counter()
    for _ in range(n_emits):
        registry.inc("bench.telemetry.tick")
    inc_s = (time.perf_counter() - t0) / n_emits
    per_emit_s = max(0.0, emit_loop_s - inc_s)

    if not was_enabled:
        obs.disable()

    estimated_pct = (
        100.0 * len(cases) * per_emit_s / baseline_s if baseline_s else 0.0
    )
    return {
        "emits_per_sweep": len(cases),
        "baseline_seconds": baseline_s,
        "streamed_seconds": streamed_s,
        "measured_overhead_pct": (
            100.0 * (streamed_s / baseline_s - 1.0) if baseline_s else 0.0
        ),
        "per_emit_us": per_emit_s * 1e6,
        "estimated_overhead_pct": estimated_pct,
    }


def bench_store(cases: Sequence[Case], repeat: int) -> Dict[str, object]:
    """Cold vs warm-store corpus sweep through a persistent store.

    The regime a repeated campaign actually runs in: the first sweep
    pays every model evaluation and writes each block result
    through to a fresh :class:`~repro.store.ResultStore`; the second
    sweep starts with an **empty** process-local :class:`BlockCache`
    (a new process, as far as the cache is concerned) and must get
    every block from the store tier instead.  Reported:

    - ``cold_seconds`` vs ``warm_seconds`` and the resulting
      ``speedup`` — what the store buys a re-run;
    - ``hit_rate`` / ``served_bytes`` — the warm pass's store traffic
      (the hit rate must be 1.0 here: the cold pass persisted every
      pattern, so a miss would be a keying bug);
    - ``reports_identical`` — per-case :func:`report_digest` identity
      between the cold and store-served sweeps, the byte-for-byte
      replay claim ``docs/store.md`` makes.
    """
    import tempfile

    from repro.store import ResultStore

    with tempfile.TemporaryDirectory() as tmp:
        with ResultStore(Path(tmp) / "blockstore") as store:
            # Cold: single pass (a repetition would no longer be cold —
            # the store would already hold every pattern).
            cold_cache = BlockCache(store=store)
            cold_s, cold = _time_best(
                lambda: list(_sweep(cases, cold_cache)), 1, label="store_cold",
            )
            store.flush()

            # Warm: every repetition gets a fresh LRU, so every block
            # is served from the store, not process memory.
            before = store.stats.snapshot()
            warm_s, replayed = _time_best(
                lambda: list(_sweep(cases, BlockCache(store=store))),
                repeat, label="store_warm",
            )
            warm = store.stats.delta(before)
            reps = max(1, repeat)
            mismatches = _mismatches(_digests(cases, cold),
                                     _digests(cases, replayed))
            return {
                "cases": len(cases),
                "records": len(store),
                "store_bytes": store.bytes,
                "cold_seconds": cold_s,
                "warm_seconds": warm_s,
                "speedup": cold_s / warm_s if warm_s else 0.0,
                "hit_rate": warm.hit_rate,
                "lookups": warm.lookups,
                "served_bytes": warm.served_bytes // reps,
                "reports_identical": not mismatches,
                "report_mismatches": mismatches,
            }


def bench_infer(repeat: int, smoke: bool = False) -> Dict[str, object]:
    """Batched end-to-end inference: one warm device vs N cold devices.

    The graph runner's amortisation claim, measured.  Three regimes,
    all simulating the identical 8-request ResNet-50 workload:

    - **sequential** — each request on its own device (fresh
      :class:`BlockCache` per request, ``request_offset`` selecting the
      request), the way 8 independent single-shot runs would execute;
    - **batched** — all 8 requests folded through one device sharing
      one cache: linear layers repeat their tile patterns exactly
      across requests, conv layers partially (fresh activations per
      request), so the batch pays the cold cost once;
    - **store replay** — the batched run against a persistent
      :class:`~repro.store.ResultStore` tier populated by a prior run
      with an empty process LRU, the repeated-service regime.

    ``totals_match`` cross-checks that batched and sequential agree on
    total compute cycles — the amortisation must not change a single
    simulated number.
    """
    import tempfile

    from repro.graph import GraphRunner, dnn_graph
    from repro.store import ResultStore

    model, batch = "resnet50", 8
    scale = 0.05 if smoke else 0.125
    graph = dnn_graph(model, scale=scale)

    def sequential() -> list:
        return [GraphRunner(graph, create_stc("uni-stc"), batch=1,
                            request_offset=r, cache=BlockCache()).run()
                for r in range(batch)]

    sequential_s, seq_reports = _time_best(sequential, 1, label="infer_sequential")
    batched_s, breport = _time_best(
        lambda: GraphRunner(graph, create_stc("uni-stc"), batch=batch,
                            cache=BlockCache()).run(),
        1, label="infer_batched",
    )
    totals_match = (breport.e2e_compute_cycles ==
                    sum(r.e2e_compute_cycles for r in seq_reports))
    seq_hits = sum(r.cache.get("hits", 0.0) for r in seq_reports)
    seq_lookups = seq_hits + sum(r.cache.get("misses", 0.0)
                                 for r in seq_reports)

    with tempfile.TemporaryDirectory() as tmp:
        with ResultStore(Path(tmp) / "inferstore") as store:
            GraphRunner(graph, create_stc("uni-stc"), batch=batch,
                        cache=BlockCache(store=store)).run()
            store.flush()
            before = store.stats.snapshot()
            replay_s, _ = _time_best(
                lambda: GraphRunner(graph, create_stc("uni-stc"), batch=batch,
                                    cache=BlockCache(store=store)).run(),
                repeat, label="infer_store_replay",
            )
            warm = store.stats.delta(before)

    return {
        "model": model,
        "batch": batch,
        "scale": scale,
        "nodes": len(graph),
        "sequential_seconds": sequential_s,
        "batched_seconds": batched_s,
        "speedup": sequential_s / batched_s if batched_s else 0.0,
        "sequential_hit_rate": seq_hits / seq_lookups if seq_lookups else 0.0,
        "batched_hit_rate": breport.cache_hit_rate,
        "totals_match": totals_match,
        "e2e_latency": breport.e2e_latency,
        "e2e_energy_pj": breport.e2e_energy_pj,
        "dram_traffic_bytes": breport.dram_traffic_bytes,
        "store": {
            "replay_seconds": replay_s,
            "speedup": batched_s / replay_s if replay_s else 0.0,
            "hit_rate": warm.hit_rate,
        },
    }


def run_bench(
    out: Optional[Union[str, Path]] = None,
    smoke: bool = False,
    sizes: Tuple[int, ...] = (128, 256),
    corpus_limit: Optional[int] = None,
    kernels: Sequence[str] = KERNELS,
    repeat: int = 3,
) -> Dict[str, object]:
    """Run every bench section and optionally write the JSON report.

    ``smoke=True`` shrinks everything (tiny corpus, one repetition) so
    CI can assert the harness runs end-to-end in seconds; its timings
    are not meaningful, only its structure and cross-checks are.
    """
    if smoke:
        sizes, corpus_limit, repeat = (128,), 4, 1
    specs = corpus(sizes=sizes, limit=corpus_limit)
    mats = [(spec.name, BBCMatrix.from_coo(spec.matrix())) for spec in specs]
    cases = _cases(mats, kernels)
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "config": {
            "smoke": smoke,
            "sizes": list(sizes),
            "corpus_limit": corpus_limit,
            "repeat": repeat,
            "kernels": list(kernels),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "encode": bench_encode(specs, repeat),
        "enumeration": bench_enumeration(mats, repeat),
        "corpus_sweep": bench_corpus_sweep(cases, repeat),
        "obs": bench_obs_overhead(cases, repeat),
        "telemetry": bench_telemetry_overhead(cases, repeat),
        "store": bench_store(cases, repeat),
        "infer": bench_infer(repeat, smoke),
    }
    if out is not None:
        Path(str(out)).write_text(json.dumps(report, indent=2) + "\n")
    return report


def render_summary(report: Dict[str, object]) -> str:
    """Human-readable digest of a bench report."""
    enc = report["encode"]
    sweep = report["corpus_sweep"]
    lines = [
        f"encode: {enc['matrices']} matrices, {enc['total_nnz']} nnz "
        f"in {enc['seconds']:.3f}s ({enc['nnz_per_second']:.3g} nnz/s)",
        "enumeration (kernel_task_batches + coalesce_raw):",
    ]
    for kernel, row in report["enumeration"].items():
        lines.append(
            f"  {kernel:7s} {row['tasks']:>9d} tasks  {row['seconds']:.3f}s"
        )
    lines.append(
        f"corpus sweep ({sweep['cases']} cases, reports_identical="
        f"{sweep['reports_identical']}):"
    )
    lines.append(
        f"  cold {sweep['cold_seconds']:.3f}s -> LRU-warm "
        f"{sweep['warm_seconds']:.3f}s ({sweep['speedup']:.1f}x)"
    )
    if sweep["report_mismatches"]:
        shown = ", ".join(sweep["report_mismatches"][:5])
        lines.append(f"  REPORT MISMATCH in: {shown}")
    cache = sweep["cache"]
    lines.append(
        f"cache: {cache['entries']} entries, hit rate {cache['hit_rate']:.1%}, "
        f"{cache['evictions']} evictions"
    )
    ov = report.get("obs")
    if ov:
        lines.append(
            f"obs: dormant span {ov['disabled_span_ns']:.0f}ns x "
            f"{ov['spans_per_sweep']:.0f}/sweep = "
            f"{ov['estimated_disabled_overhead_pct']:.3f}% overhead when off; "
            f"{ov['enabled_overhead_pct']:+.1f}% when tracing"
        )
    tel = report.get("telemetry")
    if tel:
        lines.append(
            f"telemetry: {tel['per_emit_us']:.1f}us/emit x "
            f"{tel['emits_per_sweep']}/sweep = "
            f"{tel['estimated_overhead_pct']:.3f}% overhead when streaming"
        )
    st = report.get("store")
    if st:
        lines.append(
            f"store: {st['records']} records / {st['store_bytes']} bytes; "
            f"cold {st['cold_seconds']:.3f}s -> warm {st['warm_seconds']:.3f}s "
            f"({st['speedup']:.1f}x), hit rate {st['hit_rate']:.1%}, "
            f"{st['served_bytes']} bytes served, reports_identical="
            f"{st['reports_identical']}"
        )
        if st.get("report_mismatches"):
            shown = ", ".join(st["report_mismatches"][:5])
            lines.append(f"  REPORT MISMATCH in: {shown}")
    inf = report.get("infer")
    if inf:
        lines.append(
            f"infer: {inf['model']} x{inf['batch']} "
            f"(totals_match={inf['totals_match']}); sequential "
            f"{inf['sequential_seconds']:.3f}s -> batched "
            f"{inf['batched_seconds']:.3f}s ({inf['speedup']:.1f}x), "
            f"hit rate {inf['sequential_hit_rate']:.1%} -> "
            f"{inf['batched_hit_rate']:.1%}; store replay "
            f"{inf['store']['replay_seconds']:.3f}s "
            f"(hit rate {inf['store']['hit_rate']:.1%})"
        )
    return "\n".join(lines)
