"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-all --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload warm-lru --seed 3 --record-reference

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer split, writing the spans (Chrome ``trace_event`` JSON) and the
per-layer table under ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  ``--workload all`` runs every
workload one after another, each in a child process of its own so that
one workload's peak memory is not charged to the next.

The benchmark imports the simulator from ``src/`` of the checkout it
sits in and exits non-zero, printing no result, if that is missing.
"""

from __future__ import annotations

import os

# One thread: the measurement must not depend on how many cores a BLAS
# pool finds free.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("cold-all", "warm-lru", "store-roundtrip", "infer-stream")
#: Set-ups per run, at least ``SETUP_REPEATS`` and until ``SETUP_MIN_S``
#: host seconds have been spent (at most ``SETUP_MAX_REPEATS``);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 50


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes until this many seconds have run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one pass (the self-test's mode)")
    parser.add_argument("--record-reference", action="store_true",
                        help="record this seed's per-case digests and exit")
    return parser.parse_args(argv)


def import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: simulator sources not found at {SRC}/repro")
    sys.path.insert(0, str(SRC))


def emit(correct: bool, attempted: int, failed: int, metrics, units) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def check(workload, passes, tiny: bool):
    """Failed and attempted cases over every pass, and what was compared."""
    from workloads import check_pass, load_reference

    references, checks = [], []
    committed = None if tiny else load_reference(workload.name, workload.seed)
    if committed is not None:
        references.append(committed)
        checks.append(f"committed digests for seed {workload.seed}")
    if workload.setup_reference is not None:
        references.append(workload.setup_reference)
        checks.append("the set-up's cold pass")
    references.append(passes[0].digests)
    checks.append("the run's first pass")
    failed = [p.case_ids[slot] for p in passes for slot in check_pass(p, references)]
    if failed:
        print(f"{len(failed)} failed case(s), first: {', '.join(failed[:5])}",
              file=sys.stderr)
    return len(failed), sum(len(p.digests) for p in passes), checks


def keep_going(start: float, rounds: int, seconds: float, tiny: bool) -> bool:
    """Whether to start another round of passes.

    At least one round; then rounds until ``seconds`` have passed, unless
    the next round would likely end past 1.5 x ``seconds``.
    """
    if rounds == 0:
        return True
    elapsed = perf_counter() - start
    return (not tiny and elapsed < seconds
            and elapsed * (rounds + 1) / rounds <= 1.5 * seconds)


def measure(workload, args):
    """Untraced run: the end-to-end metrics."""
    from hostspeed import REFERENCE_PROBE_S
    from metrics import END_TO_END, end_to_end

    setups = []
    while not setups or not args.tiny and (
            len(setups) < SETUP_REPEATS
            or (sum(raw for raw, _ in setups) < SETUP_MIN_S
                and len(setups) < SETUP_MAX_REPEATS)):
        gc.collect()
        setups.append(workload.timed_setup())
    passes = []
    start = perf_counter()
    while keep_going(start, len(passes), args.seconds, args.tiny):
        passes.append(workload.timed_pass())
    failed, attempted, checks = check(workload, passes, args.tiny)
    metrics = end_to_end(setups, passes)
    latencies = sum(len(p.latencies) for p in passes)
    beyond = sum(1 for p in passes for s in p.scaled_latencies
                 if s * 1e3 > metrics["case_ms_p90"])
    notes = {
        "t1_tasks_per_s": f"over {len(passes)} pass(es), "
                          f"{sum(p.wall_s for p in passes):.2f} s raw",
        "case_ms_p50": f"n={latencies} cases",
        "case_ms_p90": f"n={latencies} cases, {beyond} beyond",
        "setup_s": f"median of {len(setups)} set-ups",
        "sim_cycles": "simulated, exact",
        "sim_energy_pj": "simulated, exact",
    }
    print(f"== {workload.name}  seed={workload.seed}  passes={len(passes)}  "
          f"checked against: {', '.join(checks)}")
    probes = workload.speed.samples
    print(f"  host times scaled to the reference host speed: {len(probes)} "
          f"probes, median {statistics.median(probes) * 1e3:.2f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:.2f} ms)")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name:16s} {metrics[name]:>18.6g} {unit:8s} "
              f"{better:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':16s} {failed / attempted:>18.6g} {'ratio':8s} "
          f"{'lower':6s} {failed} failed / {attempted} attempted")
    emit(failed == 0, attempted, failed, metrics,
         {name: unit for name, (unit, _) in END_TO_END.items()})
    return failed == 0


def measure_traced(workload, args):
    """Traced run: the per-layer split, from alternating passes."""
    from metrics import layer_table, per_layer_units, traced_pass_metrics
    from tracing import Tracer
    from workloads import stc_metric_prefixes

    prefixes = stc_metric_prefixes()
    units = per_layer_units(prefixes)
    setup_tracer = Tracer()
    raw, scaled = workload.timed_setup(setup_tracer)
    setup_scale = scaled / raw
    plain, traced = [], []
    start = perf_counter()
    while keep_going(start, len(traced), args.seconds, args.tiny):
        plain.append(workload.timed_pass())
        traced.append(workload.timed_pass(Tracer()))
    failed, attempted, checks = check(workload, plain + traced, args.tiny)

    per_pass = [traced_pass_metrics(p, prefixes, units) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    encode_s = setup_tracer.self_by_layer().get("formats", 0.0) * setup_scale
    metrics["formats.encode_s"] = encode_s
    metrics["formats.nnz_per_s"] = (
        setup_tracer.counts.get("formats.nnz", 0) / encode_s if encode_s else 0.0)
    plain_wall = statistics.median(p.scaled_wall_s for p in plain)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(p.scaled_wall_s for p in traced) / plain_wall - 1.0)
    nostore = getattr(workload, "nostore", None)
    for phase, base in (("fill", "cold_s"), ("replay", "warm_s")):
        seconds = statistics.median(p.phases.get(f"{phase}_s", 0.0)
                                    * p.scaled_wall_s / p.wall_s for p in plain)
        metrics[f"store.{phase}_s"] = seconds
        ratio = seconds / (nostore[base] * setup_scale) if nostore else 0.0
        metrics[f"store.{phase}_over_{base[:-2]}"] = ratio

    first = traced[0]
    stem = OUT / f"{workload.name}-seed{workload.seed}"
    first.tracer.write_chrome(stem.with_suffix(".trace.json"), {
        "workload": workload.name, "seed": workload.seed,
        "wall_s": first.wall_s})
    table = layer_table(first.tracer, first.wall_s)
    stem.with_suffix(".layers.json").write_text(json.dumps(
        {"workload": workload.name, "seed": workload.seed,
         "traced_wall_s": first.wall_s, "spans": table,
         "metrics": metrics}, indent=1) + "\n")

    print(f"== {workload.name}  seed={workload.seed}  traced passes="
          f"{len(traced)}  checked against: {', '.join(checks)}")
    print(f"  first traced pass: {first.wall_s:.3f} s; spans in "
          f"{stem.with_suffix('.trace.json').relative_to(HERE.parent)}")
    for row in table:
        print(f"  {row['span']:34s} {row['self_s']:10.4f} s {row['share']:7.1%}"
              f"  calls={row['calls']}")
    print(f"  {'(unattributed)':34s} "
          f"{per_pass[0]['trace.unattributed_frac'] * first.wall_s:10.4f} s "
          f"{per_pass[0]['trace.unattributed_frac']:7.1%}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    emit(failed == 0, attempted, failed, metrics, units)
    return failed == 0


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS, save_reference

    scratch = OUT / f"scratch-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.tiny, scratch)
    try:
        if args.record_reference:
            workload.setup()
            result = workload.run_pass()
            failed, _, _ = check(workload, [result], tiny=True)
            if failed:
                raise SystemExit(f"error: {failed} case(s) failed; not recorded")
            save_reference(workload.name, workload.seed, result)
            print(f"recorded {len(result.digests)} case digests for "
                  f"{workload.name} seed {workload.seed}")
            return 0
        ok = (measure_traced if args.trace else measure)(workload, args)
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own child process."""
    import_program()
    combined, attempted, failed, status = {}, 0, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or child.returncode
        if child.returncode not in (0, 1):
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": status == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
