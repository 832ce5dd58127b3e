"""CI smoke test for the ``repro bench`` harness.

Runs the harness in smoke mode (tiny corpus, one repetition) and
asserts it completes, writes valid JSON with the expected structure,
and that its identity checks held (cold vs LRU-warm, cold vs
store-replayed, batched vs sequential inference).  Timings are NOT
asserted — smoke numbers are meaningless; the real report is
``BENCH_2.json`` at the repo root.  The stepped-vs-vectorised identity
check and its cold speedup floor run in tier-1
(``tests/test_batched.py::TestEngineParity``).

Run directly (no ``--benchmark-only``): ``pytest benchmarks/perf -q``.
"""

import json

from repro.cli import main
from repro.kernels import KERNELS
from repro.perf.bench import BENCH_SCHEMA, run_bench


def test_bench_smoke_report_structure(tmp_path):
    out = tmp_path / "bench_smoke.json"
    report = run_bench(out=out, smoke=True)

    data = json.loads(out.read_text())
    assert data == json.loads(json.dumps(report))  # file mirrors return
    assert data["schema"] == BENCH_SCHEMA
    assert data["config"]["smoke"] is True

    enc = data["encode"]
    assert enc["matrices"] > 0 and enc["total_nnz"] > 0
    assert enc["seconds"] > 0 and enc["nnz_per_second"] > 0

    assert set(data["enumeration"]) == set(KERNELS)
    for row in data["enumeration"].values():
        assert row["tasks"] > 0
        assert row["seconds"] > 0

    sweep = data["corpus_sweep"]
    assert sweep["cases"] == enc["matrices"] * len(KERNELS)
    assert sweep["cold_seconds"] > 0 and sweep["warm_seconds"] > 0
    assert sweep["speedup"] == sweep["cold_seconds"] / sweep["warm_seconds"]
    # A memo hit must reproduce what the model computed: the LRU-warm
    # reports equal the cold ones case-for-case (host-time fields aside).
    assert sweep["reports_identical"] is True
    assert sweep["report_mismatches"] == []
    assert sweep["totals"]["t1_tasks"] > 0
    assert sweep["cache"]["entries"] > 0
    assert sweep["cache"]["inserts"] == sweep["cache"]["entries"]

    ov = data["obs"]
    assert ov["disabled_seconds"] > 0 and ov["enabled_seconds"] > 0
    assert ov["spans_per_sweep"] > 0
    assert ov["disabled_span_ns"] > 0
    # The <2% budget for dormant instrumentation.  Computed from
    # deterministic span counts x the measured null-span cost (not by
    # differencing two noisy wall-clock runs), so it is stable enough
    # to assert even in smoke mode.
    assert ov["estimated_disabled_overhead_pct"] < 2.0

    tel = data["telemetry"]
    assert tel["emits_per_sweep"] == sweep["cases"]
    assert tel["baseline_seconds"] > 0 and tel["streamed_seconds"] > 0
    assert tel["per_emit_us"] > 0
    # The <2% budget for the streaming-telemetry channel: one
    # journal-aligned progress emission per case, estimated the same
    # deterministic way (emits x per-emit cost / baseline wall).
    assert tel["estimated_overhead_pct"] < 2.0

    st = data["store"]
    assert st["cases"] == sweep["cases"]
    assert st["records"] > 0 and st["store_bytes"] > 0
    assert st["cold_seconds"] > 0 and st["warm_seconds"] > 0
    # The warm pass replays with an empty LRU against the store the
    # cold pass populated: every lookup must hit, every byte must come
    # from the store, and every report must be digest-identical.
    assert st["hit_rate"] == 1.0
    assert st["lookups"] > 0
    assert st["served_bytes"] > 0
    assert st["reports_identical"] is True
    assert st["report_mismatches"] == []

    inf = data["infer"]
    assert inf["nodes"] > 0 and inf["batch"] == 8
    assert inf["sequential_seconds"] > 0 and inf["batched_seconds"] > 0
    # One batch-8 device must produce exactly the work of 8 sequential
    # one-request devices (same operands via request_offset), with the
    # shared block cache amortising repeated tiles across requests.
    assert inf["totals_match"] is True
    assert inf["batched_hit_rate"] > inf["sequential_hit_rate"]
    assert inf["e2e_latency"] > 0 and inf["e2e_energy_pj"] > 0
    assert inf["dram_traffic_bytes"] > 0
    assert inf["store"]["hit_rate"] == 1.0
    assert inf["store"]["replay_seconds"] > 0


def test_bench_cli_smoke(tmp_path, capsys):
    out = tmp_path / "cli_bench.json"
    assert main(["bench", "--smoke", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["schema"] == BENCH_SCHEMA
    printed = capsys.readouterr().out
    assert "corpus sweep" in printed and str(out) in printed
