"""The request miss pool: one model call per request, reports unchanged.

``GraphRunner`` runs each request's nodes inside one
``engine.miss_pool``: the ``simulate_kernel`` calls only probe the memo,
and the pool resolves the request's misses when it closes.  The
standalone oracle is the same runner with the pool replaced by a null
context, so every call is a pool of one and resolves before it
returns.  Pooled and standalone runs must agree byte for byte on every
per-node report and on the ``ModelReport`` (host fields aside), and,
below the LRU's capacity, on each node's cache attribution too.
"""

import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.formats import BBCMatrix
from repro.graph import GraphNode, GraphRunner, ModelGraph, TensorSpec, dnn_graph
from repro.graph import runner as graph_runner
from repro.perf.bench import report_digest
from repro.registry import create_stc, registered_stcs
from repro.sim.blockcache import DEFAULT_CAPACITY, BlockCache
from repro.sim.engine import miss_pool, simulate_kernel
from repro.store import ResultStore
from repro.workloads.synthetic import random_uniform

#: The summable ``SimReport.cache`` / ``ModelReport.cache`` counters.
COUNTS = ("hits", "misses", "evictions", "inserts", "store_hits", "store_misses")
#: (batch, request_offset) pairs every memo state runs.
RUNS = [(1, 0), (1, 7), (3, 0), (3, 7)]
#: An LRU bound below one request's misses (about 50 at scale 0.05).
SMALL_LRU = 16


@pytest.fixture(scope="module")
def graph():
    return dnn_graph("resnet50", 0.70, scale=0.05, seed=11)


@pytest.fixture(scope="module")
def square():
    return BBCMatrix.from_coo(random_uniform(64, 64, 0.08, seed=5))


def run_graph(graph, stc, memo, batch=1, offset=0, pooled=True):
    runner = GraphRunner(graph, stc, batch=batch, request_offset=offset,
                         cache=memo)
    if pooled:
        return runner.run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_runner, "miss_pool", nullcontext)
        return runner.run()


def digests(report):
    return [report_digest(n.report) for n in report.nodes]


def model_json(report):
    out = report.as_json()
    del out["wall_s"], out["cache"]
    return out


def node_caches(report):
    return [n.report.cache for n in report.nodes]


def assert_nodes_sum_to_run(report):
    for key in COUNTS:
        assert sum(n.report.cache.get(key, 0) for n in report.nodes) == \
            report.cache.get(key, 0), key


def spy_on(stc):
    """Record every batch ``stc.simulate_blocks`` gets."""
    calls = []
    real = stc.simulate_blocks

    def spy(batch):
        calls.append(batch)
        return real(batch)

    stc.simulate_blocks = spy
    return calls


def chain(name, *nodes):
    """A graph of ``(name, kernel, a, operands)`` nodes, each feeding the next."""
    g = ModelGraph(name)
    g.add_tensor(TensorSpec("t0", 64, 64, kind="input"))
    for i, (node, kernel, a, operands) in enumerate(nodes, start=1):
        g.add_tensor(TensorSpec(f"t{i}", 64, 64))
        g.add_node(GraphNode(node, kernel, a=a, inputs=(f"t{i - 1}",),
                             output=f"t{i}", operands=operands))
    return g


class TestPooledMatchesStandalone:
    @pytest.mark.parametrize("state", ["cold", "lru-warm", "store-warm", "small-lru"])
    @pytest.mark.parametrize("name", registered_stcs())
    def test_reports_and_attribution(self, graph, name, state, tmp_path):
        stc = create_stc(name)
        for batch, offset in RUNS:
            store = None
            if state == "store-warm":
                store = ResultStore(tmp_path / f"store-{batch}-{offset}")
                run_graph(graph, stc, BlockCache(store=store), batch, offset,
                          pooled=False)
            memos = []
            for _ in range(2):
                memo = BlockCache(capacity=SMALL_LRU if state == "small-lru"
                                  else DEFAULT_CAPACITY, store=store)
                if state == "lru-warm":
                    run_graph(graph, stc, memo, batch, offset, pooled=False)
                memos.append(memo)
            alone = run_graph(graph, stc, memos[0], batch, offset, pooled=False)
            pooled = run_graph(graph, stc, memos[1], batch, offset)
            if store is not None:
                store.close()
            assert digests(pooled) == digests(alone)
            assert model_json(pooled) == model_json(alone)
            assert_nodes_sum_to_run(pooled)
            assert_nodes_sum_to_run(alone)
            if state == "small-lru":
                # Past capacity, recency and evictions may differ.
                assert pooled.cache["evictions"] > 0
            else:
                assert node_caches(pooled) == node_caches(alone)
            if state == "store-warm":
                assert pooled.cache["store_hits"] > 0 == pooled.cache["misses"]


class TestOneCallPerRequest:
    def test_one_call_per_request(self, graph):
        stc = create_stc("uni-stc")
        calls = spy_on(stc)
        memo = BlockCache()
        run_graph(graph, stc, memo)
        # Rows reach the memo at exit in pooled order: node by node,
        # each node's misses in probe order, as the model got them.
        assert list(memo) == calls[0].cache_keys(stc.cache_key())
        calls.clear()
        report = run_graph(graph, stc, BlockCache(), batch=3)
        # Every node is n = 16 wide and every request has misses.
        assert len(calls) == 3
        assert sum(len(batch) for batch in calls) == report.cache["misses"]
        for batch in calls:
            assert np.unique(batch.a_ids).size == batch.a_ids.size
            assert np.unique(batch.b_ids).size == batch.b_ids.size
            assert len(batch.a_patterns) == batch.a_ids.size

    def test_one_call_per_width(self, square):
        stc = create_stc("uni-stc")
        calls = spy_on(stc)
        g = chain("mixed", ("v", "spmv", square, {}),
                  ("g", "spgemm", square, {"b": square}))
        report = run_graph(g, stc, BlockCache(), batch=2)
        # Request 0 misses at both widths; request 1 hits everything.
        assert sorted(batch.n for batch in calls) == [1, 16]
        assert report.per_layer(1)[0].report.cache["misses"] == 0

    def test_shared_pair_simulated_and_stored_once(self, square, tmp_path):
        stc = create_stc("uni-stc")
        calls = spy_on(stc)
        # The pool builds its pending set when "second" probes, from
        # "first"'s misses; "third" must also see "second"'s.
        g = chain("shared", ("first", "spmv", square, {}),
                  ("second", "spgemm", square, {"b": square}),
                  ("third", "spgemm", square, {"b": square}))
        with ResultStore(tmp_path / "store") as store:
            report = run_graph(g, stc, BlockCache(store=store))
            appends = store.stats.appends
        first, second, third = (n.report.cache for n in report.nodes)
        unique = second["misses"]
        assert sorted(len(batch) for batch in calls) == sorted([first["misses"], unique])
        assert appends == first["misses"] + unique
        assert third["hits"] == unique
        assert third["misses"] == third["inserts"] == 0
        with ResultStore(tmp_path / "alone") as store:
            alone = run_graph(g, create_stc("uni-stc"), BlockCache(store=store),
                              pooled=False)
        assert node_caches(report) == node_caches(alone)
        assert digests(report) == digests(alone)


class TestFailures:
    def test_raising_node_leaves_no_rows(self, graph, tmp_path, monkeypatch):
        stc = create_stc("uni-stc")
        real = graph_runner.simulate_kernel
        seen = []

        def fails_fourth(*args, **kwargs):
            seen.append(args[0])
            if len(seen) == 4:
                raise RuntimeError("node failed")
            return real(*args, **kwargs)

        with ResultStore(tmp_path / "store") as store:
            memo = BlockCache(store=store)
            with monkeypatch.context() as patch:
                patch.setattr(graph_runner, "simulate_kernel", fails_fourth)
                with pytest.raises(RuntimeError, match="node failed"):
                    run_graph(graph, stc, memo)
            assert len(memo) == 0 and memo.stats.inserts == 0
            assert store.stats.appends == 0
            after = run_graph(graph, stc, memo)
        with ResultStore(tmp_path / "alone") as store:
            alone = run_graph(graph, stc, BlockCache(store=store), pooled=False)
        assert digests(after) == digests(alone)
        assert node_caches(after) == node_caches(alone)
        assert after.cache == alone.cache

    def test_raising_model_inserts_nothing(self, graph):
        stc = create_stc("uni-stc")

        def broken(batch):
            raise RuntimeError("model failed")

        stc.simulate_blocks = broken
        memo = BlockCache()
        with pytest.raises(RuntimeError, match="model failed"):
            run_graph(graph, stc, memo)
        assert len(memo) == 0 and memo.stats.inserts == 0


class TestPoolScope:
    def test_report_complete_only_after_exit(self, square):
        stc = create_stc("uni-stc")
        want = report_digest(simulate_kernel("spgemm", square, stc, cache=BlockCache()))
        with miss_pool():
            report = simulate_kernel("spgemm", square, stc, cache=BlockCache())
            assert report.cycles == 0 and report.cache == {}
        assert report_digest(report) == want

    def test_nested_pool_resolves_on_its_own(self, square):
        stc = create_stc("uni-stc")
        want = report_digest(simulate_kernel("spgemm", square, stc, cache=BlockCache()))
        memo = BlockCache()
        with miss_pool():
            outer = simulate_kernel("spgemm", square, stc, cache=memo)
            with miss_pool():
                inner = simulate_kernel("spgemm", square, stc, cache=memo)
            assert report_digest(inner) == want
            assert outer.cycles == 0
        assert report_digest(outer) == want
        # The inner pool did not see the outer one's pending misses:
        # both missed, simulated and inserted every pair.
        assert inner.cache == outer.cache
        assert memo.stats.inserts == 2 * outer.cache["inserts"] > 0

    def test_threads_keep_their_own_pools(self, graph, monkeypatch):
        stc = create_stc("uni-stc")
        want = digests(run_graph(graph, stc, BlockCache(), batch=2, pooled=False))
        memo = BlockCache()
        opened = [threading.Event(), threading.Event()]
        first_done = threading.Event()
        local = threading.local()
        real = graph_runner.simulate_kernel

        def interleaved(*args, **kwargs):
            report = real(*args, **kwargs)
            if not getattr(local, "met", False):
                local.met = True
                opened[local.slot].set()
                # The first thread finishes its run while the second,
                # which opened its pool later, holds it open and probed.
                waited = opened[1] if local.slot == 0 else first_done
                assert waited.wait(60)
            return report

        monkeypatch.setattr(graph_runner, "simulate_kernel", interleaved)
        got, errors = [None, None], []

        def work(slot):
            local.slot = slot
            try:
                got[slot] = digests(run_graph(graph, stc, memo, batch=2))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)
            finally:
                if slot == 0:
                    first_done.set()

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(2)]
        threads[0].start()
        assert opened[0].wait(60)
        threads[1].start()
        for thread in threads:
            thread.join()
        assert errors == [] and got == [want, want]

    def test_resolve_span_per_request(self, graph):
        obs.enable(fresh=True)
        try:
            run_graph(graph, create_stc("uni-stc"), BlockCache(), batch=2)
            counts = {row["name"]: row["count"] for row in obs.tracer().summarise()}
        finally:
            obs.disable()
        assert counts["resolve"] == 2
        assert counts["graph.node"] == 2 * len(graph)
