"""The memoising simulation service (:mod:`repro.store.service`).

Exercises the HTTP surface end-to-end over a real socket (loopback,
OS-assigned port): run execution, memoisation, single-flight collapse
of concurrent identical requests, the stats/metrics/health endpoints,
and request validation.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.errors import FormatError
from repro.sim import engine
from repro.store import SimulationService
from repro.store.service import _canonical_params

RUN_BODY = {
    "matrices": ["band:64:8:0.4"],
    "stcs": ["uni-stc"],
    "kernels": ["spmv"],
    "seed": 0,
}


def _counter(metrics, name):
    """Total of one counter across label series in a metrics snapshot."""
    return sum(entry["value"] for entry in metrics["counters"].get(name, []))


def _get(service, path):
    url = f"http://{service.host}:{service.port}{path}"
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(service, path, body):
    url = f"http://{service.host}:{service.port}{path}"
    raw = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(
        url, data=raw, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


@pytest.fixture()
def service(tmp_path):
    engine.clear_cache()
    engine.unbind_store()
    obs.enable(fresh=True)
    svc = SimulationService(tmp_path / "store", port=0).start()
    yield svc
    svc.close()
    engine.unbind_store()
    obs.disable()
    engine.clear_cache()


class TestRun:
    def test_run_executes_and_memoises(self, service):
        status, first = _post(service, "/v1/run", RUN_BODY)
        assert status == 200
        assert first["memoised"] is False
        assert first["kind"] == "repro.serve.run"
        assert len(first["cases"]) == 1
        case = first["cases"][0]
        assert case["kernel"] == "spmv" and case["stc"] == "uni-stc"
        assert case["report"]["cycles"] > 0
        # Ephemeral fields are stripped so replays are byte-identical.
        assert "wall_s" not in case["report"]
        assert "cache" not in case["report"]
        assert service.executions == 1

        status, second = _post(service, "/v1/run", RUN_BODY)
        assert status == 200
        assert second["memoised"] is True
        assert service.executions == 1  # no re-simulation
        assert {k: v for k, v in first.items() if k != "memoised"} \
            == {k: v for k, v in second.items() if k != "memoised"}

    def test_equivalent_requests_share_a_fingerprint(self, service):
        _post(service, "/v1/run", RUN_BODY)
        # Same request modulo list order and duplicates: canonicalised
        # to the same fingerprint, so it replays.
        scrambled = dict(RUN_BODY, kernels=["spmv", "spmv"])
        status, body = _post(service, "/v1/run", scrambled)
        assert status == 200 and body["memoised"] is True
        assert service.executions == 1

    def test_concurrent_identical_requests_single_flight(self, service):
        n = 6
        with ThreadPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(
                lambda _: _post(service, "/v1/run", RUN_BODY), range(n)))
        assert all(status == 200 for status, _ in results)
        # Exactly one execution; every body identical modulo the
        # memoised flag.
        assert service.executions == 1
        bodies = [{k: v for k, v in body.items() if k != "memoised"}
                  for _, body in results]
        assert all(body == bodies[0] for body in bodies)
        assert sum(1 for _, b in results if not b["memoised"]) == 1

    def test_concurrent_distinct_requests(self, service):
        # Distinct fingerprints bypass single-flight entirely, so the
        # handler threads race on the one shared ResultStore handle
        # (insert offsets, reader seek/read) — this must not corrupt
        # the store or 500.
        specs = [f"band:{n}:8:0.4" for n in (48, 56, 64, 72, 80, 96)]
        bodies = [dict(RUN_BODY, matrices=[spec]) for spec in specs]
        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            results = list(pool.map(
                lambda body: _post(service, "/v1/run", body), bodies))
        assert all(status == 200 for status, _ in results)
        assert service.executions == len(bodies)
        for (_, body), spec in zip(results, specs):
            assert body["memoised"] is False
            assert [case["matrix"] for case in body["cases"]] == [spec]
        # Every record written under contention reads back clean.
        assert len(service.store) > 0
        assert service.store.verify()["errors"] == []
        # The store stays bound as the engine's second tier throughout
        # (per-request binding used to race and unbind it mid-sweep).
        assert engine.bound_store() is service.store

    def test_store_binding_scoped_to_service_lifetime(self, tmp_path):
        engine.unbind_store()
        svc = SimulationService(tmp_path / "store", port=0).start()
        try:
            assert engine.bound_store() is svc.store
        finally:
            svc.close()
        assert engine.bound_store() is None

    def test_second_execution_hits_the_store(self, service):
        _post(service, "/v1/run", RUN_BODY)
        # A different workload axis forces a new execution, but the
        # same (matrix, stc) blocks replay from the store tier.
        engine.clear_cache()  # drop the process LRU: force store reads
        status, body = _post(service, "/v1/run",
                             dict(RUN_BODY, kernels=["spmv", "spmspv"]))
        assert status == 200 and body["memoised"] is False
        _, metrics = _get(service, "/v1/metrics")
        assert _counter(metrics, "store.hits") > 0


class TestEndpoints:
    def test_healthz(self, service):
        status, body = _get(service, "/healthz")
        assert status == 200 and body["ok"] is True

    def test_stats_reflects_memo_and_store(self, service):
        _post(service, "/v1/run", RUN_BODY)
        status, stats = _get(service, "/v1/stats")
        assert status == 200
        assert stats["kind"] == "repro.store"
        assert stats["records"] > 0
        assert stats["memoised_runs"] == 1
        assert stats["executions"] == 1

    def test_metrics_snapshot(self, service):
        _post(service, "/v1/run", RUN_BODY)
        status, metrics = _get(service, "/v1/metrics")
        assert status == 200
        assert "counters" in metrics
        assert _counter(metrics, "store.appends") > 0

    def test_unknown_paths_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(service, "/nope")
        assert excinfo.value.code == 404
        status, _ = _post(service, "/v1/nope", RUN_BODY)
        assert status == 404


class TestValidation:
    def test_bad_json_is_400(self, service):
        status, body = _post(service, "/v1/run", b"{not json")
        assert status == 400 and "JSON" in body["error"]

    def test_missing_fields_are_400(self, service):
        status, body = _post(service, "/v1/run", {"matrices": ["band:64:8:0.4"]})
        assert status == 400 and "stcs" in body["error"]

    def test_bad_matrix_spec_is_400(self, service):
        status, body = _post(
            service, "/v1/run", dict(RUN_BODY, matrices=["nope:1:2"]))
        assert status == 400 and "bad run request" in body["error"]
        assert service.executions == 0

    def test_canonical_params_normalises(self):
        params = _canonical_params({
            "matrices": ["b", "a", "b"], "stcs": ["uni-stc"],
            "kernels": ["spmv"], "seed": 3,
        })
        assert params["matrices"] == ["a", "b"]
        assert params["seed"] == 3

    def test_canonical_params_rejects_bool_seed(self):
        with pytest.raises(FormatError, match="seed"):
            _canonical_params({
                "matrices": ["m"], "stcs": ["s"], "kernels": ["k"],
                "seed": True,
            })

    def test_canonical_params_rejects_empty_lists(self):
        with pytest.raises(FormatError, match="kernels"):
            _canonical_params({
                "matrices": ["m"], "stcs": ["s"], "kernels": [], "seed": 0,
            })


class TestLifecycle:
    def test_max_requests_self_termination(self, tmp_path):
        svc = SimulationService(tmp_path / "store", port=0, max_requests=2)
        svc.start()
        try:
            _get(svc, "/healthz")
            _get(svc, "/healthz")
            assert svc._done.wait(timeout=10)
            assert svc.requests_handled == 2
        finally:
            svc.close()

    def test_context_manager_closes(self, tmp_path):
        with SimulationService(tmp_path / "store", port=0).start() as svc:
            status, _ = _get(svc, "/healthz")
            assert status == 200
