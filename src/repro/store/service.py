"""``repro serve`` — a zero-dependency memoising simulation service.

The north-star deployment for this reproduction is a long-running
simulation endpoint serving many clients; this module is its first
network-facing slice.  A :class:`SimulationService` wraps the stdlib
``http.server`` (no new dependencies) around a bound
:class:`~repro.store.resultstore.ResultStore`:

- ``POST /v1/run`` with a RunSpec-shaped JSON body — matrix specs,
  STC names, kernels, seed — runs the sweep with the store as the
  block-cache second tier and returns per-case reports.  Responses
  are **memoised** by the request's RunSpec fingerprint: repeating a
  request returns the stored body with ``"memoised": true`` and zero
  re-simulation.  Concurrent *identical* requests are collapsed by
  **single-flight locking**: one executes, the rest wait and receive
  the memoised body.
- ``GET /v1/stats`` — the store's :meth:`ResultStore.describe`.
- ``GET /v1/metrics`` — the live obs metrics snapshot (includes
  ``store.hits`` / ``store.misses``, the re-simulation proof).
- ``GET /healthz`` — liveness.

Layering note: this module lives in the ``store`` package (below
``sim``/``runtime``) but *serves* simulations, so every upward import
(registry, sweep, runtime spec) is deliberately function-scoped — the
sanctioned lazy-import escape hatch ``tools/check_layering.py``
recognises.  The request wire format mirrors
:class:`~repro.runtime.spec.RunSpec` so service fingerprints and CLI
fingerprints share one identity scheme.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.errors import FormatError
from repro.store.resultstore import ResultStore

logger = logging.getLogger(__name__)


def _canonical_params(body: Dict[str, object]) -> Dict[str, object]:
    """Validate and normalise a ``/v1/run`` request body.

    Raises :class:`~repro.errors.FormatError` on anything malformed —
    the handler maps that to HTTP 400.
    """
    if not isinstance(body, dict):
        raise FormatError("run request must be a JSON object")
    matrices = body.get("matrices")
    stcs = body.get("stcs")
    kernels = body.get("kernels")
    seed = body.get("seed", 0)
    for name, value in (("matrices", matrices), ("stcs", stcs),
                        ("kernels", kernels)):
        if (not isinstance(value, list) or not value
                or not all(isinstance(v, str) and v for v in value)):
            raise FormatError(
                f"run request field {name!r} must be a non-empty list "
                "of strings")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise FormatError("run request field 'seed' must be an integer")
    return {"matrices": sorted(set(matrices)), "stcs": sorted(set(stcs)),
            "kernels": sorted(set(kernels)), "seed": seed}


class SimulationService:
    """The memoising HTTP front-end over one :class:`ResultStore`.

    Start with :meth:`start` (background thread; ``port`` then reports
    the bound port — pass ``port=0`` to let the OS pick) or
    :meth:`serve_forever` (blocking, used by ``repro serve``).
    ``max_requests`` > 0 makes the server exit after that many handled
    requests — CI smoke tests use it to get a self-terminating server.
    """

    def __init__(self, store_root: Union[str, Path],
                 host: str = "127.0.0.1", port: int = 8732,
                 max_requests: int = 0):
        # Upward import, function-scoped by design (see module doc).
        from repro.sim import engine

        self.store = ResultStore(store_root)
        # Bind the store as the engine's second tier exactly once, for
        # the service's whole lifetime.  A per-request store_tier()
        # would race under ThreadingHTTPServer: overlapping requests
        # capture different "previous" bindings, so the first to exit
        # unbinds the tier mid-sweep for the others and the last to
        # exit can leave a stale binding behind.
        self._engine = engine
        self._store_previous = engine.bound_store()
        engine.bind_store(self.store)
        self.max_requests = max_requests
        self.executions = 0          # distinct sweeps actually simulated
        self.requests_handled = 0
        self._memo: Dict[str, Dict[str, object]] = {}
        self._flights: Dict[str, threading.Lock] = {}
        self._mutex = threading.Lock()
        self._inflight = 0
        self._done = threading.Event()
        service = self

        class Handler(BaseHTTPRequestHandler):
            # Quiet by default; the service logs through `logging`.
            def log_message(self, fmt, *args):  # noqa: N802
                logger.debug("serve: " + fmt, *args)

            def _reply(self, status: int, payload: Dict[str, object]) -> None:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                service._count_request()

            def do_GET(self):  # noqa: N802
                try:
                    status, payload = service.handle_get(self.path)
                except Exception as exc:  # pragma: no cover - last resort
                    logger.exception("serve: GET %s failed", self.path)
                    status, payload = 500, {"error": str(exc)}
                self._reply(status, payload)

            def do_POST(self):  # noqa: N802
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                try:
                    status, payload = service.handle_post(self.path, raw)
                except Exception as exc:  # pragma: no cover - last resort
                    logger.exception("serve: POST %s failed", self.path)
                    status, payload = 500, {"error": str(exc)}
                self._reply(status, payload)

        self.server = ThreadingHTTPServer((host, port), Handler)
        self.server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    def start(self) -> "SimulationService":
        """Serve on a background thread (tests and embedding)."""
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until shut down or request-capped."""
        logger.info("serve: listening on http://%s:%d (store %s, %d records)",
                    self.host, self.port, self.store.root, len(self.store))
        thread = threading.Thread(
            target=self.server.serve_forever, name="repro-serve", daemon=True)
        thread.start()
        try:
            self._done.wait()
        except KeyboardInterrupt:
            pass
        self.server.shutdown()
        thread.join()

    def _count_request(self) -> None:
        with self._mutex:
            self.requests_handled += 1
            capped = (self.max_requests
                      and self.requests_handled >= self.max_requests)
        if capped:
            self._done.set()
            # Unblock start()-mode servers too; shutdown() from a
            # handler thread is safe (it only sets a flag).
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()

    def close(self) -> None:
        self._done.set()
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        # Restore whatever tier was bound before the service took
        # over — unless something rebound the cache since, in which
        # case that newer binding wins.
        if self._engine.bound_store() is self.store:
            self._engine.bind_store(self._store_previous)
        self.store.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling -------------------------------------------------

    def handle_get(self, path: str) -> Tuple[int, Dict[str, object]]:
        if path in ("/healthz", "/health"):
            return 200, {"ok": True, "records": len(self.store),
                         "requests": self.requests_handled}
        if path == "/v1/stats":
            stats = self.store.describe()
            stats["memoised_runs"] = len(self._memo)
            stats["executions"] = self.executions
            return 200, stats
        if path == "/v1/metrics":
            return 200, obs.metrics().snapshot()
        return 404, {"error": f"unknown path {path!r}"}

    def handle_post(self, path: str, raw: bytes) -> Tuple[int, Dict[str, object]]:
        if path != "/v1/run":
            return 404, {"error": f"unknown path {path!r}"}
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}
        try:
            params = _canonical_params(body)
        except FormatError as exc:
            return 400, {"error": str(exc)}
        try:
            return 200, self.run(params)
        except FormatError as exc:
            return 400, {"error": str(exc)}

    # -- memoised execution ----------------------------------------------

    def fingerprint(self, params: Dict[str, object]) -> str:
        """The RunSpec fingerprint of one canonical request."""
        from repro.runtime.spec import RunSpec

        return RunSpec(command="serve", params=dict(params),
                       seed=int(params["seed"])).fingerprint()

    def run(self, params: Dict[str, object]) -> Dict[str, object]:
        """Execute (or replay) one canonical request, single-flighted."""
        fp = self.fingerprint(params)
        with self._mutex:
            cached = self._memo.get(fp)
            if cached is not None:
                return dict(cached, memoised=True)
            flight = self._flights.setdefault(fp, threading.Lock())
        with flight:
            with self._mutex:
                cached = self._memo.get(fp)
            if cached is not None:
                # We waited behind the executing flight; serve its body.
                return dict(cached, memoised=True)
            body = self._execute(params, fp)
            with self._mutex:
                self._memo[fp] = body
            return dict(body, memoised=False)

    def _execute(self, params: Dict[str, object],
                 fp: str) -> Dict[str, object]:
        # Upward imports are function-scoped by design (see module doc).
        from repro.registry import parse_matrix_spec
        from repro.sim.results import HOST_FIELDS
        from repro.sim.sweep import Sweep

        with self._mutex:
            self._inflight += 1
            obs.set_gauge("store.inflight", float(self._inflight))
        try:
            with obs.span("serve.run", fingerprint=fp):
                try:
                    matrices = {spec: parse_matrix_spec(spec)
                                for spec in params["matrices"]}
                    sweep = Sweep.from_names(matrices, params["stcs"],
                                             params["kernels"])
                except Exception as exc:
                    raise FormatError(f"bad run request: {exc}") from exc
                # The store is bound process-wide in __init__; binding
                # per request would race across handler threads.
                results = sweep.run()
                self.store.flush()
                self.executions += 1
                cases: List[Dict[str, object]] = []
                for res in results:
                    # Host fields are stripped so memoised and freshly
                    # computed bodies are byte-identical.
                    report = {k: v for k, v in res.report.as_json().items()
                              if k not in HOST_FIELDS}
                    cases.append({"matrix": res.case.matrix_name,
                                  "stc": res.case.stc_name,
                                  "kernel": res.case.kernel,
                                  "report": report})
                # Store traffic is per execution, so a memoised replay
                # would report stale counts: it stays on /v1/metrics.
                return {"kind": "repro.serve.run", "fingerprint": fp,
                        "params": params, "cases": cases}
        finally:
            with self._mutex:
                self._inflight -= 1
                obs.set_gauge("store.inflight", float(self._inflight))
