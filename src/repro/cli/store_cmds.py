"""The ``store`` and ``serve`` subcommands: result-store operations.

``repro store ACTION DIR`` administers a persistent content-addressed
result store (:mod:`repro.store`):

- ``stat`` — records / segments / bytes / quarantine state;
- ``verify`` — re-read every record, CRC-checked; non-zero exit on
  any corruption (``--strict`` raises on the first);
- ``gc`` — compact to one deduplicated segment, optionally under
  ``--max-bytes``.

``repro serve`` runs the memoising simulation service
(:mod:`repro.store.service`) over a store: POST RunSpec-shaped JSON to
``/v1/run``, identical requests replay from memory, block results are
served from / appended to the store.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import DataCorruptionError
from repro.runtime import ObsPolicy, RunSpec, Session
from repro.store import ResultStore, SimulationService


def cmd_store(args: argparse.Namespace, session: Session) -> int:
    """Administer one result store (see module docs for the actions)."""
    # Maintenance actions assert sole ownership, so torn tails are
    # repaired; `stat` is a pure reader and must not touch segments.
    repair = args.action in ("gc", "verify")
    with ResultStore(args.dir, create=args.action == "gc",
                     repair=repair) as store:
        if args.action == "stat":
            doc = store.describe()
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                print(f"store {doc['root']} (schema {doc['schema']})")
                print(f"  records:     {doc['records']}")
                print(f"  segments:    {doc['segments']}")
                print(f"  bytes:       {doc['bytes']}")
                print(f"  quarantined: {doc['quarantined_segments']}")
            return 0
        if args.action == "verify":
            try:
                report = store.verify(strict=args.strict)
            except DataCorruptionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                session.fail(str(exc))
                return 1
            status = "ok" if not report["errors"] else "CORRUPT"
            print(f"verify {status}: {report['records']} record(s), "
                  f"{report['bytes']} payload byte(s), "
                  f"{len(report['errors'])} error(s)")
            for err in report["errors"]:
                print(f"  {err}", file=sys.stderr)
            if report["errors"]:
                session.fail("store verification found corrupt records")
            return 1 if report["errors"] else 0
        # gc
        gc_report = store.gc(max_bytes=args.max_bytes or None)
        print(f"gc: kept {gc_report.kept}, dropped {gc_report.dropped}, "
              f"{gc_report.bytes_before} -> {gc_report.bytes_after} bytes "
              f"({gc_report.segments_removed} segment(s) compacted)")
        return 0


def cmd_serve(args: argparse.Namespace, session: Session) -> int:
    """Run the memoising simulation service until interrupted."""
    service = SimulationService(
        args.dir, host=args.host, port=args.port,
        max_requests=args.max_requests,
    )
    print(f"serving on http://{service.host}:{service.port} "
          f"(store {args.dir}, {len(service.store)} record(s))", flush=True)
    try:
        service.serve_forever()
    finally:
        service.close()
    print(f"served {service.requests_handled} request(s), "
          f"{service.executions} simulated, "
          f"{len(service._memo)} memoised")
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    store = sub.add_parser(
        "store",
        help="inspect / verify / compact a persistent result store",
    )
    store.add_argument(
        "action", choices=["stat", "verify", "gc"],
        help="stat: summary; verify: CRC re-read; gc: compact",
    )
    store.add_argument("dir", metavar="DIR", help="store directory")
    store.add_argument(
        "--json", action="store_true",
        help="stat: print the machine-readable summary",
    )
    store.add_argument(
        "--strict", action="store_true",
        help="verify: raise on the first corrupt record instead of listing",
    )
    store.add_argument(
        "--max-bytes", type=int, default=0, metavar="N",
        help="gc: size budget; newest records are kept (0 = keep all)",
    )
    # Maintenance must not write run manifests next to user campaigns.
    store.set_defaults(
        func=cmd_store,
        make_spec=lambda a: RunSpec(
            command="store", params={"action": a.action, "dir": a.dir},
            manifest_dir=""),
    )

    serve = sub.add_parser(
        "serve",
        help="memoising simulation service over a result store",
    )
    serve.add_argument("dir", metavar="DIR", help="store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8732,
        help="listen port (0 = let the OS pick; the bound port is printed)",
    )
    serve.add_argument(
        "--max-requests", type=int, default=0, metavar="N",
        help="exit after N handled requests (0 = serve until interrupted; "
             "used by smoke tests)",
    )
    # Always-on obs: store.{hits,misses,inflight} metrics back the
    # /v1/metrics endpoint even without artifact flags.
    serve.set_defaults(
        func=cmd_serve,
        make_spec=lambda a: RunSpec(
            command="serve",
            params={"dir": a.dir, "host": a.host, "port": a.port},
            obs=ObsPolicy(force=True),
            manifest_dir=""),
    )
