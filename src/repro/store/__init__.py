"""repro.store — persistent content-addressed block-result storage.

Two halves:

- :mod:`repro.store.resultstore` — the durable store itself: an
  append-only, CRC-checked, multi-process-safe segment format whose
  records are addressed by their own key bytes; it backs the process
  LRU (:mod:`repro.sim.blockcache`) as a second tier, so campaigns,
  DSE strategies and worker fleets replay warm.
- :mod:`repro.store.service` — ``repro serve``: a zero-dependency
  ``http.server`` JSON API that memoises RunSpec-shaped simulation
  requests on top of a bound store, with single-flight deduplication
  of concurrent identical requests.

See ``docs/store.md`` for the on-disk format, the keying contract and
the service API.
"""

from __future__ import annotations

from repro.store.resultstore import (
    MANIFEST_NAME,
    STORE_SCHEMA,
    GCReport,
    ResultStore,
    StoreStats,
    encode_record,
)
from repro.store.service import SimulationService

__all__ = [
    "GCReport",
    "MANIFEST_NAME",
    "ResultStore",
    "STORE_SCHEMA",
    "SimulationService",
    "StoreStats",
    "encode_record",
]
