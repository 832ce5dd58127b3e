"""Deterministic fault injection over the BBC format and the engine.

The BBC encoding carries built-in redundancy — level-1/level-2 bitmap
popcounts must agree with the tile and value array lengths — so many
metadata upsets are *detectable* without any extra storage.  This
module measures exactly that: a seeded :class:`FaultInjector` corrupts
one site per trial (a bitmap bit, a pointer, a stored value, a T1 task,
a cached block result), and the campaign classifies every injected
fault as

- **detected** — :meth:`BBCMatrix.validate` flags the corruption, the
  kernel crashes on it, task-count accounting disagrees, or the result
  store quarantines the corrupted segment;
- **masked** — the fault survives undetected but the observable output
  (numerics against :mod:`repro.kernels.reference`, or the simulated
  report) is unchanged;
- **sdc** — silent data corruption: undetected *and* wrong output.

Everything is driven by one ``numpy`` generator, so a campaign's
breakdown is a pure function of ``(matrix, kernel, trials, seed)``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.formats.bbc import BBCMatrix
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels import bbc_kernels, reference
from repro.kernels.batched import TaskBatch, coalesce_raw, kernel_task_batches
from repro.registry import create_stc
from repro.sim import engine
from repro.sim.engine import simulate_batches
from repro.store import ResultStore

#: Every fault kind a campaign cycles through.
FAULT_KINDS: Tuple[str, ...] = (
    "lv1_bitflip",    # flip one bit of a level-1 (tile-presence) bitmap
    "lv2_bitflip",    # flip one bit of a level-2 (element) bitmap
    "lv2_swap",       # move a set level-2 bit (popcount-preserving upset)
    "value_bitflip",  # flip one bit of a stored float64 value
    "row_ptr",        # perturb one outer-CSR row pointer
    "col_idx",        # retarget one stored block's column
    "task_drop",      # lose one T1 task from the stream
    "task_dup",       # replay one T1 task
    "task_reorder",   # shuffle the T1 stream (should always be masked)
    "cache_result",   # poison one in-memory memoised block result
    "cache_file",     # flip one byte of a persisted result-store segment
)

#: Kinds that corrupt the stored matrix itself.
_MATRIX_KINDS = frozenset(
    {"lv1_bitflip", "lv2_bitflip", "lv2_swap", "value_bitflip",
     "row_ptr", "col_idx"}
)


@dataclass(frozen=True)
class InjectedFault:
    """One injected fault: what was corrupted, and where."""

    kind: str
    site: str


@dataclass(frozen=True)
class FaultOutcome:
    """Classification of one injected fault."""

    fault: InjectedFault
    outcome: str  # "detected" | "masked" | "sdc"
    detail: str


@dataclass
class CampaignReport:
    """Aggregate of one injection campaign."""

    matrix: str
    kernel: str
    seed: int
    trials: List[FaultOutcome] = field(default_factory=list)

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Per-kind counts of detected / masked / sdc."""
        table: Dict[str, Dict[str, int]] = {}
        for trial in self.trials:
            row = table.setdefault(
                trial.fault.kind, {"detected": 0, "masked": 0, "sdc": 0}
            )
            row[trial.outcome] += 1
        return table

    def totals(self) -> Dict[str, int]:
        totals = {"detected": 0, "masked": 0, "sdc": 0}
        for trial in self.trials:
            totals[trial.outcome] += 1
        return totals

    def detection_coverage(self) -> float:
        """Detected / (detected + sdc) — masked faults are harmless."""
        totals = self.totals()
        consequential = totals["detected"] + totals["sdc"]
        return totals["detected"] / consequential if consequential else 1.0


class FaultInjector:
    """Seeded source of single-site corruptions.

    All randomness flows through one generator, so with a fixed seed
    the same sequence of calls injects the same faults.
    """

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)

    # -- matrix faults ---------------------------------------------------

    def inject_matrix(self, bbc: BBCMatrix, kind: str) -> Tuple[BBCMatrix, InjectedFault]:
        """Return a corrupted deep copy of ``bbc`` plus the fault record."""
        if bbc.nblocks == 0:
            raise ConfigError("cannot inject matrix faults into an empty matrix")
        corrupt = bbc.copy()
        rng = self.rng
        if kind == "lv1_bitflip":
            block = int(rng.integers(corrupt.nblocks))
            bit = int(rng.integers(16))
            corrupt.bitmap_lv1[block] ^= np.uint16(1 << bit)
            site = f"block {block} lv1 bit {bit}"
        elif kind == "lv2_bitflip":
            tile = int(rng.integers(corrupt.ntiles))
            bit = int(rng.integers(16))
            corrupt.bitmap_lv2[tile] ^= np.uint16(1 << bit)
            site = f"tile {tile} lv2 bit {bit}"
        elif kind == "lv2_swap":
            tile, set_bit, clear_bit = self._swap_site(corrupt)
            if tile is None:
                # Every tile is completely full; fall back to a plain flip.
                return self.inject_matrix(bbc, "lv2_bitflip")
            corrupt.bitmap_lv2[tile] ^= np.uint16((1 << set_bit) | (1 << clear_bit))
            site = f"tile {tile} lv2 bit {set_bit}->{clear_bit}"
        elif kind == "value_bitflip":
            idx = int(rng.integers(corrupt.nnz))
            bit = int(rng.integers(64))
            as_bits = corrupt.values.view(np.uint64)
            as_bits[idx] ^= np.uint64(1) << np.uint64(bit)
            site = f"value {idx} bit {bit}"
        elif kind == "row_ptr":
            if corrupt.row_ptr.size <= 2:
                # Single block row: only the endpoints exist; corrupt the end.
                pos = corrupt.row_ptr.size - 1
            else:
                pos = int(rng.integers(1, corrupt.row_ptr.size - 1))
            delta = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
            corrupt.row_ptr[pos] += delta
            site = f"row_ptr[{pos}] {delta:+d}"
        elif kind == "col_idx":
            pos = int(rng.integers(corrupt.nblocks))
            new_col = int(rng.integers(corrupt.block_cols))
            old = int(corrupt.col_idx[pos])
            corrupt.col_idx[pos] = new_col
            site = f"col_idx[{pos}] {old}->{new_col}"
        else:
            raise ConfigError(f"unknown matrix fault kind {kind!r}")
        return corrupt, InjectedFault(kind=kind, site=site)

    def _swap_site(self, bbc: BBCMatrix) -> Tuple[Optional[int], int, int]:
        """A tile with both set and clear bits, chosen reproducibly."""
        order = self.rng.permutation(bbc.ntiles)
        for tile in order:
            bits = int(bbc.bitmap_lv2[tile])
            set_bits = [b for b in range(16) if bits & (1 << b)]
            clear_bits = [b for b in range(16) if not bits & (1 << b)]
            if set_bits and clear_bits:
                return (
                    int(tile),
                    int(self.rng.choice(set_bits)),
                    int(self.rng.choice(clear_bits)),
                )
        return None, 0, 0

    # -- task-stream faults ----------------------------------------------

    def corrupt_tasks(self, batch: TaskBatch, kind: str) -> Tuple[TaskBatch, InjectedFault]:
        """Drop, duplicate or reorder one task entry of a T1 task batch."""
        count = len(batch)
        if not count:
            raise ConfigError("cannot corrupt an empty task stream")
        if kind == "task_drop":
            idx = int(self.rng.integers(count))
            rows = np.delete(np.arange(count), idx)
            site = f"dropped task {idx}/{count}"
        elif kind == "task_dup":
            idx = int(self.rng.integers(count))
            rows = np.insert(np.arange(count), idx + 1, idx)
            site = f"duplicated task {idx}/{count}"
        elif kind == "task_reorder":
            rows = self.rng.permutation(count)
            site = f"shuffled {count} tasks"
        else:
            raise ConfigError(f"unknown task fault kind {kind!r}")
        return batch.take(rows), InjectedFault(kind=kind, site=site)

    # -- cached-result faults --------------------------------------------

    def corrupt_cached_result(self, key: tuple) -> Tuple[np.ndarray, InjectedFault]:
        """Swap one memoised row for a poisoned copy; returns the original."""
        original = engine._BLOCK_CACHE[key]
        delta = int(self.rng.integers(1, 1000))
        poisoned = original.copy()
        poisoned[0] += delta  # the cycles column
        engine._BLOCK_CACHE[key] = poisoned
        return original, InjectedFault(
            kind="cache_result", site=f"cached cycles {int(original[0]):+d}{delta:+d}"
        )


# -- classification -----------------------------------------------------


def _numeric_output(bbc: BBCMatrix, kernel: str, operand: np.ndarray) -> np.ndarray:
    if kernel == "spmv":
        return bbc_kernels.spmv(bbc, operand)
    if kernel == "spmm":
        return bbc_kernels.spmm(bbc, operand)
    raise ConfigError(f"fault campaigns support spmv/spmm, not {kernel!r}")


def _reference_output(csr: CSRMatrix, kernel: str, operand: np.ndarray) -> np.ndarray:
    if kernel == "spmv":
        return reference.spmv(csr, operand)
    return reference.spmm(csr, operand)


def classify_matrix_fault(
    corrupt: BBCMatrix,
    ref_output: np.ndarray,
    kernel: str,
    operand: np.ndarray,
) -> Tuple[str, str]:
    """Detected / masked / sdc verdict for one corrupted matrix."""
    issues = corrupt.validate()
    if issues:
        return "detected", f"validate: {issues[0]}"
    try:
        got = _numeric_output(corrupt, kernel, operand)
    except Exception as exc:  # noqa: BLE001 - a crash counts as detection
        return "detected", f"kernel raised {type(exc).__name__}: {exc}"
    if got.shape != ref_output.shape or not np.allclose(
        got, ref_output, rtol=1e-9, atol=1e-12
    ):
        return "sdc", "output differs from golden reference"
    return "masked", "output matches golden reference"


def _classify_task_fault(
    faulted: TaskBatch,
    expected_weight: int,
    clean_cycles: int,
    clean_products: int,
    stc,
    kernel: str,
) -> Tuple[str, str]:
    got_weight = faulted.total_tasks
    if got_weight != expected_weight:
        return "detected", (
            f"task-count accounting mismatch ({got_weight} != {expected_weight})"
        )
    report = simulate_batches(stc, [faulted], kernel=kernel, energy_model=None)
    if report.cycles != clean_cycles or report.products != clean_products:
        return "sdc", "simulated totals drifted undetected"
    return "masked", "simulated totals unchanged"


def _classify_cache_file_fault(rows: Dict[tuple, np.ndarray],
                               rng: np.random.Generator) -> Tuple[str, str]:
    """Persist ``rows`` to a fresh store, flip one segment byte, reopen."""
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        root = Path(tmp) / "store"
        with ResultStore(root) as store:
            for key, row in rows.items():
                store.insert(key, row)
        (segment,) = store.segment_dir.glob("*.seg")
        blob = bytearray(segment.read_bytes())
        pos = int(rng.integers(len(blob)))
        blob[pos] ^= 1 << int(rng.integers(8))
        segment.write_bytes(bytes(blob))
        with ResultStore(root) as store:
            if store.stats.quarantined:
                return "detected", f"byte {pos} flip quarantined the segment"
            found = {key: store.lookup(key) for key in rows}
        if any(got is not None and not np.array_equal(got, rows[key])
               for key, got in found.items()):
            return "sdc", f"byte {pos} flip changed a stored row undetected"
        misses = sum(got is None for got in found.values())
        return "masked", f"byte {pos} flip cost {misses} store miss(es)"


def run_campaign(
    coo: COOMatrix,
    kernel: str = "spmv",
    trials: int = 32,
    seed: int = 0,
    kinds: Sequence[str] = FAULT_KINDS,
    matrix_name: str = "matrix",
) -> CampaignReport:
    """Inject ``trials`` single faults and classify each one.

    Fault kinds are applied round-robin (balanced coverage); sites are
    drawn from the seeded generator, so the whole breakdown is
    reproducible.  The engine's memoisation cache is snapshotted and
    restored around the cache-poisoning trials — a campaign never
    leaves corrupted state behind.
    """
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown:
        raise ConfigError(f"unknown fault kinds {unknown}; choose from {FAULT_KINDS}")
    if trials <= 0:
        raise ConfigError("a campaign needs at least one trial")

    injector = FaultInjector(seed)
    rng = injector.rng
    clean_bbc = BBCMatrix.from_coo(coo)
    if clean_bbc.nblocks == 0:
        raise ConfigError("fault campaigns need a non-empty matrix")
    clean_csr = CSRMatrix.from_coo(coo)

    op_rng = np.random.default_rng(seed + 1)
    if kernel == "spmv":
        operand = op_rng.random(coo.shape[1])
    elif kernel == "spmm":
        operand = op_rng.random((coo.shape[1], 16))
    else:
        raise ConfigError(f"fault campaigns support spmv/spmm, not {kernel!r}")
    ref_output = _reference_output(clean_csr, kernel, operand)

    # Clean task stream + simulated totals, for the task/cache trials.
    stc = create_stc("uni-stc")
    (clean_batch,) = kernel_task_batches(kernel, clean_bbc)
    expected_weight = clean_batch.total_tasks
    clean_report = simulate_batches(stc, [clean_batch], kernel=kernel, energy_model=None)
    raw = coalesce_raw(clean_batch)
    cache_keys = sorted((stc.cache_key(), raw.a_bytes[ai], raw.b_bytes[bi])
                        for ai, bi, _ in raw.pairs)
    clean_rows = {key: engine._BLOCK_CACHE[key] for key in cache_keys}

    report = CampaignReport(matrix=matrix_name, kernel=kernel, seed=seed)
    for i in range(trials):
        kind = kinds[i % len(kinds)]
        if kind in _MATRIX_KINDS:
            corrupt, fault = injector.inject_matrix(clean_bbc, kind)
            outcome, detail = classify_matrix_fault(corrupt, ref_output, kernel, operand)
        elif kind in ("task_drop", "task_dup", "task_reorder"):
            faulted, fault = injector.corrupt_tasks(clean_batch, kind)
            outcome, detail = _classify_task_fault(
                faulted, expected_weight, clean_report.cycles,
                clean_report.products, stc, kernel,
            )
        elif kind == "cache_result":
            key = cache_keys[int(rng.integers(len(cache_keys)))]
            original, fault = injector.corrupt_cached_result(key)
            try:
                poisoned = simulate_batches(
                    stc, [clean_batch], kernel=kernel, energy_model=None
                )
                if poisoned.cycles != clean_report.cycles:
                    outcome, detail = "sdc", "poisoned cache shifted reported cycles"
                else:
                    outcome, detail = "masked", "poisoned entry never consulted"
            finally:
                engine._BLOCK_CACHE[key] = original
        elif kind == "cache_file":
            fault = InjectedFault(kind="cache_file", site="store segment byte flip")
            outcome, detail = _classify_cache_file_fault(clean_rows, rng)
        else:  # pragma: no cover - guarded by the kinds check above
            raise ConfigError(f"unhandled fault kind {kind!r}")
        report.trials.append(FaultOutcome(fault=fault, outcome=outcome, detail=detail))
    return report
