"""Off-core memory traffic and roofline analysis.

The paper's simulator sits on Accel-Sim "with added support for
asynchronous memory access": compute cycles only matter when the
memory system can feed them.  This module estimates the global-memory
traffic of each kernel invocation from the exact BBC/operand byte
sizes, converts it to memory cycles under a configurable per-core
bandwidth, and classifies the invocation as compute- or memory-bound —
the roofline view that explains, e.g., why SpMV speedups saturate on
very sparse matrices.

Bandwidth default: an A100 moves ~1.56 TB/s at 1.41 GHz across 108 SMs
with 4 tensor-core slots each -> ~2.5 bytes/cycle per Uni-STC slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.formats.bbc import BLOCK, TILE, BBCMatrix, pattern_col_masks
from repro.formats.bitarray import popcount16
from repro.kernels.vector import SparseVector
from repro.sim.results import SimReport

#: Bytes per FP64 value.
_VALUE_BYTES = 8

#: DRAM access energy per byte (pJ).  HBM2-class parts land around
#: 2.5 pJ/bit device-side; with the PHY/controller the per-byte system
#: cost is ~20 pJ — the figure end-to-end model energy uses to price
#: edge traffic that spills off chip.
DRAM_PJ_PER_BYTE = 20.0


@dataclass(frozen=True)
class MemoryConfig:
    """Per-core bandwidth model."""

    bytes_per_cycle: float = 2.5

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ConfigError("bandwidth must be positive")


DEFAULT_MEMORY = MemoryConfig()


def kernel_traffic_bytes(
    kernel: str,
    a: BBCMatrix,
    b: Optional[BBCMatrix] = None,
    b_cols: int = 64,
    x: Optional[SparseVector] = None,
    c_writes: Optional[float] = None,
    resident: Iterable[str] = (),
) -> Dict[str, float]:
    """Global-memory bytes one kernel invocation moves.

    - reading A: its full BBC encoding (values + metadata);
    - reading B: the dense operand bytes (SpMM), the second matrix's
      encoding (SpGEMM), or the vector (SpMV/SpMSpV);
    - writing C: one value+index per produced output element
      (``c_writes``, normally taken from the simulated report).

    ``resident`` names traffic components served by the on-chip edge
    buffer instead of DRAM: the graph runner's buffer plan passes
    ``{"read_b"}`` when the consumed activation stayed resident and
    ``{"write_c"}`` when the produced one will — those components are
    zeroed (the bytes never cross the memory bus).  A is never
    resident: weights and adjacency structures stream from DRAM.
    """
    kernel = kernel.lower()
    traffic = {"read_a": float(a.storage_bytes())}
    if kernel == "spmv":
        traffic["read_b"] = float(a.shape[1] * _VALUE_BYTES)
    elif kernel == "spmspv":
        if x is None:
            raise ShapeError("spmspv traffic needs the sparse vector x")
        traffic["read_b"] = float(x.nnz * (_VALUE_BYTES + 4))
    elif kernel == "spmm":
        traffic["read_b"] = float(a.shape[1] * b_cols * _VALUE_BYTES)
    elif kernel == "spgemm":
        other = b if b is not None else a
        traffic["read_b"] = float(other.storage_bytes())
    else:
        raise ShapeError(f"unknown kernel {kernel!r}")
    if c_writes is None:
        c_writes = 0.0
    traffic["write_c"] = float(c_writes) * (_VALUE_BYTES + 4)
    for component in resident:
        if component == "read_a":
            raise ShapeError("operand A always streams from DRAM; "
                             "only read_b/write_c can be resident")
        if component not in traffic:
            raise ShapeError(f"unknown traffic component {component!r}")
        traffic[component] = 0.0
    return traffic


def dram_energy_pj(traffic: Dict[str, float]) -> float:
    """DRAM access energy (pJ) for one invocation's traffic dict."""
    return sum(traffic.values()) * DRAM_PJ_PER_BYTE


#: Structural flops per block triple (an A block meeting one B block
#: of its inner block row) at or above which :func:`spgemm_output_nnz`
#: counts through block row masks instead of expanding every flop.
#: The two break even between 6.5 and 10.5 on uniform random matrices
#: (n = 144-512); ResNet-50 conv nodes sit near 600, and hypersparse
#: inputs below 1, where the block path is 2.5-12x slower.
BLOCK_PATH_MIN_FLOPS_PER_TRIPLE = 8

#: Block triples whose row masks the block path materialises at once:
#: each temporary is at most this many x 16 lanes (1 MiB at int64).
_TRIPLE_CHUNK = 8192

def _structural_flops(a: BBCMatrix, b: BBCMatrix) -> int:
    """Structural flops of A @ B: sum over k of nnz(A[:, k]) * nnz(B[k, :]).

    Counted per block from row and column mask popcounts, never per
    flop.
    """
    pop = popcount16()
    b_counts = np.zeros((b.nblocks + 1, BLOCK), dtype=np.int64)
    np.cumsum(pop[b.block_row_masks()][b.block_patterns()[1]], axis=0, out=b_counts[1:])
    # Row counts of B per inner block row (K), then per A block (I, K).
    b_rows = b_counts[b.row_ptr[1:]] - b_counts[b.row_ptr[:-1]]
    patterns, ids, _ = a.block_patterns()
    a_cols = pop[pattern_col_masks(patterns)][ids]
    return int((a_cols * b_rows[a.col_idx]).sum())


def spgemm_output_nnz(a: BBCMatrix, b: Optional[BBCMatrix] = None,
                      flops: Optional[int] = None) -> int:
    """Exact structural nnz of C = A @ B (boolean product).

    Used for SpGEMM write-back traffic: partial products accumulate
    on-chip, so only the final output elements cross to memory.

    Two exact counts, picked by work per block triple (an A block
    meeting one B block of its inner block row): where each triple
    carries at least :data:`BLOCK_PATH_MIN_FLOPS_PER_TRIPLE` structural
    flops, :func:`_block_output_nnz` ORs 16-bit row masks per output
    block; below it (hypersparse inputs, about one nonzero per block)
    :func:`_expanded_output_nnz` expands each flop to a coordinate.
    Neither ever allocates the dense product.  A caller holding the
    product's SpGEMM report passes its ``products`` (every model's are
    the structural flops) as ``flops``, so they are not counted again;
    both paths are exact, so the hint picks a path and never changes
    the count.
    """
    other = b if b is not None else a
    if a.shape[1] != other.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {other.shape}")
    triples = int(np.diff(other.row_ptr)[a.col_idx].sum())
    if triples == 0:
        return 0
    threshold = BLOCK_PATH_MIN_FLOPS_PER_TRIPLE * triples
    if flops is None:
        # flops <= sum over A blocks of nnz(block) x nnz(B block row): when
        # even that bound is below the threshold, skip the exact count.
        block_row_nnz = np.diff(other.val_ptr_lv1[other.row_ptr])
        flops = int(np.diff(a.val_ptr_lv1) @ block_row_nnz[a.col_idx])
        if flops >= threshold:
            flops = _structural_flops(a, other)
    if flops < threshold:
        return _expanded_output_nnz(a, other)
    return _block_output_nnz(a, other)


def _expanded_output_nnz(a: BBCMatrix, b: BBCMatrix) -> int:
    """Output nnz by flop expansion: O(flops) time and memory.

    A sparse CSR boolean product: every structural flop (A[i,k] != 0,
    B[k,j] != 0) is expanded to its output coordinate and distinct
    coordinates are counted.
    """
    a_rows, a_cols = a.structural_coords()
    if a_rows.size == 0:
        return 0
    b_rows, b_cols = (a_rows, a_cols) if b is a else b.structural_coords()
    # B's columns grouped by row; order within a row does not matter.
    b_cols = b_cols[np.argsort(b_rows, kind="stable")]
    b_row_ptr = np.zeros(b.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(b_rows, minlength=b.shape[0]), out=b_row_ptr[1:])
    counts = b_row_ptr[a_cols + 1] - b_row_ptr[a_cols]
    keep = counts > 0
    if not np.any(keep):
        return 0
    a_rows, a_cols, counts = a_rows[keep], a_cols[keep], counts[keep]
    ends = np.cumsum(counts)
    offsets = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - counts, counts)
    out_cols = b_cols[np.repeat(b_row_ptr[a_cols], counts) + offsets]
    # int64 coordinate keys cannot overflow for any matrix whose dense
    # form would even be addressable.
    keys = np.sort(np.repeat(a_rows, counts) * np.int64(b.shape[1]) + out_cols)
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _block_output_nnz(a: BBCMatrix, b: BBCMatrix) -> int:
    """Output nnz by block row masks: O(block triples) time.

    Row ``i`` of output block ``(I, J)`` is the OR, over every set bit
    ``k`` of row ``i`` of A block ``(I, K)``, of row ``k`` of B block
    ``(K, J)``.  Each triple's sixteen row masks are built four A bits
    at a time from a nibble table per distinct B pattern, triples are
    merged per output block with ``bitwise_or.reduceat``, and the
    merged masks are popcounted, :data:`_TRIPLE_CHUNK` triples at a
    time: memory is O(triples) for the indices plus one bounded chunk
    of masks.
    """
    per_a = np.diff(b.row_ptr)[a.col_idx]
    ends = np.cumsum(per_a)
    ntriples = int(ends[-1]) if ends.size else 0
    if ntriples == 0:
        return 0
    a_of = np.repeat(np.arange(a.nblocks, dtype=np.int64), per_a)
    b_of = (np.repeat(b.row_ptr[a.col_idx] - (ends - per_a), per_a)
            + np.arange(ntriples, dtype=np.int64))
    a_block_row = np.repeat(np.arange(a.block_rows, dtype=np.int64), np.diff(a.row_ptr))
    out_block = a_block_row[a_of] * b.block_cols + b.col_idx[b_of]
    order = np.argsort(out_block, kind="stable")
    out_block, a_of, b_of = out_block[order], a_of[order], b_of[order]

    # Each operand's distinct patterns are decoded once (and cached
    # with it); a triple reaches them through its blocks' pattern ids.
    a_rows = a.block_row_masks()
    a_pattern = a.block_patterns()[1][a_of]
    # table[p, g, n]: the OR of the rows 4g + t of distinct B pattern p
    # over the set bits t of nibble n, built by doubling one row at a
    # time.
    b_rows = b.block_row_masks().reshape(-1, TILE, TILE)
    table = np.zeros((b_rows.shape[0], TILE, 1), dtype=np.uint16)
    for t in range(TILE):
        table = np.concatenate((table, table | b_rows[:, :, t, None]), axis=2)
    table = table.reshape(-1)
    b_base = b.block_patterns()[1][b_of] * (TILE * 16)

    pop = popcount16()
    nnz = 0
    carry = np.zeros(BLOCK, dtype=np.uint16)
    carry_block = -1
    for lo in range(0, ntriples, _TRIPLE_CHUNK):
        rows = a_rows[a_pattern[lo:lo + _TRIPLE_CHUNK]]
        base = b_base[lo:lo + _TRIPLE_CHUNK, None]
        masks = table[base + (rows & 0xF)]
        for g in range(1, TILE):
            masks |= table[base + (16 * g) + ((rows >> (TILE * g)) & 0xF)]
        blocks = out_block[lo:lo + _TRIPLE_CHUNK]
        starts = np.flatnonzero(np.concatenate(([True], blocks[1:] != blocks[:-1])))
        merged = np.bitwise_or.reduceat(masks, starts, axis=0)
        # An output block split across chunks carries its partial OR.
        if blocks[0] == carry_block:
            merged[0] |= carry
        else:
            nnz += int(pop[carry].sum())
        carry, carry_block = merged[-1], blocks[-1]
        nnz += int(pop[merged[:-1]].sum(dtype=np.int64))
    return nnz + int(pop[carry].sum())


def memory_cycles(traffic: Dict[str, float], config: MemoryConfig = DEFAULT_MEMORY) -> int:
    """Cycles needed to move the given traffic at the configured bandwidth.

    Zero traffic costs zero cycles (an empty invocation moves nothing);
    any positive traffic costs at least one cycle (ceiling division).
    """
    total = sum(traffic.values())
    if total <= 0:
        return 0
    return max(1, int(-(-total // config.bytes_per_cycle)))


@dataclass
class RooflineReport:
    """Compute-vs-memory classification of one kernel invocation."""

    kernel: str
    stc: str
    compute_cycles: int
    memory_cycles: int
    traffic_bytes: float
    products: int = 0

    @property
    def bound(self) -> str:
        """"compute" or "memory" — whichever dominates."""
        return "compute" if self.compute_cycles >= self.memory_cycles else "memory"

    @property
    def effective_cycles(self) -> int:
        """Wall cycles with perfect compute/memory overlap."""
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def arithmetic_intensity(self) -> float:
        """Useful MACs per byte moved.

        ``products`` (the effective multiply count the simulator
        conserves across architectures) over the bytes moved — not
        cycles per byte, which would make a *slower* architecture look
        more "intense" on the same workload.
        """
        return self.products / self.traffic_bytes if self.traffic_bytes else 0.0


def roofline(
    report: SimReport,
    a: BBCMatrix,
    b: Optional[BBCMatrix] = None,
    b_cols: int = 64,
    x: Optional[SparseVector] = None,
    config: MemoryConfig = DEFAULT_MEMORY,
) -> RooflineReport:
    """Combine a simulated report with its memory traffic.

    SpGEMM write-back uses the exact structural nnz of C (partials
    accumulate on-chip), its path picked by the report's products; the
    other kernels write one element per simulated output write.
    """
    if report.kernel == "spgemm":
        c_writes = float(spgemm_output_nnz(a, b, flops=report.products))
    else:
        c_writes = report.counters.get("c_elem_writes")
    traffic = kernel_traffic_bytes(
        report.kernel, a, b=b, b_cols=b_cols, x=x, c_writes=c_writes,
    )
    return RooflineReport(
        kernel=report.kernel,
        stc=report.stc,
        compute_cycles=report.cycles,
        memory_cycles=memory_cycles(traffic, config),
        traffic_bytes=sum(traffic.values()),
        products=report.products,
    )
