"""Human-readable dataflow traces — the Fig. 8/9/11 walkthrough as code.

``trace_block`` replays one T1 task through the TMS → DPG → SDPU
stages and returns a structured, printable trace: which T3 tasks each
cycle dispatched (and to which DPG), the 8-bit T4 codes each DPG
emitted, and how the SDPU packed the resulting segments.  Used by the
``examples/uwmma_walkthrough.py`` example and by tests that pin the
paper's worked examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.arch.batch import b_count_words, count_tables
from repro.arch.config import UniSTCConfig
from repro.arch.dpg import DotProductGenerator
from repro.arch.sdpu import SegmentedDotProductUnit
from repro.arch.tasks import T1Task
from repro.arch.tms import TileMultiplyScheduler


_NIBBLES = np.arange(0, 16, 4, dtype=np.uint16)


@dataclass
class TracedT4:
    """One emitted T4 task with its decoded meaning."""

    code: int
    target: int
    pattern: int
    length: int

    def describe(self) -> str:
        matched = [kk for kk in range(4) if self.pattern & (1 << kk)]
        terms = " + ".join(f"A[.,{kk}]*B[{kk},.]" for kk in matched)
        return f"code {self.code:#04x}: C[{self.target}] += {terms}"


@dataclass
class TracedDispatch:
    """One T3 task dispatched in one cycle."""

    dpg: int
    i: int
    j: int
    k: int
    products: int
    t4_tasks: List[TracedT4] = field(default_factory=list)


@dataclass
class TracedCycle:
    """Everything that happened in one execution cycle."""

    index: int
    dispatches: List[TracedDispatch] = field(default_factory=list)
    conflict: bool = False
    lanes_used: int = 0

    @property
    def utilisation(self) -> float:
        return self.lanes_used


@dataclass
class BlockTrace:
    """The full trace of one T1 task."""

    cycles: List[TracedCycle] = field(default_factory=list)
    macs: int = 64

    def render(self, max_cycles: Optional[int] = 8) -> str:
        """Pretty-print the first ``max_cycles`` cycles."""
        lines: List[str] = []
        shown = self.cycles if max_cycles is None else self.cycles[:max_cycles]
        for cyc in shown:
            util = 100 * cyc.lanes_used / self.macs
            flag = "  [conflict stall]" if cyc.conflict else ""
            lines.append(f"cycle {cyc.index}: {cyc.lanes_used}/{self.macs} lanes "
                         f"({util:.0f}%){flag}")
            for d in cyc.dispatches:
                lines.append(f"  DPG{d.dpg}: T3 C({d.i},{d.j}) += A({d.i},{d.k}) x "
                             f"B({d.k},{d.j})  [{d.products} products]")
                for t4 in d.t4_tasks[:4]:
                    lines.append(f"        T4 {t4.describe()}")
                if len(d.t4_tasks) > 4:
                    lines.append(f"        ... {len(d.t4_tasks) - 4} more T4 tasks")
        if max_cycles is not None and len(self.cycles) > max_cycles:
            lines.append(f"... {len(self.cycles) - max_cycles} more cycles")
        return "\n".join(lines)


def trace_block(task: T1Task, config: Optional[UniSTCConfig] = None,
                ordering: str = "outer", fill_order: str = "z") -> BlockTrace:
    """Replay one T1 task and capture the per-cycle dataflow.

    The TMS schedules the block's T3 tasks; each cycle's dispatched
    tasks go through the DPG, and the SDPU packs their T4 segments,
    which must fill exactly the lanes the scheduler budgeted.  DPG
    wake-up stalls are not traced.
    """
    cfg = config or UniSTCConfig()
    a_tiles = np.frombuffer(task.a_bits, dtype="<u2").reshape(4, 4)
    b = np.frombuffer(task.b_bits, dtype="<u2")
    # A segment's nibble k is its tile (k, 0).
    b_tiles = b.reshape(4, 4) if b.size > 1 else ((b >> _NIBBLES) & 0xF)[:, None]
    # Byte 3 of a column-count word times a row-count word: the tile pair's products.
    products = ((count_tables()[0][a_tiles].T[:, :, None] * b_count_words(b[None])[0][:, None])
                >> 24).astype(np.int64)                        # [k, i, j]
    n_cols = b_tiles.shape[1]
    trace = BlockTrace(macs=cfg.macs)
    if not products.any():
        trace.cycles.append(TracedCycle(index=0))
        return trace

    dpg = DotProductGenerator(fill_order)
    sdpu = SegmentedDotProductUnit(cfg.macs)
    outcome = TileMultiplyScheduler(cfg).schedule(products, ordering)
    for index, record in enumerate(outcome.cycles):
        cyc = TracedCycle(index=index, conflict=record.conflict)
        segments: List[int] = []
        for slot, t3 in enumerate(record.dispatched):
            out = dpg.decompose(int(a_tiles[t3.i, t3.k]), int(b_tiles[t3.k, t3.j]),
                                n_cols)
            traced = TracedDispatch(dpg=slot, i=t3.i, j=t3.j, k=t3.k, products=t3.products)
            for t4 in out.t4_tasks:
                traced.t4_tasks.append(
                    TracedT4(code=t4.code, target=t4.target,
                             pattern=t4.pattern, length=t4.length)
                )
                segments.append(t4.length)
            cyc.dispatches.append(traced)
        batches = sdpu.pack(segments) if segments else []
        cyc.lanes_used = sum(b.lanes_used for b in batches)
        if cyc.lanes_used != record.products:
            raise AssertionError("trace diverged from the scheduler")
        trace.cycles.append(cyc)
    return trace
