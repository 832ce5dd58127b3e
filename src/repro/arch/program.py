"""UWMMA program construction and execution (§IV-F/G + Algorithms 1-2).

Builds the instruction stream a kernel invocation issues — the software
view of the dataflow — and executes it against the pipeline model,
reproducing the execution lifecycle of §IV-G: synchronous operand
loads, *asynchronous* task generation (the SM retires `stc.task_gen`
immediately), and `stc.numeric` instructions that stall only while the
task queues are still BUSY.

This layer answers a question the per-block simulator alone cannot:
how many cycles does the *SM* observe, given that task generation for
block n+1 overlaps execution of block n?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.arch.isa import UWMMA
from repro.arch.pipeline import PIPELINE_STAGES
from repro.arch.unistc import UniSTC
from repro.errors import SimulationError
from repro.formats.bbc import BBCMatrix
from repro.kernels.batched import kernel_task_batches


@dataclass(frozen=True)
class ExecutedInstruction:
    """One issued UWMMA instruction with its realised cycle count."""

    opcode: str
    cycles: int
    asynchronous: bool
    stall_cycles: int = 0

    @property
    def sm_cycles(self) -> int:
        """Cycles the SM is occupied (asynchronous issues retire in 1)."""
        return 1 if self.asynchronous else self.cycles + self.stall_cycles


@dataclass
class ProgramResult:
    """Executed program: per-instruction trace plus totals."""

    kernel: str
    instructions: List[ExecutedInstruction] = field(default_factory=list)
    t1_tasks: int = 0

    @property
    def sm_cycles(self) -> int:
        """Total cycles the SM observes (loads + numeric + stalls)."""
        return sum(inst.sm_cycles for inst in self.instructions)

    @property
    def numeric_cycles(self) -> int:
        """Pure SDPU execution cycles across all numeric instructions."""
        return sum(
            inst.cycles for inst in self.instructions
            if inst.opcode.startswith("stc.numeric")
        )

    @property
    def stall_cycles(self) -> int:
        """Cycles `stc.numeric` spent waiting on BUSY task queues."""
        return sum(inst.stall_cycles for inst in self.instructions)

    @property
    def overlap_efficiency(self) -> float:
        """numeric / (numeric + stalls): 1.0 = task generation fully hidden."""
        busy = self.numeric_cycles + self.stall_cycles
        return self.numeric_cycles / busy if busy else 1.0


def compile_kernel(
    kernel: str,
    a: BBCMatrix,
    stc: Optional[UniSTC] = None,
    **operands,
) -> ProgramResult:
    """Build and execute the UWMMA program of one kernel invocation.

    Per T1 task the program issues (Algorithms 1 & 2): the meta load,
    the A-block value load, the asynchronous `stc.task_gen`, and the
    `stc.numeric` batch.  Task generation of the *next* block overlaps
    the current numeric phase, so only generation time exceeding the
    previous block's execution shows up as a stall — the first block
    always pays the pipeline fill.
    """
    uni = stc or UniSTC()
    blocks: List[Tuple[int, int]] = []  # (cycles, weight) in issue order
    for batch in kernel_task_batches(kernel, a, **operands):
        # Stable on the A block, so each block's panel tasks keep their
        # enumeration order: the block-by-block issue of Algorithms 1-2.
        tasks = list(batch.take(np.argsort(batch.a_index, kind="stable")).iter_tasks())
        if tasks:
            cycles = uni.simulate_blocks(tasks)[:, 0].tolist()
            blocks.extend(zip(cycles, (task.weight for task in tasks)))
    return _issue_program(kernel, uni, blocks)


def _issue_program(kernel: str, uni: UniSTC,
                   blocks: Iterable[Tuple[int, int]]) -> ProgramResult:
    """Issue one instruction group per T1 task of ``(cycles, weight)`` blocks."""
    vector = kernel.lower() in ("spmv", "spmspv")
    suffix = "mv" if vector else "mm"
    result = ProgramResult(kernel=kernel.lower())

    pending_generation = 0  # generation cycles not yet hidden
    for block_cycles, weight in blocks:
        for _ in range(weight):
            exec_cycles = max(1, block_cycles)
            gen_inst = UWMMA[f"stc.task_gen.{suffix}"]
            gen_cycles = gen_inst.cycles_for(max(1, exec_cycles // uni.config.num_dpgs))
            numeric_inst = UWMMA[f"stc.numeric.{suffix}"]
            numeric_cycles = numeric_inst.cycles_for(exec_cycles)

            result.instructions.append(ExecutedInstruction(
                f"stc.load.meta_{suffix}", UWMMA[f"stc.load.meta_{suffix}"].min_cycles, False
            ))
            result.instructions.append(ExecutedInstruction(
                "stc.load.a", UWMMA["stc.load.a"].min_cycles, False
            ))
            result.instructions.append(ExecutedInstruction(
                f"stc.task_gen.{suffix}", gen_cycles, True
            ))
            if result.t1_tasks == 0:
                # First block: nothing to overlap with; pay the fill.
                stall = PIPELINE_STAGES - 1
            else:
                stall = max(0, pending_generation - numeric_cycles)
            result.instructions.append(ExecutedInstruction(
                f"stc.numeric.{suffix}", numeric_cycles, False, stall_cycles=stall
            ))
            pending_generation = gen_cycles
            result.t1_tasks += 1
    return result


def iter_numeric_cycles(result: ProgramResult) -> Iterator[int]:
    """Yield the realised cycles of every numeric instruction in order."""
    for inst in result.instructions:
        if inst.opcode.startswith("stc.numeric"):
            yield inst.cycles


def validate_program(result: ProgramResult) -> None:
    """Structural checks: every T1 task issued its full 4-instruction group."""
    if result.t1_tasks == 0:
        if result.instructions:
            raise SimulationError("instructions recorded without any T1 task")
        return
    if len(result.instructions) != 4 * result.t1_tasks:
        raise SimulationError(
            f"expected {4 * result.t1_tasks} instructions, got {len(result.instructions)}"
        )
    opcodes = [inst.opcode.rsplit(".", 1)[0] for inst in result.instructions[:4]]
    if opcodes != ["stc.load", "stc.load", "stc.task_gen", "stc.numeric"]:
        raise SimulationError(f"malformed instruction group: {opcodes}")
