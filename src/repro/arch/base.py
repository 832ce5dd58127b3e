"""The common simulator interface every STC model implements.

A model turns one :class:`~repro.arch.tasks.T1Task` into a block
result: cycles, intermediate products, a per-cycle MAC-utilisation
histogram, and the action counters the energy model prices.  Between a
model and a :class:`~repro.sim.results.SimReport` that result is one
int64 row in the :data:`VECTOR_WIDTH` layout, ``[cycles, products,
util bins 0..3, one count per ACTIONS entry]``: batched evaluation of a
:class:`~repro.kernels.batched.TaskBatch` of packed pattern pairs
returns ``[N, VECTOR_WIDTH]`` arrays of them, and the block cache, the
result store and aggregation hold nothing else.  The stepped
``simulate_block`` returns a readable :class:`BlockResult`, the parity
reference; :meth:`BlockResult.row` is its one conversion.  The engine
(:mod:`repro.sim.engine`) memoises rows on the task's packed pattern
pair, so models must be pure functions of the task.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.arch.counters import ACTIONS, Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.errors import SimulationError

#: Width of a block-result row:
#: [cycles, products, util bins 0..3, one slot per ``ACTIONS`` entry].
VECTOR_WIDTH = 2 + 4 + len(ACTIONS)

#: Column of each action inside a result row.
ACTION_COL = {name: 6 + j for j, name in enumerate(ACTIONS)}


@dataclass
class BlockResult:
    """Outcome of simulating one T1 task on one STC."""

    cycles: int
    products: int
    util_hist: UtilHistogram = field(default_factory=UtilHistogram)
    counters: Counters = field(default_factory=Counters)

    def __post_init__(self) -> None:
        if self.cycles < 0 or self.products < 0:
            raise SimulationError("cycles and products must be non-negative")

    def row(self) -> np.ndarray:
        """The result as one int64 row in the :data:`VECTOR_WIDTH` layout.

        Every count is an integer by construction; a fractional one is
        a model bug and raises :class:`SimulationError` naming it.
        """
        counts = [self.counters.get(action) for action in ACTIONS]
        fractional = [a for a, count in zip(ACTIONS, counts) if count % 1]
        if fractional:
            raise SimulationError(
                f"fractional action count(s) {fractional}: a block result's "
                "counts must be integers")
        return np.array([self.cycles, self.products, *self.util_hist.bins, *counts],
                        dtype=np.int64)

    @property
    def mean_utilisation(self) -> float:
        """Average MAC utilisation implied by products / (cycles * lanes).

        Only meaningful when the owning model records ``lane budget x
        cycles`` consistently; exposed for convenience in tests.
        """
        lanes = self.counters.get("lane_cycles")
        return self.products / lanes if lanes else 0.0


class STCModel(ABC):
    """Abstract sparse tensor core: a per-block dataflow model."""

    #: Short display name used in reports and benchmark tables.
    name: str = "stc"

    @abstractmethod
    def simulate_block(self, task: T1Task) -> BlockResult:
        """Simulate one 16x16x16 block task and return its outcome."""

    def simulate_blocks(self, batch) -> np.ndarray:
        """Evaluate a batch of block tasks as one ``[N, VECTOR_WIDTH]`` int64 array.

        Row ``i`` is the result of pattern pair ``i`` of ``batch``, a
        :class:`~repro.kernels.batched.TaskBatch`, whatever its weight.
        Every registered model overrides this with an array evaluator
        over the packed patterns, each decoded once per call
        (:func:`~repro.arch.batch.evaluate_packed`); the default steps
        :meth:`simulate_block` over ``batch.iter_tasks()`` for
        out-of-tree models.  Overrides must equal the stepped rows
        exactly — the engine's memo treats the two interchangeably.
        """
        rows = [self.simulate_block(task).row() for task in batch.iter_tasks()]
        return np.array(rows, dtype=np.int64).reshape(len(rows), VECTOR_WIDTH)

    @property
    @abstractmethod
    def macs(self) -> int:
        """MAC lanes available per cycle."""

    def cache_key(self) -> str:
        """Memoisation namespace; distinct per configured instance."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, macs={self.macs})"
