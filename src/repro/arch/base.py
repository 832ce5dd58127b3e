"""The common simulator interface every STC model implements.

A model turns one :class:`~repro.arch.tasks.T1Task` into a
:class:`BlockResult`: cycles, a per-cycle MAC-utilisation histogram,
and the action counters the energy model prices.  The simulation
engine (:mod:`repro.sim.engine`) memoises ``simulate_block`` on the
task's bitmap pair, so models must be pure functions of the task.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.counters import ACTIONS, Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.errors import SimulationError

#: Layout of :meth:`BlockResult.action_vector`:
#: [cycles, products, util bins 0..3, one slot per ``ACTIONS`` entry].
VECTOR_WIDTH = 2 + 4 + len(ACTIONS)


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

    def action_vector(self) -> np.ndarray:
        """The result flattened to one float64 row (see ``VECTOR_WIDTH``).

        Memoised results are aggregated millions of times across a
        corpus sweep; flattening once lets the engine reduce a whole
        coalesced task stream with a single weighted matrix product
        instead of per-task ``Counters.merge`` calls.  The vector is
        cached on first use — results in the block cache are treated
        as immutable.
        """
        vec = getattr(self, "_vector", None)
        if vec is None:
            vec = np.zeros(VECTOR_WIDTH)
            vec[0] = self.cycles
            vec[1] = self.products
            vec[2:6] = self.util_hist.bins
            for j, action in enumerate(ACTIONS):
                vec[6 + j] = self.counters.get(action)
            self._vector = vec
        return vec

    def action_vector_int(self) -> Optional[np.ndarray]:
        """:meth:`action_vector` as int64, or ``None`` when non-integral.

        Corpus-scale aggregation sums these in the integer domain so
        totals stay exact past 2^53, where float64 accumulation would
        silently round.  Models whose counters genuinely carry
        fractional values return ``None`` and are aggregated in float64
        as before.  Cached like the float vector.
        """
        vec = getattr(self, "_int_vector", False)
        if vec is False:
            float_vec = self.action_vector()
            as_int = np.rint(float_vec).astype(np.int64)
            vec = as_int if np.array_equal(as_int, float_vec) else None
            self._int_vector = vec
        return vec

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

    def simulate_blocks(self, tasks: Sequence[T1Task]) -> List[BlockResult]:
        """Evaluate a batch of block tasks; ``results[i]`` is ``tasks[i]``'s.

        Every registered model overrides this with an array evaluator
        over operand stacks (built with :mod:`repro.arch.batch`); the
        default, which steps :meth:`simulate_block` per task, serves
        only out-of-tree models.  Overrides must return results equal
        to the per-block path — the engine's memo treats the two
        interchangeably.
        """
        return [self.simulate_block(task) for task in tasks]

    @property
    @abstractmethod
    def macs(self) -> int:
        """MAC lanes available per cycle."""

    def cache_key(self) -> str:
        """Memoisation namespace; distinct per configured instance."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, macs={self.macs})"
