"""The common simulator interface every STC model implements.

A model turns a batch of T1 tasks (16x16x16 block multiplies,
:class:`~repro.arch.tasks.T1Task`) into block results: cycles,
intermediate products, a per-cycle MAC-utilisation histogram, and the
action counters the energy model prices.  A block result is one int64
row in the :data:`VECTOR_WIDTH` layout, ``[cycles, products, util bins
0..3, one count per ACTIONS entry]``, from the model to the
:class:`~repro.sim.results.SimReport`: :meth:`STCModel.simulate_blocks`
evaluates a :class:`~repro.kernels.batched.TaskBatch` of packed
pattern pairs into a ``[N, VECTOR_WIDTH]`` array of them.  Once
memoised, a row has one form: its values as :data:`ROW_BYTES`
little-endian bytes, which the block cache holds, the result store
persists as its record tail, and aggregation folds back into one
matrix per run (:func:`row_matrix`).  The engine
(:mod:`repro.sim.engine`) memoises rows on the task's packed pattern
pair, so models must be pure functions of the pair.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.arch.counters import ACTIONS

#: Width of a block-result row:
#: [cycles, products, util bins 0..3, one slot per ``ACTIONS`` entry].
VECTOR_WIDTH = 2 + 4 + len(ACTIONS)

#: Column of each action inside a result row.
ACTION_COL = {name: 6 + j for j, name in enumerate(ACTIONS)}

#: A memoised row's byte form: ``VECTOR_WIDTH`` little-endian int64s.
ROW_DTYPE = np.dtype("<i8")
ROW_BYTES = VECTOR_WIDTH * ROW_DTYPE.itemsize


def row_matrix(rows) -> np.ndarray:
    """Byte rows as one read-only ``[len(rows), VECTOR_WIDTH]`` int64 array."""
    return np.frombuffer(b"".join(rows), ROW_DTYPE).reshape(-1, VECTOR_WIDTH)


class STCModel(ABC):
    """Abstract sparse tensor core: a batched per-block dataflow model."""

    #: Short display name used in reports and benchmark tables.
    name: str = "stc"

    @abstractmethod
    def simulate_blocks(self, batch) -> np.ndarray:
        """Evaluate a batch of block tasks as one ``[N, VECTOR_WIDTH]`` int64 array.

        Row ``i`` is the result of pattern pair ``i`` of ``batch``, a
        :class:`~repro.kernels.batched.TaskBatch`, whatever its weight:
        cycles, products, the four Fig. 5 utilisation bins (which sum
        to the cycles) and one integer count per ``ACTIONS`` entry.
        Every registered model implements this with an array evaluator
        over the packed patterns, each decoded once per call
        (:func:`~repro.arch.batch.evaluate_packed`).
        """

    @property
    @abstractmethod
    def macs(self) -> int:
        """MAC lanes available per cycle."""

    def cache_key(self) -> str:
        """Memoisation namespace; distinct per configured instance."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, macs={self.macs})"
