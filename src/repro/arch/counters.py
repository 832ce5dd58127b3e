"""Action counters — the Sparseloop-style energy accounting substrate.

Every STC model counts, per simulated block, how many times each
hardware action happened: one int64 column per :data:`ACTIONS` entry
of its result rows (:data:`repro.arch.base.ACTION_COL`).  A report
keeps the folded counts in its int64 totals vector, and
:class:`Counters` is a read-only view of them.  The energy model
(:mod:`repro.energy.model`) later multiplies each count by an
energy-per-action constant.  Keeping counting and costing apart is
exactly the Sparseloop methodology the paper cites (§VI-A).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

#: The counter names every model may emit.  Models are free to leave
#: counters at zero but may not invent new names — this keeps the
#: energy table exhaustive.
ACTIONS = (
    "mac_ops",            # effective multiply-accumulates executed
    "lane_cycles",        # MAC-lane slots occupied (incl. padding within a task)
    "a_elem_reads",       # A nonzero values fetched from buffer/registers
    "b_elem_reads",       # B values fetched
    "c_elem_writes",      # result elements written towards C
    "a_net_transfers",    # A elements crossing the operand network
    "b_net_transfers",    # B elements crossing the operand network
    "c_net_transfers",    # C elements crossing the output network
    "a_broadcasts",       # A operand broadcast hops inside the MUX stage
    "b_broadcasts",       # B operand broadcast hops inside the MUX stage
    "tile_fetches",       # 4x4 tiles moved by the outer (tile) network
    "meta_reads",         # bitmap/metadata words read (TMS + DPG)
    "queue_ops",          # tile-queue / dot-product-queue pushes+pops
    "dpg_active_cycles",  # DPG-cycles spent powered on
    "dpg_gated_cycles",   # DPG-cycles spent power-gated (leakage only)
    "accum_accesses",     # accumulator-buffer read-modify-writes
    "sched_cycles",       # scheduler (TMS or equivalent front-end) cycles
)
_POSITION = {action: j for j, action in enumerate(ACTIONS)}


def whole_count(value, name: str) -> int:
    """``value`` as an exact int64 count; :class:`ValueError` naming
    ``name`` if it is fractional, negative, not finite, at least 2^63 or
    not a number (a journal line is input from outside the program)."""
    if isinstance(value, (float, np.integer)) and float(value).is_integer():
        value = int(value)
    if type(value) is not int or not 0 <= value < 1 << 63:
        raise ValueError(f"{name} must be a whole count in [0, 2^63), got {value!r}")
    return value


class Counters:
    """Action counts, one int64 per :data:`ACTIONS` entry in that order.

    A report's ``counters`` views its totals vector (``counts=``);
    ``Counters(mapping)`` checks and holds a mapping's counts.
    :meth:`get` and :meth:`as_dict` read them as floats, the type every
    report consumer has always seen.
    """

    __slots__ = ("counts",)

    def __init__(self, initial: Optional[Mapping[str, int]] = None,
                 counts: Optional[np.ndarray] = None) -> None:
        if counts is None:
            counts = np.zeros(len(ACTIONS), dtype=np.int64)
            for action, value in (initial or {}).items():
                counts[_position(action)] = whole_count(value, action)
        self.counts = counts

    def get(self, action: str) -> float:
        """Current count of ``action`` (0.0 if never recorded)."""
        return float(self.counts[_position(action)])

    def as_dict(self) -> Dict[str, float]:
        """The nonzero counts as floats, in :data:`ACTIONS` order."""
        return {action: float(count)
                for action, count in zip(ACTIONS, self.counts.tolist()) if count}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.as_dict().items()))
        return f"Counters({inner})"


def _position(action: str) -> int:
    if action not in _POSITION:
        raise KeyError(f"unknown action {action!r}; extend counters.ACTIONS")
    return _POSITION[action]
