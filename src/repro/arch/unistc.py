"""The assembled Uni-STC simulator: TMS → DPG → SDPU per T1 task.

For each 16x16x16 block task of a batch the model (1) reads the
level-1/level-2 tile bitmaps the BBC format supplies, (2) lets the TMS
generate, order and dispatch T3 tasks into per-cycle batches under the
MAC/DPG budgets and the output-conflict rule, (3) decomposes every
dispatched T3 task into T4 segments through the DPG, and (4) emits
cycles, the per-cycle utilisation histogram and all energy action
counters (including the dynamic-gating split of DPG cycles).  The
array evaluation lives in :mod:`repro.arch.fastpath`; ``repro trace``
(:mod:`repro.arch.dataflow_trace`) walks one block through the same
stages cycle by cycle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arch.base import STCModel
from repro.arch.config import UniSTCConfig
from repro.arch.dpg import FILL_ORDERS
from repro.arch.tms import ORDERINGS
from repro.errors import ConfigError


class UniSTC(STCModel):
    """The paper's unified sparse tensor core."""

    def __init__(
        self,
        config: Optional[UniSTCConfig] = None,
        ordering: str = "outer",
        fill_order: str = "z",
    ):
        if ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {ordering!r}; use one of {ORDERINGS}")
        if fill_order not in FILL_ORDERS:
            raise ConfigError(f"fill order must be 'z' or 'n', got {fill_order!r}")
        self.config = cfg = config or UniSTCConfig()
        self.ordering = ordering
        self.fill_order = fill_order
        self.name = f"uni-stc({cfg.num_dpgs}dpg)" if cfg.num_dpgs != 8 else "uni-stc"
        # Built once: the config is frozen and nothing reassigns these
        # fields, while every simulate_batches call asks for the key.
        self._cache_key = (
            f"uni:{cfg.precision.name}:{cfg.num_dpgs}:{ordering}:{fill_order}:"
            f"{int(cfg.adaptive_ordering)}{int(cfg.dynamic_gating)}{int(cfg.conflict_stall)}:"
            f"{cfg.dpg_wakeup_cycles}-{cfg.lookahead_cycles}"
        )

    @property
    def macs(self) -> int:
        return self.config.macs

    def cache_key(self) -> str:
        return self._cache_key

    def simulate_blocks(self, batch) -> np.ndarray:
        """Batched evaluation: array ops across the whole batch.

        Delegates to :mod:`repro.arch.fastpath`, which reads the packed
        tiles, resolves regular pattern classes analytically and
        replays the exact dispatch only for conflicted blocks.
        """
        from repro.arch import fastpath

        return fastpath.simulate_blocks(self, batch)
