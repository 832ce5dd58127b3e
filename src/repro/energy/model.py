"""Sparseloop-style energy model: action counts x energy-per-action.

Every simulator counts its actions (:data:`~repro.arch.counters.ACTIONS`)
into a report's int64 totals; this module prices them.  Two
ingredients:

- a *base table* of per-action energies (buffer reads, MAC ops, queue
  pushes, DPG scheduling overheads) shared by every architecture;
- a per-architecture *network profile* pricing operand/output element
  transfers by the sqrt-crosspoint rule of :mod:`repro.arch.network` —
  monolithic 64x256 crossbars for the DS-STC/RM-STC-style designs,
  Uni-STC's hierarchical two-layer network, and the dense tensor
  core's fixed systolic delivery.

Constants are stated in picojoules per action for an FP64 datapath at
a 7 nm-class node.  As in the paper, only *relative* energy between
designs on identical task streams carries meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.arch.counters import ACTIONS, Counters
from repro.arch.network import (
    MONOLITHIC_PATH,
    UNI_A_PATH,
    UNI_B_PATH,
    UNI_C_PATH,
    UNI_TILE_PATH,
    NetworkPath,
)

#: Operand-delivery path of the dense tensor core: the register-file
#: operand-collector crossbar feeding the 64-lane array (no gathering
#: logic, but every element still crosses the collector).
DENSE_PATH = NetworkPath(((64, 64),))


@dataclass(frozen=True)
class NetworkProfile:
    """Per-element transfer costs (pJ) of one architecture's datapaths."""

    a_transfer_pj: float
    b_transfer_pj: float
    c_transfer_pj: float
    tile_transfer_pj: float = 0.0

    @classmethod
    def from_paths(cls, a: NetworkPath, b: NetworkPath, c: NetworkPath,
                   tile: Optional[NetworkPath] = None) -> "NetworkProfile":
        return cls(
            a_transfer_pj=a.transfer_pj(),
            b_transfer_pj=b.transfer_pj(),
            c_transfer_pj=c.transfer_pj(),
            tile_transfer_pj=tile.transfer_pj() if tile else 0.0,
        )


#: Uni-STC's hierarchical network (§IV-C.2).
UNI_PROFILE = NetworkProfile.from_paths(UNI_A_PATH, UNI_B_PATH, UNI_C_PATH, UNI_TILE_PATH)
#: Monolithic 64x256 crossbars per operand (DS-STC / RM-STC style).
MONOLITHIC_PROFILE = NetworkProfile.from_paths(MONOLITHIC_PATH, MONOLITHIC_PATH, MONOLITHIC_PATH)
#: Dense tensor core: fixed, small staging networks.
DENSE_PROFILE = NetworkProfile.from_paths(DENSE_PATH, DENSE_PATH, DENSE_PATH)

#: Registry ``network`` metadata -> transfer profile.  Architectures
#: are mapped through their registry entry, never by name prefix: an
#: unknown or user-registered STC resolves to *its* declared network
#: kind or raises, instead of silently pricing as a monolithic design.
NETWORK_PROFILES: Dict[str, NetworkProfile] = {
    "hierarchical": UNI_PROFILE,
    "dense": DENSE_PROFILE,
    "monolithic": MONOLITHIC_PROFILE,
}

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import STCModel


def profile_for(stc: Union[str, "STCModel"]) -> NetworkProfile:
    """Network profile of an architecture (name, variant name or model).

    Resolution goes through :func:`repro.registry.entry_for`, so
    configured variants (``uni-stc(4dpg)``) share their base entry's
    profile and unknown names raise :class:`~repro.errors.ConfigError`.
    """
    from repro.registry import entry_for

    return NETWORK_PROFILES[entry_for(stc).network]


@dataclass(frozen=True)
class EnergyTable:
    """Per-action base energies in pJ (network transfers priced apart)."""

    mac_op: float = 1.5            # one FP64 multiply-accumulate
    lane_cycle: float = 0.01       # per-lane static/clocking overhead
    elem_read: float = 0.8         # 8-byte operand read (buffer/registers)
    elem_write: float = 1.0        # 8-byte result write (accumulator path)
    broadcast_hop: float = 0.05    # one MUX-stage operand broadcast hop
    meta_read: float = 0.3         # one 16-bit bitmap/metadata word
    queue_op: float = 0.12         # tile-/dot-product-queue push or pop
    dpg_active_cycle: float = 0.9  # one DPG powered for one cycle
    dpg_gated_cycle: float = 0.05  # leakage of a power-gated DPG-cycle
    accum_access: float = 0.4      # accumulator-buffer read-modify-write
    sched_cycle: float = 0.5       # front-end scheduler (TMS etc.) cycle

    def scaled(self, factor: float) -> "EnergyTable":
        """Uniformly scaled table (e.g. for a different voltage point)."""
        return replace(
            self, **{f: getattr(self, f) * factor for f in self.__dataclass_fields__}
        )


DEFAULT_TABLE = EnergyTable()

#: Fig. 18's three I/O categories plus the two non-I/O buckets.
BREAKDOWN_KEYS = ("read_a", "read_b", "write_c", "schedule", "compute")


class EnergyModel:
    """Prices counters into pJ, with the Fig. 18 breakdown.  Assigning
    another ``table`` reprices every later call."""

    def __init__(self, table: EnergyTable = DEFAULT_TABLE):
        self.table = table
        #: ``(table, {id(profile): (profile, price row)})``: the rows
        #: priced under ``table``, each holding its profile so the id
        #: stays unique.
        self._rows: Tuple[Optional[EnergyTable], Dict[int, tuple]] = (None, {})

    def breakdown(self, counters: Counters, stc_name: str) -> Dict[str, float]:
        """Energy split into read-A / read-B / write-C / schedule / compute.

        Each category starts at 0.0 and adds ``count * price`` of every
        nonzero count in the fixed :data:`ACTIONS` order, not in the
        order a path recorded them: float addition is not associative,
        and two evaluation paths that agree on every counter must price
        to bit-identical energy.  The prices come from :meth:`prices`.
        """
        counts = counters.counts.tolist()
        out = {}
        for category, terms in self.prices(profile_for(stc_name)):
            total = 0.0
            for position, price in terms:
                count = counts[position]
                if count:
                    total += count * price
            out[category] = total
        return out

    def prices(self, net: NetworkProfile) -> Tuple[Tuple[str, Tuple[Tuple[int, float], ...]], ...]:
        """Each :data:`BREAKDOWN_KEYS` category with the ``(position in
        ACTIONS, pJ)`` of its actions, in :data:`ACTIONS` order, under
        this model's table and the network profile ``net``; built once
        per (table, profile)."""
        table, rows = self._rows
        if table is not self.table:
            table, rows = self._rows = (self.table, {})
        cached = rows.get(id(net))
        if cached is None:
            t = table
            price = {
                "a_elem_reads": ("read_a", t.elem_read),
                "a_net_transfers": ("read_a", net.a_transfer_pj),
                "a_broadcasts": ("read_a", t.broadcast_hop),
                "tile_fetches": ("read_a", net.tile_transfer_pj),
                "b_elem_reads": ("read_b", t.elem_read),
                "b_net_transfers": ("read_b", net.b_transfer_pj),
                "b_broadcasts": ("read_b", t.broadcast_hop),
                "c_elem_writes": ("write_c", t.elem_write),
                "c_net_transfers": ("write_c", net.c_transfer_pj),
                "accum_accesses": ("write_c", t.accum_access),
                "meta_reads": ("schedule", t.meta_read),
                "queue_ops": ("schedule", t.queue_op),
                "dpg_active_cycles": ("schedule", t.dpg_active_cycle),
                "dpg_gated_cycles": ("schedule", t.dpg_gated_cycle),
                "sched_cycles": ("schedule", t.sched_cycle),
                "mac_ops": ("compute", t.mac_op),
                "lane_cycles": ("compute", t.lane_cycle),
            }
            terms: Dict[str, list] = {category: [] for category in BREAKDOWN_KEYS}
            for position, action in enumerate(ACTIONS):
                terms[price[action][0]].append((position, price[action][1]))
            cached = rows[id(net)] = (net, tuple((c, tuple(t)) for c, t in terms.items()))
        return cached[1]

    def energy_pj(self, counters: Counters, stc_name: str) -> float:
        """Total energy of the counted activity in pJ."""
        return sum(self.breakdown(counters, stc_name).values())


DEFAULT_MODEL = EnergyModel()
