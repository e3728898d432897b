"""Evaluation parameters (Table I of the paper) as dataclasses.

Every experiment in the harness builds its configuration from these
dataclasses so there is a single source of truth for the paper's setup:
32 nm / 0.9 V / 2 GHz, 64 cores, 8 MB NUCA LLC, four DDR3-1600 channels,
and the four network organizations (Mesh, SMART, Mesh+PRA, Ideal).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum


class NocKind(Enum):
    """The four network organizations evaluated in the paper."""

    MESH = "mesh"
    SMART = "smart"
    MESH_PRA = "mesh+pra"
    IDEAL = "ideal"


class MessageClass(Enum):
    """Message classes; one virtual channel per class avoids protocol
    deadlock (Dally & Towles).  Values double as VC indices."""

    REQUEST = 0
    COHERENCE = 1
    RESPONSE = 2


#: Number of message classes: VCs per port on a single-layer topology.
NUM_MESSAGE_CLASSES = len(MessageClass)

#: Tiles a pre-allocated (Mesh+PRA) data packet covers per cycle: a
#: multi-drop segment spans two routers when the route runs straight
#: (``ControlNetwork._step_hops``).
PRA_HOPS_PER_CYCLE = 2


def _require_positive(params, *names: str) -> None:
    """Refuse a count below 1 in any of ``params``' fields ``names``."""
    for name in names:
        value = getattr(params, name)
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class TechnologyParams:
    """32 nm technology point used throughout the evaluation."""

    node_nm: int = 32
    vdd: float = 0.9
    frequency_ghz: float = 2.0
    #: Link energy on random data.  Wire delay, pitch and the repeater
    #: share are embedded in :mod:`repro.physical.wires`' calibration.
    link_energy_fj_per_bit_mm: float = 50.0


@dataclass(frozen=True)
class CoreParams:
    """ARM Cortex-A15-like core scaled to 32 nm (Microprocessor Report)."""

    decode_width: int = 3
    rob_entries: int = 64
    lsq_entries: int = 16
    area_mm2: float = 2.9
    power_w: float = 1.05


@dataclass(frozen=True)
class CacheParams:
    """LLC slice parameters (CACTI 6.5-derived values from the paper)."""

    llc_total_mb: float = 8.0
    area_mm2_per_mb: float = 3.2
    power_w_per_mb: float = 0.5
    #: Serial tag then data lookup (energy-optimized LLC).
    tag_lookup_cycles: int = 1
    data_lookup_cycles: int = 4

    def __post_init__(self) -> None:
        _require_positive(self, "tag_lookup_cycles", "data_lookup_cycles")


@dataclass(frozen=True)
class MemoryParams:
    """Four DDR3-1600 channels; closed-page fixed-service approximation."""

    num_channels: int = 4
    #: Core cycles (2 GHz) for an average DRAM access (activate+read+data).
    access_cycles: int = 90
    #: Minimum cycles between successive accesses on one channel.
    service_cycles: int = 8

    def __post_init__(self) -> None:
        _require_positive(self, "num_channels", "access_cycles",
                          "service_cycles")


@dataclass(frozen=True)
class RouterParams:
    """Per-router structure shared by all organizations.

    The topology decides a router's ports, and the network gives every
    port one VC per message class and escape layer.
    """

    flits_per_vc: int = 5
    link_width_bits: int = 128

    def __post_init__(self) -> None:
        _require_positive(self, "flits_per_vc", "link_width_bits")


@dataclass(frozen=True)
class PraParams:
    """Parameters unique to the Mesh+PRA organization.

    A pre-allocated data packet covers :data:`PRA_HOPS_PER_CYCLE` tiles
    per cycle; that is structure, not a parameter.
    """

    #: Maximum lag carried by a control packet (paper Section V-B).
    max_lag: int = 4
    #: Reservation table horizon in timeslots ("several timeslots").
    reservation_horizon: int = 12
    #: Control-network link width (bits), for area/power only.
    control_link_width_bits: int = 15
    #: Enable the LLC-hit trigger (opportunity 1).
    use_llc_trigger: bool = True
    #: Enable the long-stall-detection trigger (opportunity 2).
    use_lsd_trigger: bool = True
    #: Extension beyond the paper: also announce LLC-miss responses,
    #: whose DRAM completion time is deterministic at issue.  Off by
    #: default (the paper triggers on LLC hits only); exercised by the
    #: trigger ablation.
    use_memory_trigger: bool = False

    def __post_init__(self) -> None:
        _require_positive(self, "max_lag", "reservation_horizon")


@dataclass(frozen=True)
class SmartParams:
    """Parameters unique to the SMART organization."""

    #: HPC_max: tiles traversed per cycle when bypass is granted.  An
    #: SSR reserves at most one intermediate router, so 1 or 2.
    hops_per_cycle: int = 2

    def __post_init__(self) -> None:
        if self.hops_per_cycle not in (1, 2):
            raise ValueError(
                f"smart hops_per_cycle must be 1 or 2, got "
                f"{self.hops_per_cycle}"
            )


@dataclass(frozen=True)
class NocParams:
    """One network organization, fully specified."""

    kind: NocKind = NocKind.MESH
    mesh_width: int = 8
    mesh_height: int = 8
    #: Topology spec string: ``mesh`` (the grid above), ``ring``
    #: (``mesh_width * mesh_height`` stops), or ``chiplet:CXxCYxWxH[:star][:ilat=N]``
    #: (see :func:`repro.noc.topology.parse_topology_spec`).  For
    #: chiplet specs the mesh dimensions are derived from the spec's
    #: global tile grid, so ``num_nodes`` stays the endpoint count.
    topology: str = "mesh"

    router: RouterParams = field(default_factory=RouterParams)
    pra: PraParams = field(default_factory=PraParams)
    smart: SmartParams = field(default_factory=SmartParams)
    #: Ideal network: hops a header may cover per cycle.
    ideal_hops_per_cycle: int = 2

    def __post_init__(self) -> None:
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ValueError(
                f"mesh dimensions must be positive, got "
                f"{self.mesh_width}x{self.mesh_height}"
            )
        _require_positive(self, "ideal_hops_per_cycle")
        # Validate the spec eagerly (junk fails at construction, not
        # deep inside network building) and derive the global grid for
        # chiplet specs.  Lazy import: topology has no params dependency
        # at import time, but keeping it out of module scope avoids any
        # chance of a cycle.
        from repro.noc.topology import parse_topology_spec

        spec = parse_topology_spec(self.topology)
        if spec.kind == "chiplet":
            width = spec.chiplets_x * spec.chip_width
            height = spec.chiplets_y * spec.chip_height
            if (self.mesh_width, self.mesh_height) != (width, height):
                object.__setattr__(self, "mesh_width", width)
                object.__setattr__(self, "mesh_height", height)

    @property
    def num_nodes(self) -> int:
        return self.mesh_width * self.mesh_height

    def with_kind(self, kind: NocKind) -> "NocParams":
        return replace(self, kind=kind)


@dataclass(frozen=True)
class ChipParams:
    """The 64-core Scale-Out-Processor-style chip of Table I."""

    technology: TechnologyParams = field(default_factory=TechnologyParams)
    core: CoreParams = field(default_factory=CoreParams)
    cache: CacheParams = field(default_factory=CacheParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    noc: NocParams = field(default_factory=NocParams)

    @property
    def num_tiles(self) -> int:
        return self.noc.num_nodes

    @property
    def llc_slice_mb(self) -> float:
        return self.cache.llc_total_mb / self.num_tiles

    @property
    def tile_area_mm2(self) -> float:
        """Core + LLC slice area (network area is modeled separately)."""
        return self.core.area_mm2 + self.llc_slice_mb * self.cache.area_mm2_per_mb

    @property
    def tile_side_mm(self) -> float:
        """Tile edge length assuming square tiles; sets link length."""
        return self.tile_area_mm2 ** 0.5

    def with_noc_kind(self, kind: NocKind) -> "ChipParams":
        return replace(self, noc=self.noc.with_kind(kind))


#: Packet sizes in flits over the 128-bit data links: a request or
#: coherence message is a single (address-sized) flit; a response carries
#: a 64-byte block = 4 data flits + 1 header flit.
PACKET_FLITS = {
    MessageClass.REQUEST: 1,
    MessageClass.COHERENCE: 1,
    MessageClass.RESPONSE: 5,
}


def default_chip(kind: NocKind = NocKind.MESH) -> ChipParams:
    """The Table I configuration with the chosen network organization."""
    return ChipParams().with_noc_kind(kind)
