"""Output ports: credit tracking, VC allocation, and switch holding.

An :class:`OutputPort` is the upstream end of a link.  It mirrors the
state of the downstream input unit (free VCs, credit counts) exactly the
way a hardware router's output unit does, and enforces the two
invariants the rest of the simulator relies on:

* **packet-granular switch allocation** — once a packet's head flit is
  granted an output port, the port is held until the tail flit leaves.
  This is what makes the end of a multi-flit transmission deterministic,
  which the paper's Long Stall Detection unit exploits.
* **credit discipline** — a flit is only sent when the downstream buffer
  has space; PRA's proactive buffer reservations are claimed out of the
  same credit pool (``reserved`` below), so normally allocated traffic
  cannot consume proactively promised space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.noc.topology import Port, as_port, port_name
from repro.noc.vc import InputUnit, VirtualChannel
from repro.trace.events import EV_LINK

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.router import BaseRouter
    from repro.noc.network import Network


class OutputPort:
    """Upstream end of one unidirectional link (or the ejection port)."""

    __slots__ = (
        "router",
        "direction",
        "network",
        "node",
        "downstream_router",
        "downstream_unit",
        "downstream_dir",
        "ni_sink",
        "credits",
        "reserved",
        "held_by",
        "active_vc",
        "held_dst_vc",
        "holder_sent",
        "flits_sent",
        "link_hop_latency",
        "next_vc",
    )

    def __init__(
        self,
        router: Optional["BaseRouter"],
        direction: Port,
        network: "Network",
        num_vcs: int,
        vc_depth: int,
        node: Optional[int] = None,
    ):
        self.router = router
        self.direction = direction
        self.network = network
        #: Node this port belongs to (the router's node, or the NI's for
        #: injection ports); fault sites key link stalls on it.
        self.node = node if node is not None else (
            router.node if router is not None else None
        )
        #: Downstream router and its input unit; None for the ejection
        #: port (then ``ni_sink`` is set instead).
        self.downstream_router: Optional["BaseRouter"] = None
        self.downstream_unit: Optional[InputUnit] = None
        #: Entry port at the downstream router (cached off the unit
        #: because every flit transmission reads it).
        self.downstream_dir: Optional[Port] = None
        self.ni_sink = None
        self.credits: List[int] = [vc_depth] * num_vcs
        #: Buffer space currently promised to proactively allocated
        #: packets (PRA).  Claims are taken *out of* ``credits`` (so
        #: normal traffic simply sees fewer credits); this counter only
        #: tracks how much of the missing space is a PRA promise, for
        #: the invariant suite's credit audit and its
        #: ``buffer_claim_orphan`` check.
        self.reserved: List[int] = [0] * num_vcs
        self.held_by: Optional[Packet] = None
        #: Source VC in this router that feeds the held packet.
        self.active_vc: Optional[VirtualChannel] = None
        #: Downstream VC index granted to the holder (``next_vc`` of
        #: the VC it came from).
        self.held_dst_vc: Optional[int] = None
        #: Flits of the holder already transmitted through this port.
        self.holder_sent = 0
        self.flits_sent = 0
        #: Cycles from grant to downstream visibility (2 for the mesh:
        #: one ST+LT cycle, then allocation-eligible the next cycle).
        #: The ejection port has no second cycle: the NI sees the flit
        #: ``link_hop_latency - 1`` cycles after the grant.
        self.link_hop_latency = 2
        #: Downstream VC a head flit asks for, indexed by the input VC
        #: it sits in (an NI's injection port: by its class queue).  One
        #: of the network's three shared rows — the topology's escape
        #: rule as data, read by VC allocation and the wait graph alike.
        if router is None:
            self.next_vc = network.injection_vcs
        elif network.topology.advances_layer(self.node, direction):
            self.next_vc = network.escape_vcs
        else:
            self.next_vc = network.same_vcs

    # -- wiring ---------------------------------------------------------

    def connect(self, downstream_router: "BaseRouter", entry: Port) -> None:
        """Attach this port to the downstream router's input unit."""
        self.downstream_router = downstream_router
        unit = downstream_router.input_units[entry]
        self.downstream_unit = unit
        self.downstream_dir = entry
        unit.feeder_port = self

    def connect_sink(self, ni_sink) -> None:
        """Attach this port to a network interface (ejection)."""
        self.ni_sink = ni_sink

    @property
    def is_ejection(self) -> bool:
        return self.ni_sink is not None

    # -- allocation checks ------------------------------------------------

    def downstream_vc(self, vc_index: int) -> Optional[VirtualChannel]:
        if self.downstream_unit is None:
            return None
        return self.downstream_unit.vcs[vc_index]

    # -- PRA buffer claims --------------------------------------------------

    def claim_buffer(self, vc_index: int, count: int) -> None:
        """Withdraw ``count`` credits as a proactive full-packet claim."""
        if self.credits[vc_index] < count:
            raise RuntimeError("claiming more buffer space than available")
        self.credits[vc_index] -= count
        self.reserved[vc_index] += count

    def refund_buffer(self, vc_index: int, count: int) -> None:
        """Return unused proactively claimed credits to the pool."""
        self.credits[vc_index] += count
        self.reserved[vc_index] -= count

    def consume_claim(self, vc_index: int) -> None:
        """A proactively delivered flit occupied its promised slot."""
        self.reserved[vc_index] -= 1

    def can_allocate_vc(self, packet: Packet,
                        vc_index: Optional[int] = None) -> bool:
        """VC allocation check for a normally routed head flit.

        Runs once per (output, candidate) pair every arbitration cycle;
        the ``downstream_vc``/``can_accept_packet`` chain is flattened
        to plain attribute reads (``credits`` is what normally allocated
        traffic may use: PRA claims are already withdrawn from it).
        """
        if self.ni_sink is not None:
            return True
        if vc_index is None:
            vc_index = packet.vc_index
        unit = self.downstream_unit
        if unit is None:
            return False
        vc = unit.vcs[vc_index]
        return (
            vc.allocated_to is None
            and not vc.flits
            and self.credits[vc_index] >= 1
        )

    # -- fault site -------------------------------------------------------

    def fault_stalled(self, now: int) -> bool:
        """Is this link inside an injected stall window?  Callers guard
        with ``network.faults.enabled`` so the off path stays free."""
        return self.network.faults.link_stalled(self.node, self.direction,
                                                now)

    # -- switch state -----------------------------------------------------

    @property
    def is_held(self) -> bool:
        return self.held_by is not None

    def hold(self, packet: Packet, source_vc: VirtualChannel,
             dst_vc: Optional[int] = None) -> None:
        if self.held_by is not None:
            raise RuntimeError("output port already held")
        self.held_by = packet
        self.active_vc = source_vc
        self.held_dst_vc = dst_vc if dst_vc is not None else packet.vc_index
        self.holder_sent = 0

    def release(self) -> None:
        self.held_by = None
        self.active_vc = None
        self.held_dst_vc = None
        self.holder_sent = 0

    # -- flit transmission ----------------------------------------------

    def send(self, flit: Flit, now: int) -> None:
        """Transmit one flit to the immediate downstream hop, on the
        holder's granted VC (when held) or the packet's message class.
        """
        self.flits_sent += 1
        if self.held_by is flit.packet:
            self.holder_sent += 1
            vc_index = self.held_dst_vc
        else:
            vc_index = flit.packet.vc_index
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_LINK,
                pid=flit.packet.pid,
                node=self.router.node if self.router is not None
                else flit.packet.src,
                direction=port_name(self.direction),
                flit=flit.index,
                ni=self.router is None,
            )
        if self.ni_sink is not None:
            self.network.schedule_eject(now + self.link_hop_latency - 1,
                                        self.ni_sink, flit)
            return
        if self.credits[vc_index] <= 0:
            raise RuntimeError("credit underflow: flow control violated")
        self.credits[vc_index] -= 1
        if flit.is_head and self.router is not None:
            flit.packet.hops_taken += 1
        self.network.schedule_arrival(
            now + self.link_hop_latency,
            self.downstream_router,
            self.downstream_dir,
            vc_index,
            flit,
        )

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        active_vc = None
        if self.active_vc is not None:
            active_vc = [int(self.active_vc.unit.direction),
                         self.active_vc.index]
        return {
            "credits": list(self.credits),
            "reserved": list(self.reserved),
            "held_by": ctx.packet_ref(self.held_by),
            "active_vc": active_vc,
            "held_dst_vc": self.held_dst_vc,
            "holder_sent": self.holder_sent,
            "flits_sent": self.flits_sent,
        }

    def load_state(self, state: dict, ctx) -> None:
        self.credits = list(state["credits"])
        self.reserved = list(state["reserved"])
        self.held_by = ctx.packet(state["held_by"])
        active_vc = state["active_vc"]
        if active_vc is None:
            self.active_vc = None
        else:
            if self.router is None:
                raise ValueError("NI injection ports never hold a source VC")
            unit = self.router.input_units[as_port(active_vc[0])]
            self.active_vc = unit.vcs[active_vc[1]]
        self.held_dst_vc = state["held_dst_vc"]
        self.holder_sent = state["holder_sent"]
        self.flits_sent = state["flits_sent"]
