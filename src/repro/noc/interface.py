"""Network interfaces: per-tile injection and ejection.

The NI sits between a tile (core + LLC slice) and its router.  Injection
is packet-granular over the single local port, arbitrated round-robin
across the three message-class queues.  Ejection reassembles flits and
fires the network's delivery callback on tail arrival.

The Mesh+PRA interface (:class:`repro.core.pra_network.PraInterface`)
extends this with the LLC-hit control-packet trigger and deterministic
injection pinning.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.topology import Direction, port_name
from repro.params import MessageClass, NUM_MESSAGE_CLASSES
from repro.trace.events import EV_EJECT, EV_LINK, EV_PACKET_INJECT

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network
    from repro.noc.router import BaseRouter


class NetworkInterface:
    """Injection/ejection endpoint of one tile."""

    def __init__(self, node: int, network: "Network", router: "BaseRouter"):
        self.node = node
        self.network = network
        self.router = router
        #: One injection queue per message class.  Plain lists: below
        #: saturation a queue holds a packet or two, and past it
        #: ``pop(0)`` moves a few hundred pointers, small beside a
        #: packet's other work; an empty list is 56 bytes, a deque 760.
        self.queues: List[List[Packet]] = [
            [] for _ in range(NUM_MESSAGE_CLASSES)
        ]
        self.port = OutputPort(
            router=None,
            direction=Direction.LOCAL,
            network=network,
            num_vcs=network.num_vcs,
            vc_depth=network.params.router.flits_per_vc,
            node=node,
        )
        self.port.connect(router, Direction.LOCAL)
        self._rr = 0

    # -- injection ---------------------------------------------------------

    def enqueue(self, packet: Packet, now: int) -> None:
        """Accept a packet from the tile for injection."""
        self.queues[packet.vc_index].append(packet)
        self.network.stats.record_injection(packet)
        self.network.wake_ni(self.node)

    def has_work(self) -> bool:
        """Whether this NI must be stepped again next cycle.

        A held port implies the holder packet is still in its queue
        (removed only on tail send), so checking the queues covers
        mid-packet injection as well.
        """
        return any(self.queues)

    def queued_packets(self, msg_class: MessageClass) -> int:
        return len(self.queues[msg_class.value])

    def step(self, now: int) -> None:
        port = self.port
        faults = self.network.faults
        if faults.enabled and port.fault_stalled(now):
            return  # injection link inside a stall window
        if port.held_by is not None:
            self._continue_holder(now)
            return
        self._arbitrate(now)

    def _continue_holder(self, now: int) -> None:
        port = self.port
        packet = port.held_by
        assert packet is not None
        # The credit pool of the VC the holder was granted
        # (``held_dst_vc``), which is not ``packet.vc_index`` on a
        # topology with escape layers.
        dst_vc = port.held_dst_vc
        if port.credits[dst_vc] < 1:
            return
        flit = packet.flits[port.holder_sent]
        network = self.network
        # The send, written out in place: an injection link counts no
        # hop, and the credit check above covers the charge.
        port.flits_sent += 1
        port.holder_sent += 1
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(now, EV_LINK, pid=packet.pid, node=self.node,
                        direction=port_name(port.direction),
                        flit=flit.index, ni=True)
        port.credits[dst_vc] -= 1
        network.schedule_arrival(
            now + port.link_hop_latency,
            port.downstream_router,
            port.downstream_dir,
            dst_vc,
            flit,
        )
        if flit.is_tail:
            queue = self.queues[packet.vc_index]
            if queue[0] is packet:
                queue.pop(0)
            else:
                # A pinned packet picked from mid-queue (Mesh+PRA).
                queue.remove(packet)
            port.release()

    def _arbitrate(self, now: int) -> None:
        port = self.port
        for offset in range(NUM_MESSAGE_CLASSES):
            idx = (self._rr + offset) % NUM_MESSAGE_CLASSES
            queue = self.queues[idx]
            if not queue:
                continue
            packet = queue[0]
            if not self._may_inject(packet, now):
                continue
            if not port.can_allocate_vc(
                    packet, port.next_vc[packet.vc_index]):
                continue
            self._rr = (idx + 1) % NUM_MESSAGE_CLASSES
            self._start_injection(packet, now)
            return

    def _start_injection(self, packet: Packet, now: int) -> None:
        port = self.port
        dst_vc = port.next_vc[packet.vc_index]
        port.downstream_vc(dst_vc).allocated_to = packet
        port.hold(packet, source_vc=None, dst_vc=dst_vc)
        packet.injected = now
        self._trace_injection(packet, now)
        self._continue_holder(now)

    def _trace_injection(self, packet: Packet, now: int) -> None:
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_PACKET_INJECT, pid=packet.pid, node=self.node,
                dst=packet.dst, msg_class=packet.msg_class.name,
                size=packet.size, planned=packet.pra_plan is not None,
            )

    def _may_inject(self, packet: Packet, now: int) -> bool:
        """Hook: the PRA interface defers packets pinned for later slots."""
        return True

    # -- checkpointing -----------------------------------------------------

    def state_dict(self, ctx) -> dict:
        return {
            "queues": [
                [ctx.packet_ref(packet) for packet in queue]
                for queue in self.queues
            ],
            "rr": self._rr,
            "port": self.port.state_dict(ctx),
        }

    def load_state(self, state: dict, ctx) -> None:
        self.queues = [
            [ctx.packet(ref) for ref in refs]
            for refs in state["queues"]
        ]
        self._rr = state["rr"]
        self.port.load_state(state["port"], ctx)

    # -- ejection ------------------------------------------------------------

    def eject_flit(self, flit: Flit, now: int) -> None:
        if flit.is_head:
            self.network._head_arrived(flit.packet, now)
        if flit.is_tail:
            packet = flit.packet
            tracer = self.network.tracer
            if tracer.enabled:
                tracer.emit(
                    now, EV_EJECT, pid=packet.pid, node=self.node,
                    src=packet.src, hops=packet.hops_taken,
                )
            self.network._deliver(packet, now)

    def __repr__(self) -> str:
        return f"NetworkInterface(node={self.node})"
