"""The ideal network: zero router delay, wire delay and contention only.

The paper's upper bound is "a hypothetical network-on-chip with router
delay of zero cycles.  For the ideal network-on-chip, only wire delays
are considered.  A header flit can pass over up to two hops in a single
cycle if the required crossbars and links are free.  Body flits follow
the header flit in subsequent cycles.  While router delay is zero,
packets may get blocked in a router due to contention."

We model this at packet granularity: every unidirectional link keeps a
busy-until calendar; a header claims the next one or two links of its XY
route for the packet's flit window ``[now, now + size)`` and advances
accordingly.  Blocked packets wait at their current node in FIFO order.
Buffering while blocked is unbounded — a deliberate idealization (the
network is hypothetical; this only strengthens the upper bound the paper
normalizes against).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import Port, as_port
from repro.params import NocParams


class IdealNetwork(Network):
    """Packet-level zero-router-delay network with link contention."""

    def __init__(self, params: NocParams):
        super().__init__(params)
        self.hops_per_cycle = params.ideal_hops_per_cycle
        #: busy-until (exclusive) per unidirectional link.
        self._link_free_at: Dict[Tuple[int, Port], int] = {}
        #: Waiting packets per node, FIFO.
        self._waiting: List[Deque[Packet]] = [
            deque() for _ in range(self.topology.num_nodes)
        ]
        #: Nodes with a non-empty waiting queue (iterated in sorted
        #: order so blocked packets keep competing in fixed node order).
        self._busy_nodes: set = set()
        #: (position, packet) arrivals becoming visible next cycle.
        self._arrivals: Dict[int, List[Tuple[int, Packet]]] = {}
        #: Flit-link traversals, for utilization accounting.
        self._link_flits = 0

    # -- client API -----------------------------------------------------------

    def send(self, packet: Packet) -> None:
        self.stats.record_injection(packet)
        # The NI-to-router wire costs one cycle, as in the other designs.
        self._push_arrival(self.cycle + 1, packet.src, packet)

    def _push_arrival(self, time: int, node: int, packet: Packet) -> None:
        arrivals = self._arrivals
        bucket = arrivals.get(time)
        if bucket is None:
            arrivals[time] = [(node, packet)]
        else:
            bucket.append((node, packet))

    def step(self) -> None:
        now = self.cycle
        self._run_events(now)
        for node, packet in self._arrivals.pop(now, ()):
            if packet.injected is None:
                packet.injected = now
            if node == packet.dst:
                self._finish(packet, now)
            else:
                self._waiting[node].append(packet)
                self._busy_nodes.add(node)
        self._advance_waiting(now)
        self._end_step(now)

    def _advance_waiting(self, now: int) -> None:
        if not self._busy_nodes:
            return
        for node in sorted(self._busy_nodes):
            queue = self._waiting[node]
            # Rotate in place: every packet gets one try per cycle and
            # blocked packets keep their FIFO order at the back.
            for _ in range(len(queue)):
                packet = queue.popleft()
                if not self._try_move(node, packet, now):
                    queue.append(packet)
            if not queue:
                self._busy_nodes.discard(node)

    # -- movement ---------------------------------------------------------------

    def _try_move(self, node: int, packet: Packet, now: int) -> bool:
        """Claim up to ``hops_per_cycle`` links; move if at least one."""
        window_end = now + packet.size
        topo = self.topology
        route_row = topo.route_row
        free_at = self._link_free_at
        dst = packet.dst
        hops = 0
        position = node
        claimed: List[Tuple[int, Port]] = []
        while hops < self.hops_per_cycle and position != dst:
            direction = route_row(position)[dst]
            link = (position, direction)
            if free_at.get(link, 0) > now:
                break
            claimed.append(link)
            position = topo.neighbor(position, direction)
            hops += 1
        if hops == 0:
            return False
        for link in claimed:
            free_at[link] = window_end
        self._link_flits += hops * packet.size
        packet.hops_taken += hops
        self._push_arrival(now + 1, position, packet)
        return True

    def link_utilization(self) -> float:
        if self.cycle == 0:
            return 0.0
        links = 2 * len(self.topology.bidirectional_links())
        return self._link_flits / (links * self.cycle)

    def _finish(self, packet: Packet, head_arrival: int) -> None:
        """Head reached the destination; the tail lands ``size - 1``
        cycles later and ejection to the NI takes one more cycle."""
        head_time = head_arrival + 1
        self.schedule_call(head_time, self._head_arrived, packet, head_time)
        eject_time = head_arrival + (packet.size - 1) + 1
        self.schedule_call(eject_time, self._deliver, packet, eject_time)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self, ctx) -> dict:
        state = super().state_dict(ctx)
        state["link_free_at"] = [
            [node, int(direction), until]
            for (node, direction), until in sorted(self._link_free_at.items())
        ]
        state["waiting"] = [
            [ctx.packet_ref(packet) for packet in queue]
            for queue in self._waiting
        ]
        state["busy_nodes"] = sorted(self._busy_nodes)
        # Arrival buckets keep their append order: packets arriving at a
        # node on the same cycle enter its FIFO in that order.
        state["arrivals"] = [
            [time, [[node, ctx.packet_ref(packet)] for node, packet in bucket]]
            for time, bucket in sorted(self._arrivals.items())
        ]
        state["link_flits"] = self._link_flits
        return state

    def load_state(self, state: dict, ctx) -> None:
        super().load_state(state, ctx)
        self._link_free_at = {
            (node, as_port(direction)): until
            for node, direction, until in state["link_free_at"]
        }
        self._waiting = [
            deque(ctx.packet(ref) for ref in refs)
            for refs in state["waiting"]
        ]
        self._busy_nodes = set(state["busy_nodes"])
        self._arrivals = {
            time: [(node, ctx.packet(ref)) for node, ref in bucket]
            for time, bucket in state["arrivals"]
        }
        self._link_flits = state["link_flits"]
