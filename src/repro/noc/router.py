"""Routers: the base pipeline and the baseline mesh router.

The baseline mesh router (Table I) is a 1-stage speculative router: a
head flit that arrived by the start of cycle *t* performs routing, VC
allocation, and speculative crossbar allocation during *t*, then crosses
the crossbar and link during *t+1*, becoming allocation-eligible at the
next router at *t+2* — two cycles per hop at zero load.

Switch allocation is packet-granular: once a head flit wins an output
port, the port is held until the packet's tail is sent.  This keeps the
flits of a multi-flit packet contiguous on every link, which (a) matches
the paper's framing of in-network blocking ("the output port is busy
forwarding a multi-flit packet") and (b) makes the release time of a
blocked port deterministic whenever the downstream buffer can absorb the
in-flight packet — the property the Long Stall Detection unit exploits.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Collection, Dict, List, Optional, Set

from repro.noc.flit import Flit
from repro.noc.network import _CREDIT
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.topology import Direction, Port, as_port, port_name
from repro.noc.vc import InputUnit, VirtualChannel
from repro.trace.events import (
    EV_LINK,
    EV_SWITCH_GRANT,
    EV_SWITCH_HOLD,
    EV_SWITCH_RELEASE,
    EV_VC_ALLOC,
)

#: Cycles from a flit's dequeue to the upstream credit increment
#: (one cycle switch+link traversal, one cycle credit wire).
CREDIT_DELAY = 2

#: Sort key for round-robin candidate ordering.
_RR_KEY = attrgetter("rr_key")


class BaseRouter:
    """Shared structure of all router types: input units and ports."""

    def __init__(self, node: int, network):
        self.node = node
        self.network = network
        self.topology = network.topology
        self.num_vcs = network.num_vcs
        self.vc_depth = network.params.router.flits_per_vc
        self.input_units: Dict[Port, InputUnit] = {}
        self.output_ports: Dict[Port, OutputPort] = {}
        #: Flits currently buffered in this router (early-exit counter).
        self.active_flits = 0

        self.input_units[Direction.LOCAL] = InputUnit(
            Direction.LOCAL, self.num_vcs, self.vc_depth
        )
        # The topology's per-node port set decides this router's degree:
        # 2 on a ring stop, up to 4 on a mesh tile, more on a chiplet
        # gateway or an IO die.  Every listed port has a neighbor.
        for port in self.topology.ports(node):
            self.input_units[port] = InputUnit(
                port, self.num_vcs, self.vc_depth
            )
            self.output_ports[port] = self._make_output_port(port)
        # Ejection port toward the NI (wired by the network).
        self.output_ports[Direction.LOCAL] = self._make_output_port(
            Direction.LOCAL
        )
        self._unit_list: List[InputUnit] = list(self.input_units.values())
        #: Dense next-port row for this node, shared with every router
        #: of the topology (a single index, not a hash lookup, for the
        #: hottest routing query).
        self._route_row = self.topology.route_row(node)
        self._rebuild_port_cache()

    def _rebuild_port_cache(self) -> None:
        """Refresh cached port and VC lists (call after adding ports)."""
        order = (Direction.LOCAL,) + tuple(self.topology.ports(self.node))
        #: Router-to-router output ports, in processing order.
        self.cardinal_ports: List[OutputPort] = [
            self.output_ports[p] for p in order
            if p is not Direction.LOCAL and p in self.output_ports
        ]
        #: All output ports in fixed processing order (LOCAL first).
        self.port_list: List[OutputPort] = [
            self.output_ports[p] for p in order if p in self.output_ports
        ]
        #: The output port each destination leaves through (the route
        #: row resolved to ports): where a head flit queues.
        self._port_row: List[Optional[OutputPort]] = [
            self.output_ports.get(p) for p in self._route_row
        ]
        #: Every input VC, flattened in fixed unit order.
        self._vc_list: List[VirtualChannel] = [
            vc for unit in self._unit_list for vc in unit.vcs
        ]
        #: Dense round-robin ids: every input VC numbered in ascending
        #: ``rr_key`` order.  With ids dense in ``[0, total)``, "first
        #: key strictly after the last grantee, wrapping to the
        #: smallest" becomes a minimum of ``(id - last - 1) % total`` —
        #: no per-pick sort.
        ranked = sorted(self._vc_list, key=_RR_KEY)
        for rank, vc in enumerate(ranked):
            vc.rr_id = rank
        self._rr_total = len(ranked)
        #: ``rr_id`` -> ``rr_key``: the checkpointed form of a port's
        #: ``rr_last``.
        self._rr_keys = [vc.rr_key for vc in ranked]

    def _make_output_port(self, direction: Port) -> OutputPort:
        return OutputPort(
            router=self,
            direction=direction,
            network=self.network,
            num_vcs=self.num_vcs,
            vc_depth=self.vc_depth,
        )

    #: Set by :mod:`repro.shard` on the routers of a stripe's cut rows
    #: only (a neighbour lives in another shard): such a router sends
    #: through the network's per-instance patched schedulers and reports
    #: VC allocations to ``boundary.note_grant(port, packet, now)``.
    #: None everywhere else: one attribute check on the hot path.
    boundary = None

    def has_work(self) -> bool:
        """Whether this router must be stepped again next cycle."""
        return self.active_flits > 0

    def route_of(self, packet: Packet) -> Port:
        """Output port the packet takes from this router."""
        return self._route_row[packet.dst]

    # -- per-cycle processing -----------------------------------------------

    def step(self, now: int) -> None:
        raise NotImplementedError

    # -- the wait lists -------------------------------------------------------
    #
    # ``OutputPort.waiting`` holds the VCs whose front flit is a head
    # routed to that port.  Three events change that set: a head lands
    # in an empty VC (the arrival loops of ``Network._run_events``), a
    # head leaves (a grant, ``_dequeue``), and a tail leaves with a
    # chained packet's head queued behind it.

    def _queue_head(self, vc: VirtualChannel) -> None:
        """``vc``'s front flit is now a head: it waits on its port."""
        self._port_row[vc.flits[0].packet.dst].waiting.append(vc)

    def _dequeue(self, vc: VirtualChannel) -> Flit:
        """Dequeue the front flit of ``vc``, keeping the wait lists
        right (the credit is the caller's business)."""
        flit = vc.pop()
        self.active_flits -= 1
        if flit.is_head:
            self._port_row[flit.packet.dst].waiting.remove(vc)
        if flit.is_tail and vc.flits and vc.flits[0].is_head:
            self._queue_head(vc)
        return flit

    def _pop(self, vc: VirtualChannel, now: int) -> Flit:
        """Dequeue the front flit of ``vc`` and return its credit to the
        upstream feeder (for transmissions outside the arbitration
        pass: PRA reserved slots)."""
        flit = self._dequeue(vc)
        feeder = vc.unit.feeder_port
        if feeder is not None:
            self.network.schedule_credit(now + CREDIT_DELAY, feeder, vc.index)
        return flit

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        """Mutable router state; wiring and caches are reconstruction."""
        return {
            "units": [
                [int(direction), [vc.state_dict(ctx) for vc in unit.vcs]]
                for direction, unit in self.input_units.items()
            ],
            "ports": [
                [int(direction), port.state_dict(ctx)]
                for direction, port in self.output_ports.items()
            ],
            "active_flits": self.active_flits,
            "rr": [
                [int(port.direction),
                 None if port.rr_last is None
                 else list(self._rr_keys[port.rr_last])]
                for port in self.port_list
            ],
        }

    def load_state(self, state: dict, ctx) -> None:
        for direction_value, vc_states in state["units"]:
            unit = self.input_units[as_port(direction_value)]
            for vc, vc_state in zip(unit.vcs, vc_states):
                vc.load_state(vc_state, ctx)
        for direction_value, port_state in state["ports"]:
            self.output_ports[as_port(direction_value)].load_state(
                port_state, ctx
            )
        self.active_flits = state["active_flits"]
        key_to_id = {key: rr_id for rr_id, key in enumerate(self._rr_keys)}
        for direction_value, key in state["rr"]:
            self.output_ports[as_port(direction_value)].rr_last = (
                None if key is None else key_to_id[tuple(key)]
            )
        # The wait lists are derived state: rebuild them from the VCs.
        for port in self.port_list:
            port.waiting = []
        for vc in self._vc_list:
            if vc.flits and vc.flits[0].is_head:
                self._queue_head(vc)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node={self.node})"


class MeshRouter(BaseRouter):
    """The baseline 1-stage speculative mesh router.

    The same pipeline runs every topology graph: degree comes from the
    topology's port set, and the escape-layer rule of rings and chiplet
    hierarchies is the ``next_vc`` row of each output port.
    """

    def step(self, now: int, used_inputs: Optional[Set[Port]] = None,
             busy_dirs: Collection[Port] = ()) -> None:
        """The local arbiter: one pass over the output ports.

        A held port streams its holder's next flit; a free one grants
        the first eligible VC of its ``waiting`` list after its last
        grantee (RC + VA + speculative SA in one cycle), and the head
        leaves at once.  Mesh+PRA runs this pass after its PRA arbiter,
        passing the crossbar inputs that arbiter took (``used_inputs``)
        and the output ports it drives this cycle (``busy_dirs``).

        The dequeue and the send are written out in place: the credit
        and the arrival go straight into their cycle buckets (targets
        are ``now + <positive const>`` with ``now == network.cycle``, so
        the schedulers' future-only guard holds by construction), and an
        attached tracer sees one ``EV_LINK`` per link crossed (two on a
        SMART pass-through).  Only a shard's cut row (``boundary``)
        takes the scheduler calls instead, through ``OutputPort.send``.
        """
        if not self.active_flits:
            return
        network = self.network
        fault_on = network.faults.enabled
        if fault_on and network.faults.router_stalled(self.node, now):
            return
        if used_inputs is None:
            used_inputs = set()
        tracer = network.tracer
        slow = self.boundary is not None
        events = network._events
        for port in self.port_list:
            if fault_on and port.fault_stalled(now):
                continue
            if busy_dirs and port.direction in busy_dirs:
                if port.waiting:
                    self._count_blocked(port.waiting, used_inputs)
                continue
            packet = port.held_by
            if packet is not None:
                # Stream the holder's next flit if it can move.
                vc = port.active_vc
                if vc is None:
                    continue  # a SMART bypass crossing this port
                flits = vc.flits
                if not flits or flits[0].packet is not packet:
                    if tracer.enabled:
                        self._trace_hold(port, now, "awaiting_flit")
                    continue  # next flit still in flight from upstream
                if vc.unit.direction in used_inputs:
                    if tracer.enabled:
                        self._trace_hold(port, now, "input_busy")
                    continue
                if port.ni_sink is None and (
                    port.credit_port.credits[port.held_dst_vc] < 1
                ):
                    if tracer.enabled:
                        self._trace_hold(port, now, "no_credit")
                    continue
            else:
                waiting = port.waiting
                if not waiting:
                    continue
                # Grant the eligible VC first after the last grantee in
                # cyclic ``rr_id`` order.  Anchoring on the last
                # grantee (not an index into a list whose membership
                # changes every cycle) is what keeps churning requester
                # sets from starving anyone.  Eligible: the crossbar
                # input is free and the downstream VC (``next_vc`` of
                # the VC the head sits in) is unallocated, empty and
                # has a credit; ejection always succeeds.
                total = self._rr_total
                last = port.rr_last
                if last is None:
                    last = total - 1
                vc = None
                best = total
                sink = port.ni_sink
                if sink is None:
                    next_vc = port.next_vc
                    down_vcs = port.downstream_unit.vcs
                    credits = port.credits
                for candidate in waiting:
                    if candidate.unit.direction in used_inputs:
                        continue
                    rank = (candidate.rr_id - last - 1) % total
                    if rank >= best:
                        continue
                    if sink is None:
                        dst_vc = next_vc[candidate.index]
                        down_vc = down_vcs[dst_vc]
                        if (down_vc.allocated_to is not None
                                or down_vc.flits or credits[dst_vc] < 1):
                            continue
                    best = rank
                    vc = candidate
                if vc is None:
                    continue
                port.rr_last = vc.rr_id
                packet = vc.flits[0].packet
                if sink is None:
                    dst_vc = next_vc[vc.index]
                    self._claim_downstream(port, packet, dst_vc, now)
                    if tracer.enabled:
                        tracer.emit(now, EV_VC_ALLOC, pid=packet.pid,
                                    node=self.node,
                                    direction=port_name(port.direction),
                                    vc=dst_vc)
                else:
                    dst_vc = packet.vc_index
                port.held_by = packet
                port.active_vc = vc
                port.held_dst_vc = dst_vc
                port.holder_sent = 0
                if tracer.enabled:
                    tracer.emit(now, EV_SWITCH_GRANT, pid=packet.pid,
                                node=self.node,
                                direction=port_name(port.direction),
                                input=port_name(vc.unit.direction),
                                input_vc=vc.index)
                waiting.remove(vc)
                flits = vc.flits
            # Dequeue the front flit of ``vc`` ...
            used_inputs.add(vc.unit.direction)
            flit = flits.pop(0)
            if flit.is_tail:
                vc.allocated_to = vc.next_claim
                vc.next_claim = None
                if flits and flits[0].is_head:
                    self._queue_head(vc)
            self.active_flits -= 1
            feeder = vc.unit.feeder_port
            if feeder is not None:
                if slow:
                    network.schedule_credit(now + CREDIT_DELAY, feeder,
                                            vc.index)
                else:
                    time = now + CREDIT_DELAY
                    bucket = events.get(time)
                    if bucket is None:
                        pool = network._bucket_pool
                        bucket = pool.pop() if pool else ([], [], [])
                        events[time] = bucket
                    if network.credits_ordered:
                        bucket[2].append((_CREDIT, feeder, vc.index))
                    else:
                        bucket[1].append((feeder, vc.index))
            # ... and send it through ``port``.
            if slow:
                port.send(flit, now)
            else:
                credit_port = port.credit_port
                port.flits_sent += 1
                port.holder_sent += 1
                vc_index = port.held_dst_vc
                if tracer.enabled:
                    self._trace_link(port, flit, now)
                if port.ni_sink is not None:
                    network.schedule_eject(now + port.link_hop_latency - 1,
                                           port.ni_sink, flit)
                else:
                    credits = credit_port.credits
                    if credits[vc_index] <= 0:
                        raise RuntimeError(
                            "credit underflow: flow control violated")
                    credits[vc_index] -= 1
                    if credit_port is not port:
                        # A SMART pass-through also crosses the bypassed
                        # router's port this cycle and lands behind it.
                        credit_port.flits_sent += 1
                        credit_port.holder_sent += 1
                        if flit.is_head:
                            packet.hops_taken += 2
                        if tracer.enabled:
                            self._trace_link(credit_port, flit, now)
                    elif flit.is_head:
                        packet.hops_taken += 1
                    time = now + port.link_hop_latency
                    bucket = events.get(time)
                    if bucket is None:
                        pool = network._bucket_pool
                        bucket = pool.pop() if pool else ([], [], [])
                        events[time] = bucket
                    bucket[0].append((credit_port.downstream_router,
                                      credit_port.downstream_dir, vc_index,
                                      flit))
            if flit.is_tail:
                if tracer.enabled:
                    tracer.emit(now, EV_SWITCH_RELEASE, pid=packet.pid,
                                node=self.node,
                                direction=port_name(port.direction))
                port.release()

    def _count_blocked(self, waiting, used_inputs) -> None:
        """Hook: a port the PRA arbiter owns this cycle had requests."""

    def _trace_link(self, port: OutputPort, flit, now: int) -> None:
        """Record ``flit`` crossing the link out of ``port``."""
        self.network.tracer.emit(
            now, EV_LINK, pid=flit.packet.pid, node=port.router.node,
            direction=port_name(port.direction), flit=flit.index, ni=False,
        )

    def _trace_hold(self, port: OutputPort, now: int, reason: str) -> None:
        """Record a held port that could not advance this cycle."""
        self.network.tracer.emit(
            now, EV_SWITCH_HOLD,
            pid=port.held_by.pid if port.held_by is not None else None,
            node=self.node,
            direction=port_name(port.direction),
            reason=reason,
        )

    def _claim_downstream(self, port: OutputPort, packet: Packet,
                          dst_vc: int, now: int) -> None:
        """Allocate the downstream VC the grant found free (the hook a
        router family resolves its own link setup in)."""
        port.downstream_unit.vcs[dst_vc].allocated_to = packet
        boundary = self.boundary
        if boundary is not None:
            # A shard's cut row mirrors VC allocations whose downstream
            # router lives in another shard (the write above landed
            # on a local replica; the owner must replay it).
            boundary.note_grant(port, packet, now)
