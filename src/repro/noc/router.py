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
from typing import Dict, List, Optional, Set, Tuple

from repro.noc.flit import Flit
from repro.noc.network import _CREDIT
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.topology import Direction, Port, as_port, port_name
from repro.noc.vc import InputUnit, VirtualChannel
from repro.trace.events import (
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
        params = network.params.router
        self.num_vcs = params.vcs_per_port
        self.vc_depth = params.flits_per_vc
        self.input_units: Dict[Port, InputUnit] = {}
        self.output_ports: Dict[Port, OutputPort] = {}
        #: Flits currently buffered in this router (early-exit counter).
        self.active_flits = 0
        #: Round-robin state per output port: the (input port, vc index)
        #: key last granted, or None before the first grant.
        #: Advancing relative to the previous *grant* (instead of a
        #: monotonically increasing pointer indexed into a list whose
        #: membership changes every cycle) is what makes arbitration
        #: fair under churning candidate sets.
        self._rr: Dict[Port, Optional[Tuple[int, int]]] = {
            Direction.LOCAL: None
        }

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
            self._rr[port] = None
        # Ejection port toward the NI (wired by the network).
        self.output_ports[Direction.LOCAL] = self._make_output_port(
            Direction.LOCAL
        )
        self._unit_list: List[InputUnit] = list(self.input_units.values())
        #: Dense next-port row for this node (the candidate scan
        #: resolves a route per buffered head flit every cycle, so it
        #: must be a single list index, not a hash lookup).
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
        #: Every input VC, flattened in fixed unit order (hot-scan list).
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
        self._rr_key_to_id = {vc.rr_key: vc.rr_id for vc in ranked}
        #: Last-granted rr id per output port (mirrors ``_rr``, which
        #: stays the checkpointed form).
        self._rr_last: Dict[Port, Optional[int]] = {
            direction: None for direction in self._rr
        }

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

    # -- shared helpers -------------------------------------------------------

    def _pop(self, vc: VirtualChannel, now: int) -> Flit:
        """Dequeue the front flit of ``vc`` and return its credit to the
        upstream feeder (for transmissions that bypass
        :meth:`_pop_and_send`: SMART pass-throughs, PRA reserved slots)."""
        flit = vc.pop()
        self.active_flits -= 1
        feeder = vc.unit.feeder_port
        if feeder is not None:
            self.network.schedule_credit(now + CREDIT_DELAY, feeder, vc.index)
        return flit

    def _pop_and_send(
        self, port: OutputPort, vc: VirtualChannel, now: int
    ) -> Flit:
        """Dequeue the front flit of ``vc`` and transmit it on ``port``.

        This moves every normally allocated flit, so with no observer in
        the way ``_pop`` and ``OutputPort.send`` are flattened in place
        and the credit and the arrival go straight into their cycle
        buckets (targets are ``now + <positive const>`` with ``now ==
        network.cycle``, so the public schedulers' future-only guard
        holds by construction).
        """
        network = self.network
        if self.boundary is not None or network.tracer.enabled:
            # A shard's cut row must go through the schedulers its
            # domain patched, a tracer wants the link event: take the
            # calls.
            flit = self._pop(vc, now)
            port.send(flit, now)
            return flit
        flit = vc.flits.popleft()
        if flit.is_tail:
            vc.allocated_to = vc.next_claim
            vc.next_claim = None
        self.active_flits -= 1
        events = network._events
        feeder = vc.unit.feeder_port
        if feeder is not None:
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
        port.flits_sent += 1
        packet = flit.packet
        if port.held_by is packet:
            port.holder_sent += 1
            vc_index = port.held_dst_vc
        else:
            vc_index = packet.vc_index
        if port.ni_sink is not None:
            network.schedule_eject(now + port.link_hop_latency - 1,
                                   port.ni_sink, flit)
            return flit
        credits = port.credits
        if credits[vc_index] <= 0:
            raise RuntimeError("credit underflow: flow control violated")
        credits[vc_index] -= 1
        if flit.is_head:
            packet.hops_taken += 1
        time = now + port.link_hop_latency
        bucket = events.get(time)
        if bucket is None:
            pool = network._bucket_pool
            bucket = pool.pop() if pool else ([], [], [])
            events[time] = bucket
        bucket[0].append((port.downstream_router, port.downstream_dir,
                          vc_index, flit))
        return flit

    def _collect_head_candidates(self) -> Dict[Port, List[VirtualChannel]]:
        """One pass over all input VCs: head flits grouped by the output
        port they request.  Built once per cycle and shared by all
        output ports (and by LSD in the PRA router)."""
        candidates: Dict[Port, List[VirtualChannel]] = {}
        row = self._route_row
        for vc in self._vc_list:
            flits = vc.flits
            if not flits:
                continue
            front = flits[0]
            if not front.is_head:
                continue
            direction = row[front.packet.dst]
            group = candidates.get(direction)
            if group is None:
                candidates[direction] = [vc]
            else:
                group.append(vc)
        return candidates

    def _round_robin_pick(
        self, direction: Port, candidates: List[VirtualChannel]
    ) -> VirtualChannel:
        """Grant the first candidate strictly after the last grantee in
        cyclic (input direction, vc index) order.

        The candidate list's membership changes every cycle, so the
        pointer must be anchored to the previously granted *key*, not an
        index into the list: an index-modulo scheme can starve a VC
        indefinitely when membership oscillates.  With dense per-VC
        ranks ("first id strictly after the last grantee, wrapping")
        the pick is a modular-arithmetic minimum — no per-cycle sort.
        """
        total = self._rr_total
        last = self._rr_last[direction]
        if last is None:
            last = total - 1
        choice: Optional[VirtualChannel] = None
        best = total
        for vc in candidates:
            rank = (vc.rr_id - last - 1) % total
            if rank < best:
                best = rank
                choice = vc
        self._rr[direction] = choice.rr_key
        self._rr_last[direction] = choice.rr_id
        return choice

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
                [int(direction), list(key) if key is not None else None]
                for direction, key in self._rr.items()
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
        self._rr = {
            as_port(direction_value):
                tuple(key) if key is not None else None
            for direction_value, key in state["rr"]
        }
        # Rebuild the dense-rank mirror of the checkpointed keys.
        key_to_id = self._rr_key_to_id
        self._rr_last = {
            direction: None if key is None else key_to_id[key]
            for direction, key in self._rr.items()
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node={self.node})"


class MeshRouter(BaseRouter):
    """The baseline 1-stage speculative mesh router.

    The same pipeline runs every topology graph: degree comes from the
    topology's port set, and the escape-layer rule of rings and chiplet
    hierarchies is the ``next_vc`` row of each output port.
    """

    def step(self, now: int) -> None:
        if self.active_flits == 0:
            return
        faults = self.network.faults
        fault_on = faults.enabled
        if fault_on and faults.router_stalled(self.node, now):
            return
        used_inputs: Set[Port] = set()
        group_of = self._collect_head_candidates().get
        for port in self.port_list:
            if fault_on and port.fault_stalled(now):
                continue
            if port.held_by is not None:
                self._advance_held(port, now, used_inputs)
            else:
                direction = port.direction
                group = group_of(direction)
                if group:
                    self._try_grant(port, direction, now, used_inputs, group)

    # -- switch traversal of an in-progress packet ---------------------------

    def _advance_held(
        self, port: OutputPort, now: int, used_inputs: Set[Port],
        credit_port: Optional[OutputPort] = None,
    ) -> None:
        """Send the holder's next flit through ``port`` if it can move.

        ``credit_port`` names the port whose credits gate the flit when
        that is not ``port`` itself (a SMART pass-through lands two
        tiles away and skips the buffer ``port`` feeds).
        """
        # Stall checks are inlined (``vc.front()`` / ``has_credit_for``
        # flattened); the trace helper is only invoked when a tracer is
        # actually attached, keeping the common stall to attribute work.
        vc = port.active_vc
        if vc is None:
            return
        flits = vc.flits
        if not flits or flits[0].packet is not port.held_by:
            if self.network.tracer.enabled:
                self._trace_hold(port, now, "awaiting_flit")
            return  # next flit still in flight from upstream
        direction = vc.unit.direction
        if direction in used_inputs:
            if self.network.tracer.enabled:
                self._trace_hold(port, now, "input_busy")
            return
        if port.ni_sink is None and (
            (credit_port or port).credits[port.held_dst_vc] < 1
        ):
            if self.network.tracer.enabled:
                self._trace_hold(port, now, "no_credit")
            return
        used_inputs.add(direction)
        if self._pop_and_send(port, vc, now).is_tail:
            self._release(port, now)

    def _release(self, port: OutputPort, now: int) -> None:
        """The holder's tail flit left: free the switch."""
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(now, EV_SWITCH_RELEASE, pid=port.held_by.pid,
                        node=self.node, direction=port_name(port.direction))
        port.release()

    def _trace_hold(self, port: OutputPort, now: int, reason: str) -> None:
        """Record a held port that could not advance this cycle."""
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_SWITCH_HOLD,
                pid=port.held_by.pid if port.held_by is not None else None,
                node=self.node,
                direction=port_name(port.direction),
                reason=reason,
            )

    # -- head-flit allocation (RC + VA + speculative SA in one cycle) --------

    def _try_grant(
        self, port: OutputPort, direction: Port, now: int,
        used_inputs: Set[Port], candidates: List[VirtualChannel],
    ) -> None:
        """Grant ``port`` to one of the head flits requesting it.

        A candidate is eligible when its crossbar input is free this
        cycle and VC allocation succeeds: the downstream VC
        (``port.next_vc`` of the VC the head sits in) is unallocated,
        empty, and has a credit (ejection always succeeds).
        """
        if port.ni_sink is not None:
            eligible = [vc for vc in candidates
                        if vc.unit.direction not in used_inputs]
        else:
            eligible = []
            next_vc = port.next_vc
            down_vcs = port.downstream_unit.vcs
            credits = port.credits
            for vc in candidates:
                if vc.unit.direction in used_inputs:
                    continue
                dst_vc = next_vc[vc.index]
                down_vc = down_vcs[dst_vc]
                if (down_vc.allocated_to is None and not down_vc.flits
                        and credits[dst_vc] >= 1):
                    eligible.append(vc)
        if eligible:
            choice = self._round_robin_pick(direction, eligible)
            self._grant(port, choice, choice.flits[0].packet, now,
                        used_inputs)

    def _claim_downstream(self, port: OutputPort, packet: Packet,
                          dst_vc: int, now: int) -> None:
        """Allocate the downstream VC that ``_try_grant`` found free."""
        port.downstream_unit.vcs[dst_vc].allocated_to = packet
        boundary = self.boundary
        if boundary is not None:
            # A shard's cut row mirrors VC allocations whose downstream
            # router lives in another shard (the write above landed
            # on a local replica; the owner must replay it).
            boundary.note_grant(port, packet, now)

    def _grant(
        self,
        port: OutputPort,
        vc: VirtualChannel,
        packet: Packet,
        now: int,
        used_inputs: Set[Port],
    ) -> None:
        tracer = self.network.tracer
        dst_vc = packet.vc_index
        if port.ni_sink is None:
            dst_vc = port.next_vc[vc.index]
            self._claim_downstream(port, packet, dst_vc, now)
            if tracer.enabled:
                tracer.emit(now, EV_VC_ALLOC, pid=packet.pid, node=self.node,
                            direction=port_name(port.direction), vc=dst_vc)
        port.hold(packet, vc, dst_vc)
        if tracer.enabled:
            tracer.emit(now, EV_SWITCH_GRANT, pid=packet.pid, node=self.node,
                        direction=port_name(port.direction),
                        input=port_name(vc.unit.direction),
                        input_vc=vc.index)
        used_inputs.add(vc.unit.direction)
        if self._pop_and_send(port, vc, now).is_tail:
            self._release(port, now)
