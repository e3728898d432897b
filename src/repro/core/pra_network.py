"""The Mesh+PRA organization: data network + control network + NI hooks.

Two event windows trigger proactive allocation (paper Section III):

1. **LLC hit** — the tile layer calls :meth:`PraNetwork.announce` when
   the tag lookup hits; the response's destination and ready time are
   then known ``data_lookup_cycles`` in advance.  The NI builds a control
   packet, pins the injection slot, and the control network pre-allocates
   the response's path.
2. **In-network blocking** — handled inside the routers by the LSD unit
   (:class:`repro.core.pra_router.PraRouter`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.control_network import ControlNetwork
from repro.core.plan import PraPlan, SRC_VC
from repro.core.pra_router import PraRouter
from repro.core.reservation import OUT, PIN
from repro.noc.interface import NetworkInterface
from repro.noc.mesh import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.topology import Direction
from repro.params import NocParams

#: NI grant happens two cycles before the head's first traversal slot
#: (one cycle NI-to-router link, one cycle becoming allocation-eligible).
_INJECTION_LEAD = 2


class PraInterface(NetworkInterface):
    """NI with deterministic, pinned injection of announced responses."""

    def __init__(self, node: int, network, router):
        super().__init__(node, network, router)
        #: The router's ``PIN`` row: one window of grant cycles per
        #: announced response, in claim order (the arbitration priority).
        self._pin_row = router.promises.row(PIN)

    # -- pin management --------------------------------------------------------

    def can_pin(self, grant_time: int, size: int) -> bool:
        """True when the injection window [grant, grant+size) is free of
        other pinned windows and of the currently draining packet."""
        if self.port.is_held:
            holder = self.port.held_by
            drain_done = self.network.cycle + (
                holder.size - self.port.holder_sent
            )
            if drain_done > grant_time:
                return False
        return self.router.promises.free(PIN, grant_time, size)

    def pin(self, plan: PraPlan, now: int) -> None:
        """Promise the plan's packet the injection link from its grant
        cycle, one cycle per flit; the window dies with the plan."""
        grant_time = plan.start_slot - _INJECTION_LEAD
        self.router.promises.claim(now, PIN, grant_time, plan.size, plan)

    # -- injection overrides ------------------------------------------------------

    def _may_inject(self, packet: Packet, now: int) -> bool:
        row = self._pin_row
        if not row:
            return True
        # Unpinned packets may only use the port if they finish before
        # the earliest pinned grant.
        earliest = None
        for window in row:
            if window.end <= now or window.plan.cancelled:
                continue
            if window.plan.packet is packet:
                return now >= window.first
            if earliest is None or window.first < earliest:
                earliest = window.first
        return earliest is None or now + packet.size <= earliest

    def _arbitrate(self, now: int) -> None:
        # A pinned packet whose grant time has arrived takes priority and
        # may be picked from anywhere in its class queue.
        for window in self._pin_row:
            if (now < window.first or window.end <= now
                    or window.plan.cancelled):
                continue
            packet = window.plan.packet
            if packet in self.queues[packet.vc_index]:
                self._start_injection(packet, now)
                return
        super()._arbitrate(now)

    def _start_injection(self, packet: Packet, now: int) -> None:
        port = self.port
        downstream_vc = port.downstream_vc(packet.vc_index)
        if downstream_vc.allocated_to is not packet:
            # Ownership is pre-set (or chained) for planned injections;
            # anything else allocates the VC here as usual.
            if downstream_vc.allocated_to is None:
                downstream_vc.allocated_to = packet
                if downstream_vc.next_claim is packet:
                    # Stale self-chain (the predecessor was cancelled).
                    downstream_vc.next_claim = None
            else:
                # A chained claim that has not handed over yet: the
                # owner's tail is still draining; wait.
                return
        port.hold(packet, source_vc=None)
        packet.injected = now
        self._trace_injection(packet, now)
        self._continue_holder(now)


class PraNetwork(MeshNetwork):
    """Mesh+PRA: PRA routers, PRA interfaces, and the control network."""

    router_class = PraRouter
    interface_class = PraInterface
    #: The control network's reservation walk
    #: (:meth:`ControlNetwork._process`, a deferred call) reads credit
    #: counters, so credits keep insertion order with control steps.
    credits_ordered = True
    #: Pre-allocated flits land in the routers' latches (Figure 4).
    latch_arrivals = True

    def __init__(self, params: NocParams):
        super().__init__(params)
        self.control = ControlNetwork(self)
        #: The wake list: cycle -> ``(node, plan)`` for each router
        #: whose promised ``OUT`` window opens at that cycle.  Derived
        #: from the routers' windows (rebuilt on restore, never saved).
        self._wakes: Dict[int, List[Tuple[int, PraPlan]]] = {}

    def wake_at(self, cycle: int, node: int, plan: PraPlan) -> None:
        """Wake the router at ``node`` at ``cycle`` (a future cycle: the
        first of a window promised to ``plan``), unless the plan is
        cancelled by then.  Until then the router may sleep."""
        self._wakes.setdefault(cycle, []).append((node, plan))

    def _begin_step(self, now: int) -> List[int]:
        """Wake the routers whose windows open now, then begin the
        cycle as every network does."""
        wakes = self._wakes.pop(now, None)
        if wakes is not None:
            for node, plan in wakes:
                if not plan.cancelled:
                    self.wake_router(node)
        return super()._begin_step(now)

    def announce(self, packet: Packet, ready_in: int) -> None:
        """LLC-hit trigger: pre-allocate the response's path.

        ``ready_in`` is the number of cycles until the data lookup
        completes and the packet is handed to the NI.
        """
        if not self.params.pra.use_llc_trigger:
            return
        if packet.src == packet.dst:
            return  # local hit; never enters the network
        max_lead = self.params.pra.max_lag + 1
        if ready_in > max_lead:
            # Long-lead announcement (e.g. a deterministic DRAM
            # completion): defer until the control packet's full lag
            # budget is usable — reserving ~90 cycles out would exceed
            # the bit vectors' horizon and starve other traffic.
            self.schedule_call(
                self.cycle + ready_in - max_lead,
                self.announce, packet, max_lead,
            )
            return
        ni: PraInterface = self.interfaces[packet.src]
        t_ready = self.cycle + ready_in
        start_slot = t_ready + _INJECTION_LEAD
        if not ni.can_pin(t_ready, packet.size):
            return
        self.control.inject(
            packet,
            packet.src,
            start_slot=start_slot,
            trigger="llc",
            source_kind=SRC_VC,
            source_dir=Direction.LOCAL,
            source_vc=packet.vc_index,
        )

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        state = super().state_dict(ctx)
        state["control"] = self.control.state_dict(ctx)
        return state

    def load_state(self, state: dict, ctx) -> None:
        super().load_state(state, ctx)
        self.control.load_state(state["control"], ctx)
        # A restored window that has not opened yet still owes its
        # router a wake (one already open kept the router awake, so it
        # is in the restored wake queue).
        self._wakes = {}
        now = self.cycle
        for router in self.routers:
            for (kind, _), window in router.promises.windows():
                if kind == OUT and window.first >= now:
                    self.wake_at(window.first, router.node, window.plan)
