"""The Mesh+PRA data-network router (paper Figure 4).

Relative to the baseline mesh router, each input unit gains a *bypass*
path (pre-allocated flits cross link → crossbar → link combinationally,
modeled by the upstream driver charging this router's port for the slot)
and a one-cycle *latch*; the router gains a table of promised future
timeslots (the bit vectors, :class:`~repro.core.reservation.Promises`);
and the arbiter is split: the **PRA arbiter** executes any window
covering the current cycle, and the **local arbiter** handles
everything else, skipping resources the PRA arbiter is using.

The **Long Stall Detection (LSD)** unit watches for a packet stalled
behind a multi-flit packet whose transmission end is deterministic
(enough downstream buffer space and all flits locally buffered) and
injects a control packet so the stalled packet's remaining path is
pre-allocated by the time the port frees up.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set

from repro.core.plan import LAND_LATCH, LAND_NI, LAND_VC, PraPlan, SRC_VC
from repro.core.reservation import Promises, Window
from repro.noc.flit import Flit
from repro.noc.network import LATCH_INDEX
from repro.noc.router import MeshRouter
from repro.noc.topology import Direction
from repro.trace.events import EV_LATCH_BYPASS

class PraRouter(MeshRouter):
    """Mesh router extended with PRA arbitration, latches, and LSD."""

    def __init__(self, node: int, network):
        super().__init__(node, network)
        #: One latch per input direction (Figure 4's extra VC).
        self._latches: Dict[Direction, Deque[Flit]] = {
            d: deque() for d in self.input_units
        }
        #: Every future timeslot promised on this router's output
        #: ports, crossbar inputs and latches (the control network
        #: claims, the PRA arbiter executes).
        self.promises = Promises(
            network.params.pra.reservation_horizon,
            [port.direction for port in self.port_list],
        )
        #: Cached PRA knobs (the step loop reads them every cycle).
        self._use_lsd = network.params.pra.use_lsd_trigger
        self._max_lag = network.params.pra.max_lag

    def has_work(self) -> bool:
        """Awake while flits are buffered or any reservation is pending.

        Keeping the router awake through its reserved slots reproduces
        the always-stepping behavior exactly: the PRA arbiter must run
        at every reserved cycle even when no flit is buffered locally.
        """
        return (self.active_flits > 0
                or self.promises.pending(self.network.cycle + 1))

    # -- per-cycle processing ---------------------------------------------------

    def step(self, now: int) -> None:
        used_inputs: Set[Direction] = set()
        busy_dirs: Set[Direction] = set()
        # The PRA arbiter runs even under an injected router stall:
        # the paper splits it from the local arbiter (Figure 4), and
        # committed reservations are the only thing that drains
        # latches — freezing them would strand flits forever instead
        # of modeling a recoverable hardware hiccup.
        self._execute_reservations(now, used_inputs, busy_dirs)
        if self.active_flits == 0:
            # Awake purely for reserved slots (driving a bypass or
            # pinning resources): the local arbiter has nothing to do.
            return
        faults = self.network.faults
        fault_on = faults.enabled
        if fault_on and faults.router_stalled(self.node, now):
            return
        candidates = self._collect_head_candidates()
        group_of = candidates.get
        for port in self.port_list:
            direction = port.direction
            if fault_on and port.fault_stalled(now):
                continue
            if busy_dirs and direction in busy_dirs:
                self._count_blocked(group_of(direction), used_inputs)
            elif port.held_by is not None:
                self._advance_held(port, now, used_inputs)
            else:
                group = group_of(direction)
                if group:
                    self._try_grant(port, direction, now, used_inputs, group)
        if self._use_lsd:
            self._lsd_scan(now, candidates)

    # -- the PRA arbiter ---------------------------------------------------------

    def _execute_reservations(
        self, now: int, used_inputs: Set[Direction], busy_dirs: Set[Direction]
    ) -> None:
        for window in self.promises.due(now):
            if window.is_driver:
                self._drive_window(window, now, used_inputs, busy_dirs)
            else:
                # A pre-allocated flit crosses this router's crossbar and
                # output link this cycle (set up by the upstream driver);
                # pin the port and the crossbar input for the cycle.  A
                # normally allocated transmission holding the port simply
                # skips this cycle (the PRA arbiter has priority).
                out_dir = window.step.out_dir
                busy_dirs.add(out_dir)
                used_inputs.add(out_dir.opposite)

    def _drive_window(
        self,
        window: Window,
        now: int,
        used_inputs: Set[Direction],
        busy_dirs: Set[Direction],
    ) -> None:
        plan = window.plan
        step = window.step
        packet = plan.packet
        flit = self._source_front(step)
        if flit is not packet.flits[now - window.first]:
            plan.cancel()
            return
        port = self.output_ports[step.out_dir]
        busy_dirs.add(step.out_dir)
        used_inputs.add(step.source_dir)
        self._pop_source(step, now)
        # Charge link/crossbar activity; a 2-hop step also crosses the
        # bypassed router's crossbar and outgoing link this cycle.
        port.flits_sent += 1
        if step.hops == 2:
            via_router = self.network.routers[step.via_node]
            via_router.output_ports[step.out_dir].flits_sent += 1
        if flit.is_head:
            packet.hops_taken += step.hops
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_LATCH_BYPASS, pid=packet.pid, node=self.node,
                direction=step.out_dir.name, hops=step.hops,
                via=step.via_node, flit=flit.index,
                source=step.source_kind, landing=step.landing_node,
                landing_kind=step.landing_kind,
            )
        self._deliver_to_landing(step, plan, flit, now)
        if flit.is_tail and step is plan.steps[-1]:
            # The whole pre-allocated stretch has been traversed.
            plan.finished = True
            packet.pra_plan = None
            packet.pra_pending = False

    def _source_front(self, step) -> Optional[Flit]:
        if step.source_kind == SRC_VC:
            vc = self.input_units[step.source_dir].vcs[step.source_vc]
            return vc.front()
        latch = self._latches[step.source_dir]
        return latch[0] if latch else None

    def _pop_source(self, step, now: int) -> None:
        if step.source_kind == SRC_VC:
            self._pop(self.input_units[step.source_dir].vcs[step.source_vc],
                      now)
        else:
            self._latches[step.source_dir].popleft()
            self.active_flits -= 1

    def _deliver_to_landing(self, step, plan: PraPlan, flit: Flit, now: int) -> None:
        if step.landing_kind == LAND_NI:
            ni = self.network.interfaces[step.landing_node]
            self.network.schedule_eject(now + 1, ni, flit)
            return
        landing_router = self.network.routers[step.landing_node]
        if step.landing_kind == LAND_LATCH:
            self.network.schedule_arrival(
                now + 1, landing_router, step.landing_entry, LATCH_INDEX, flit
            )
            return
        assert step.landing_kind == LAND_VC
        plan.consume_landing_credit()
        self.network.schedule_arrival(
            now + 1,
            landing_router,
            step.landing_entry,
            flit.packet.vc_index,
            flit,
        )

    # -- local arbiter constraints ------------------------------------------------
    #
    # The local arbiter is the stock mesh one.  Normally allocated
    # packets never interleave with proactively allocated ones inside a
    # VC because landings claim their VC (``allocated_to``) at
    # reservation time — the structural equivalent of the paper's
    # per-class multi-flit flag.  Port cycles reserved in the future are
    # taken back by preemption (the PRA arbiter has priority at its
    # slots), so VC allocation needs no pending-reservation rule.

    def _count_blocked(self, candidates, used_inputs) -> None:
        """A head flit that would have requested this output this cycle
        was blocked by a proactive allocation for another packet."""
        if not candidates:
            return
        for vc in candidates:
            if vc.unit.direction in used_inputs:
                continue
            front = vc.front()
            if front is not None and front.is_head and (
                front.packet.pra_plan is None
            ):
                front.packet.pra_blocked_cycles += 1

    # -- the Long Stall Detection unit ----------------------------------------------

    def _lsd_scan(self, now: int, candidates) -> None:
        """Inject (at most) one control packet for a deterministic stall.

        Only head flits at the front of a VC can be stalled waiting for
        an output port, so the scan reuses the cycle's candidate map —
        whose groups share an output port, so the port-side half of the
        condition is evaluated once per group.

        The paper's condition: the wanted output is busy forwarding
        another multi-flit packet, and the downstream router has enough
        buffer space for the remainder of that packet — then it streams
        one flit per cycle and its end is known.  The stalled packet's
        own flits must be buffered so it can stream as soon as granted.
        An upstream supply hiccup of the draining packet invalidates the
        prediction; the driver then finds the port still held and
        cancels the plan (the hardware equivalent: the expected flit is
        absent, so the valid bit is dropped).
        """
        max_lag = self._max_lag
        for direction, vcs in candidates.items():
            port = self.output_ports[direction]
            holder = port.held_by
            if holder is None or not holder.is_multi_flit:
                continue
            # The holder's remaining flits are the lag: the port frees
            # at ``now + remaining``, so the first grantable slot is the
            # cycle after.
            remaining = holder.size - port.holder_sent
            if remaining < 1 or remaining > max_lag:
                continue
            if (port.ni_sink is None
                    and port.credits[holder.vc_index] < remaining):
                continue
            for vc in vcs:
                flits = vc.flits
                if not flits or not flits[0].is_head:
                    continue  # granted this cycle: its head has left
                packet = flits[0].packet
                if packet.pra_pending or packet.pra_plan is not None:
                    continue
                if packet is holder or len(flits) < packet.size:
                    continue
                run = self.network.control.inject(
                    packet,
                    self.node,
                    start_slot=now + remaining + 1,
                    trigger="lsd",
                    source_kind=SRC_VC,
                    source_dir=vc.unit.direction,
                    source_vc=vc.index,
                )
                if run is not None:
                    return  # one LSD injection per router per cycle

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self, ctx) -> dict:
        state = super().state_dict(ctx)
        state["latches"] = [
            [int(direction), [ctx.flit_ref(flit) for flit in latch]]
            for direction, latch in self._latches.items()
        ]
        state["promises"] = self.promises.state_dict(ctx, self.network.cycle)
        return state

    def load_state(self, state: dict, ctx) -> None:
        super().load_state(state, ctx)
        for direction_value, refs in state["latches"]:
            self._latches[Direction(direction_value)] = deque(
                ctx.flit(ref) for ref in refs
            )
        self.promises.load_state(state["promises"], ctx)
