"""The Mesh+PRA data-network router (paper Figure 4).

Relative to the baseline mesh router, each input unit gains a *bypass*
path (pre-allocated flits cross link → crossbar → link combinationally,
modeled by the upstream driver charging this router's port for the slot)
and a one-cycle *latch*; the router gains a table of promised future
timeslots (the bit vectors, :class:`~repro.core.reservation.Promises`);
and the arbiter is split: the **PRA arbiter** executes the windows
the calendar files under the current cycle (``Promises.due``), and the
**local arbiter** handles everything else, skipping resources the PRA
arbiter is using.  A router with no buffered flit sleeps between
windows: it is woken at a window's first cycle and stays awake through
its last.

The **Long Stall Detection (LSD)** unit watches for a packet stalled
behind a multi-flit packet whose transmission end is deterministic
(enough downstream buffer space and all flits locally buffered) and
injects a control packet so the stalled packet's remaining path is
pre-allocated by the time the port frees up.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Dict, List, Set

from repro.core.plan import LAND_LATCH, LAND_NI, LAND_VC, SRC_VC
from repro.core.reservation import Promises
from repro.noc.flit import Flit
from repro.noc.network import LATCH_INDEX
from repro.noc.router import MeshRouter
from repro.noc.topology import Direction
from repro.trace.events import EV_LATCH_BYPASS

_RR_ID = attrgetter("rr_id")
_FIRST = itemgetter(0)


class PraRouter(MeshRouter):
    """Mesh router extended with PRA arbitration, latches, and LSD."""

    def __init__(self, node: int, network):
        super().__init__(node, network)
        #: One latch per input direction (Figure 4's extra VC); a list,
        #: like a VC's buffer, since a latch holds at most a few flits.
        self._latches: Dict[Direction, List[Flit]] = {
            d: [] for d in self.input_units
        }
        #: Every future timeslot promised on this router's output
        #: ports, crossbar inputs and latches (the control network
        #: claims, the PRA arbiter executes).
        self.promises = Promises(
            network.params.pra.reservation_horizon,
            [port.direction for port in self.port_list],
        )
        #: The promises' calendar (never rebound): ``step`` calls
        #: ``due`` only on a cycle filed there.
        self._calendar = self.promises.calendar
        #: Cached PRA knobs (the step loop reads them every cycle).
        self._use_lsd = network.params.pra.use_lsd_trigger
        self._max_lag = network.params.pra.max_lag

    def has_work(self) -> bool:
        """Awake while flits are buffered or a window covers the next
        cycle.

        Between windows an idle router sleeps: the control network
        files a wake at each window's first cycle
        (:meth:`~repro.core.pra_network.PraNetwork.wake_at`), and this
        keeps the router stepping through the window's later cycles, so
        the PRA arbiter runs at every promised cycle even when no flit
        is buffered locally.
        """
        return (self.active_flits > 0
                or self.promises.scheduled(self.network.cycle + 1))

    # -- per-cycle processing ---------------------------------------------------

    def step(self, now: int) -> None:
        """The PRA arbiter, then the local one, then LSD.

        The PRA arbiter runs even under an injected router stall: the
        paper splits it from the local arbiter (Figure 4), and committed
        reservations are the only thing that drains latches — freezing
        them would strand flits forever instead of modeling a
        recoverable hardware hiccup.  It executes each window due now:
        a bypassed router's window pins the port and crossbar input the
        upstream driver's flit crosses (a normally allocated
        transmission holding the port simply skips the cycle — the PRA
        arbiter has priority); a driver's window reads flit
        ``now - first`` of the packet from its source, sends it across
        the step's one or two hops and lands it, or cancels the plan
        when that flit is not at the front.
        """
        windows = self.promises.due(now) if now in self._calendar else ()
        if windows:
            used_inputs: Set[Direction] = set()
            busy_dirs: Set[Direction] = set()
            network = self.network
            for window in windows:
                step = window.step
                out_dir = step.out_dir
                if not window.is_driver:
                    busy_dirs.add(out_dir)
                    used_inputs.add(out_dir.opposite)
                    continue
                plan = window.plan
                packet = plan.packet
                # The source: a standard VC on the plan's first step,
                # this router's latch on every later one.
                if step.source_kind == SRC_VC:
                    vc = self.input_units[step.source_dir].vcs[
                        step.source_vc]
                    source = vc.flits
                else:
                    vc = None
                    source = self._latches[step.source_dir]
                flit = source[0] if source else None
                if flit is not packet.flits[now - window.first]:
                    plan.cancel()
                    continue
                busy_dirs.add(out_dir)
                used_inputs.add(step.source_dir)
                if vc is not None:
                    self._pop(vc, now)
                else:
                    source.pop(0)
                    self.active_flits -= 1
                # Charge link/crossbar activity; a 2-hop step also
                # crosses the bypassed router's crossbar and outgoing
                # link this cycle.
                self.output_ports[out_dir].flits_sent += 1
                if step.hops == 2:
                    network.routers[step.via_node].output_ports[
                        out_dir].flits_sent += 1
                if flit.is_head:
                    packet.hops_taken += step.hops
                tracer = network.tracer
                if tracer.enabled:
                    tracer.emit(
                        now, EV_LATCH_BYPASS, pid=packet.pid,
                        node=self.node, direction=out_dir.name,
                        hops=step.hops, via=step.via_node, flit=flit.index,
                        source=step.source_kind, landing=step.landing_node,
                        landing_kind=step.landing_kind,
                    )
                # Land it: in the NI, in the landing router's latch, or
                # in its standard VC on the credits the plan claimed.
                landing_kind = step.landing_kind
                if landing_kind == LAND_NI:
                    network.schedule_eject(
                        now + 1, network.interfaces[step.landing_node], flit)
                else:
                    if landing_kind == LAND_LATCH:
                        vc_index = LATCH_INDEX
                    else:
                        assert landing_kind == LAND_VC
                        plan.consume_landing_credit()
                        vc_index = packet.vc_index
                    network.schedule_arrival(
                        now + 1, network.routers[step.landing_node],
                        step.landing_entry, vc_index, flit)
                if flit.is_tail and step is plan.steps[-1]:
                    # The whole pre-allocated stretch has been traversed.
                    plan.finished = True
                    packet.pra_plan = None
                    packet.pra_pending = False
        else:
            used_inputs = None
            busy_dirs = ()
        if not self.active_flits:
            # Awake purely for promised cycles (driving a bypass or
            # pinning resources): the local arbiter has nothing to do.
            return
        # LSD looks at the requests as they stood before the local
        # arbiter ran, and idles with it under a router stall.  Only a
        # held port, or a free one with two or more waiting VCs, can
        # yield a stalled candidate: the scan needs the port held after
        # the arbiter ran, and a free port can only be granted to a VC
        # on its own waiting list.  With one waiting VC the port stays
        # free (no grant, or a single-flit packet left whole) or is held
        # by that VC's packet, whose head has left — the scan skips the
        # port or the VC either way, so other ports' lists are not
        # copied.
        requests = self._use_lsd and [
            (port, port.waiting[:]) for port in self.port_list
            if port.waiting
            and (port.held_by is not None or len(port.waiting) > 1)
        ]
        MeshRouter.step(self, now, used_inputs, busy_dirs)
        faults = self.network.faults
        if requests and not (faults.enabled
                             and faults.router_stalled(self.node, now)):
            self._lsd_scan(now, requests)

    # -- local arbiter constraints ------------------------------------------------
    #
    # The local arbiter is the stock mesh one.  Normally allocated
    # packets never interleave with proactively allocated ones inside a
    # VC because landings claim their VC (``allocated_to``) at
    # reservation time — the structural equivalent of the paper's
    # per-class multi-flit flag.  Port cycles reserved in the future are
    # taken back by preemption (the PRA arbiter has priority at its
    # slots), so VC allocation needs no pending-reservation rule.

    def _count_blocked(self, waiting, used_inputs) -> None:
        """A head flit that would have requested this output this cycle
        was blocked by a proactive allocation for another packet."""
        for vc in waiting:
            if vc.unit.direction in used_inputs:
                continue
            packet = vc.flits[0].packet
            if packet.pra_plan is None:
                packet.pra_blocked_cycles += 1

    # -- the Long Stall Detection unit ----------------------------------------------

    def _lsd_scan(self, now: int, requests) -> None:
        """Inject (at most) one control packet for a deterministic stall.

        Only head flits at the front of a VC can be stalled waiting for
        an output port, so the scan reads ``requests``: each port's
        ``waiting`` list as it stood before the local arbiter ran.  The
        port-side half of the condition is evaluated once per port;
        ports and VCs are then tried in ascending ``rr_id`` order (the
        order of the router's input VCs).

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
        stalled = []
        for port, vcs in requests:
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
            vcs.sort(key=_RR_ID)
            stalled.append((vcs[0].rr_id, remaining, holder, vcs))
        stalled.sort(key=_FIRST)
        for _, remaining, holder, vcs in stalled:
            for vc in vcs:
                flits = vc.flits
                if not flits or not flits[0].is_head:
                    continue  # granted this cycle: its head has left
                packet = flits[0].packet
                if packet.pra_pending or packet.pra_plan is not None:
                    continue
                if packet is holder or len(flits) < packet.size:
                    continue
                plan = self.network.control.inject(
                    packet,
                    self.node,
                    start_slot=now + remaining + 1,
                    trigger="lsd",
                    source_kind=SRC_VC,
                    source_dir=vc.unit.direction,
                    source_vc=vc.index,
                )
                if plan is not None:
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
            self._latches[Direction(direction_value)] = [
                ctx.flit(ref) for ref in refs
            ]
        self.promises.load_state(state["promises"], ctx, self.network.cycle)
