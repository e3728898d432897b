"""The bufferless control network that performs proactive allocation.

Structure (paper Figure 5): a mesh of single-cycle 2-hop multi-drop
segments per direction.  A control packet is one flit: {destination, lag,
packet size, message class, look-ahead route}.  Each hop costs one cycle
of processing and one of transmission, so the control packet advances
two hops per two cycles while the corresponding data packet will cover
two hops per cycle on the pre-allocated path — hence the *lag* (cycles
between control and data packet) shrinks by one per segment and the
packet is dropped when it reaches zero.  Turns are not allowed inside a
multi-drop segment, so a segment that would cross the XY turn point
covers a single hop.  A control packet that cannot reserve what it needs
is simply dropped; partial pre-allocation keeps whatever was reserved.

Mapping into the simulator: a control packet is the
:class:`~repro.core.plan.PraPlan` it builds, whose cursor walks the data
packet's XY route, attempting one :class:`~repro.core.plan.PlanStep`
every two cycles.  Reservation attempts are all-or-nothing per step:
driver-port timeslots, bypassed-router timeslots, crossbar input slots,
latch availability (for the ACK conversion of the previous landing), and
full-packet buffer space at the new landing — each one window in a
router's :class:`~repro.core.reservation.Promises`, and a refused
attempt is counted under the check that refused it.  Contention for the
multi-drop media and injection latches is modeled with per-(node,
direction, cycle) claims; the loser is dropped, mirroring the statically
prioritized input latches of the hardware.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.core.plan import (
    LAND_LATCH,
    LAND_NI,
    LAND_VC,
    PlanStep,
    PraPlan,
    SRC_LATCH,
)
from repro.core.reservation import IN, LATCH, OUT
from repro.noc.packet import Packet
from repro.noc.topology import Direction
from repro.params import PRA_HOPS_PER_CYCLE
from repro.trace.events import (
    EV_CONTROL_DROP,
    EV_CONTROL_INJECT,
    EV_CONTROL_SEGMENT,
    EV_FAULT,
    EV_RESERVATION_COMMIT,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pra_network import PraNetwork
    from repro.core.pra_router import PraRouter

#: Drop reasons (Figure 7 groups drops by remaining lag; reasons feed
#: the more detailed diagnostics).
DROP_LAG_ZERO = "lag_zero"
DROP_RESOURCE_BUSY = "resource_busy"
DROP_CONTROL_CONFLICT = "control_conflict"
DROP_REACHED_DESTINATION = "reached_destination"
#: Chaos-harness drops (see :mod:`repro.faults`).
DROP_FAULT = "fault_drop"
DROP_FAULT_ACK = "fault_ack_loss"
DROP_FAULT_BLACKOUT = "fault_blackout"

#: Cycles per multi-drop segment: one processing + one transmission.
SEGMENT_CYCLES = 2


class ControlNetwork:
    """Reservation engine shared by all Mesh+PRA routers."""

    def __init__(self, network: "PraNetwork"):
        self.network = network
        self.params = network.params.pra
        self.stats = network.stats
        #: Multi-drop media and injection-latch claims, bucketed per
        #: cycle: cycle -> {(node, direction-or-"inject"), ...}.  Every
        #: claim targets a future cycle, and each claim first pops the
        #: buckets of cycles already reached, so at most
        #: ``SEGMENT_CYCLES`` buckets exist after any claim.
        self._media: Dict[int, Set[Tuple[int, object]]] = {}

    # -- injection ----------------------------------------------------------

    def inject(
        self,
        packet: Packet,
        source_node: int,
        start_slot: int,
        trigger: str,
        source_kind: str,
        source_dir: Direction,
        source_vc: int,
    ) -> Optional[PraPlan]:
        """Place a control packet in the local latch, if free.

        ``start_slot`` is the cycle the data packet's head flit will
        traverse the source router's output port.  Returns the plan the
        control packet builds, or None when the injection was dropped
        (latch busy or lag window unusable).
        """
        now = self.network.cycle
        process_at = now + 1
        lag = start_slot - process_at
        if lag < 1:
            return None  # nothing left to pre-allocate
        lag = min(lag, self.params.max_lag)
        tracer = self.network.tracer
        faults = self.network.faults
        if faults.enabled:
            if faults.blackout_at(source_node, process_at):
                self._fault(now, "control_blackout", packet.pid,
                            source_node, "control_inject", "blackout")
                return None
            if faults.drop_control_inject(source_node, packet.pid, now):
                self._fault(now, "control_drop", packet.pid, source_node,
                            "control_inject", "drop")
                return None
        if not self._claim_all([(source_node, "inject", process_at)]):
            # The local latch is busy: the packet never enters the
            # control network (it is not counted as injected).
            self.stats.control_injection_conflicts += 1
            if tracer.enabled:
                tracer.emit(now, EV_CONTROL_INJECT, pid=packet.pid,
                            node=source_node, accepted=False,
                            trigger=trigger)
            return None
        plan = PraPlan(
            packet,
            start_slot,
            self.network.topology.route(source_node, packet.dst),
            lag,
            trigger,
            source_kind,
            source_dir,
            source_vc,
        )
        packet.pra_pending = True
        stats = self.stats
        stats.control_packets_injected += 1
        if packet.pid in stats.plans:
            # A fresh control packet restarts the plan-length count.
            stats.plans[packet.pid] = 0
        if tracer.enabled:
            tracer.emit(now, EV_CONTROL_INJECT, pid=packet.pid,
                        node=source_node, accepted=True, trigger=trigger,
                        lag=lag, start_slot=start_slot, dst=packet.dst)
        self.network.schedule_call(process_at, self._process, plan)
        return plan

    # -- per-segment processing -------------------------------------------

    def _process(self, plan: PraPlan) -> None:
        now = self.network.cycle
        if plan.cancelled:
            # The data packet missed its window and the plan was torn
            # down while this control packet was still in flight; any
            # further reservation would leak claims.  Drop.
            self._record_drop(max(plan.lag, 0), DROP_RESOURCE_BUSY, plan)
            return
        node, direction = plan.route[plan.pos]
        faults = self.network.faults
        if faults.enabled and not self._survives_faults(plan, node, now,
                                                        faults):
            return
        hops = self._step_hops(plan, direction)
        refused = self._reserve_step(plan, node, direction, hops, now)
        if refused is not None:
            self._finish(plan, DROP_RESOURCE_BUSY, refused)
            return
        if direction is Direction.LOCAL:
            plan.lag -= 1
            self._finish(plan, DROP_REACHED_DESTINATION)
            return
        plan.pos += hops
        plan.entry_dir = direction.opposite
        plan.next_slot += 1
        plan.lag -= 1
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(now, EV_CONTROL_SEGMENT, pid=plan.packet.pid,
                        node=node, direction=direction.name, hops=hops,
                        slot=plan.next_slot - 1, lag=plan.lag)
        if plan.lag <= 0:
            self._finish(plan, DROP_LAG_ZERO)
            return
        # Transmit over the next multi-drop segment: the receivers' input
        # latches are claimed; on conflict the packet is dropped there.
        # Both latch claims of a 2-hop segment must succeed together —
        # committing one before checking the other would leak a claim
        # that later drops an unrelated control packet with a spurious
        # conflict at that (node, direction, cycle).
        next_time = now + SEGMENT_CYCLES
        keys = [(plan.route[plan.pos][0], direction, next_time)]
        if hops == 2:
            keys.append((plan.route[plan.pos - 1][0], direction, next_time))
        if not self._claim_all(keys):
            self._finish(plan, DROP_CONTROL_CONFLICT)
            return
        self.network.schedule_call(next_time, self._process, plan)

    def _survives_faults(self, plan: PraPlan, node: int, now: int,
                         faults) -> bool:
        """Apply control-plane faults at a segment boundary.

        Returns False (after settling the plan) when the control packet
        was eaten here.  ACK loss is applied *before* any reservation
        attempt, so the already committed prefix — which ends in a
        standard-VC landing with full buffer space claimed — stays
        self-consistent: the data packet simply stops there and falls
        back to hop-by-hop allocation.
        """
        pid = plan.packet.pid
        if faults.blackout_at(node, now):
            self._fault(now, "control_blackout", pid, node,
                        "control_segment", "blackout")
            self._finish(plan, DROP_FAULT_BLACKOUT)
            return False
        if faults.drop_control_segment(node, pid, now):
            self._fault(now, "control_drop", pid, node, "control_segment",
                        "drop")
            self._finish(plan, DROP_FAULT)
            return False
        if plan.pos > 0 and faults.suppress_ack(node, pid, now):
            self._fault(now, "ack_loss", pid, node, "ack", "suppressed")
            self._finish(plan, DROP_FAULT_ACK)
            return False
        return True

    def _fault(self, now: int, kind: str, pid: int, node: Optional[int],
               site: str, fault: str, **data) -> None:
        """One acted-on control-plane fault: count it under ``kind``
        (when an injector is attached) and trace it."""
        faults = self.network.faults
        if faults.enabled:
            faults.record(kind)
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(now, EV_FAULT, pid=pid, node=node, site=site,
                        fault=fault, **data)

    def _step_hops(self, plan: PraPlan, direction: Direction) -> int:
        """2 hops when the route continues straight past the next router
        (turns are not allowed within a multi-drop segment)."""
        nxt = plan.pos + 1
        if nxt < len(plan.route) and plan.route[nxt][1] is direction:
            return PRA_HOPS_PER_CYCLE
        return 1

    # -- reservation attempts (all-or-nothing per step) -----------------------

    def _reserve_step(
        self,
        plan: PraPlan,
        node: int,
        direction: Direction,
        hops: int,
        now: int,
    ) -> Optional[str]:
        """Reserve the plan's next step; the last one (``direction`` is
        ``LOCAL``) pre-allocates the destination router's ejection port.
        Returns None once committed, else the check that refused."""
        routers = self.network.routers
        driver: "PraRouter" = routers[node]
        promises = driver.promises
        size = plan.packet.size
        slot = plan.next_slot
        src_kind, src_dir, src_vc = self._step_source(plan)

        if not promises.within_horizon(now, slot, size):
            return "horizon"
        # 1. Driver output-port timeslots.  A port currently held by a
        # normally allocated packet is still reservable: the PRA arbiter
        # preempts the hold at the reserved slots (the held transmission
        # skips those cycles), and buffer interleaving is impossible
        # because landings claim their VC at reservation time.
        if not promises.free((OUT, direction), slot, size):
            return "driver_port"
        # Injected link stalls are visible at reservation time (the
        # static schedule), so slots that would drive a dead link are
        # refused here and the packet degrades to hop-by-hop allocation.
        faults = self.network.faults
        if faults.enabled and faults.link_window_blocked(
            node, direction, slot, size
        ):
            return "link_fault"
        # 2. Driver crossbar input.
        if not promises.free((IN, src_dir), slot, size):
            return "driver_input"
        # 3. Bypassed router (2-hop steps).
        via_node = None
        if hops == 2:
            via_node = plan.route[plan.pos + 1][0]
            via = routers[via_node].promises
            if not via.free((OUT, direction), slot, size):
                return "via_port"
            if not via.free((IN, direction.opposite), slot, size):
                return "via_input"
            if faults.enabled and faults.link_window_blocked(
                via_node, direction, slot, size
            ):
                return "link_fault"
        # 4. Landing buffer: full-packet space in the standard VC (an
        # ejecting step lands in the NI, which always accepts).
        ejecting = direction is Direction.LOCAL
        if not ejecting:
            landing_port = routers[
                node if via_node is None else via_node
            ].output_ports[direction]
            vc_index = plan.packet.vc_index
            if not landing_port.downstream_vc(vc_index).can_accept_packet(
                plan.packet
            ):
                return "landing_vc"
            if landing_port.credits[vc_index] < size:
                return "landing_credits"
        # 5. ACK conversion: the previous landing (this driver) becomes a
        # latch instead of a buffered stop — the latch must be free.
        # Flit i lands in the latch at the end of slot - 1 + i.
        if plan.pos > 0 and not promises.free((LATCH, src_dir), slot - 1,
                                              size):
            return "latch"
        # 6. LLC-triggered plans stream the response out of the source
        # NI: its local VC and injection credits must be claimable.
        if (plan.pos == 0 and plan.trigger == "llc"
                and not self._step0_source_claimable(plan, node)):
            return "source_vc"

        # --- commit ---
        if plan.pos > 0:
            # The ACK: the flit will pass through this router's latch
            # instead of stopping in the claimed standard VC.
            plan.release_landing_vc()
            plan.steps[-1].landing_kind = LAND_LATCH
            promises.claim(now, (LATCH, src_dir), slot - 1, size, plan)
        else:
            self._claim_step0_source(plan, driver, now)
        step = PlanStep(
            driver_node=node,
            out_dir=direction,
            slot=slot,
            hops=hops,
            source_kind=src_kind,
            source_dir=src_dir,
            source_vc=src_vc,
            via_node=via_node,
            landing_node=node if ejecting else plan.route[plan.pos + hops][0],
            landing_kind=LAND_NI if ejecting else LAND_VC,
            landing_entry=direction.opposite,
        )
        self._append_step(plan, step)
        promises.claim(now, (OUT, direction), slot, size, plan, step, True)
        promises.claim(now, (IN, src_dir), slot, size, plan)
        # The reserved routers must be stepping when their slots arrive
        # even if no flit is buffered there: each is woken at ``slot``,
        # and has_work() keeps it awake through the window's last cycle.
        network = self.network
        network.wake_at(slot, node, plan)
        if via_node is not None:
            via.claim(now, (OUT, direction), slot, size, plan, step)
            via.claim(now, (IN, direction.opposite), slot, size, plan)
            network.wake_at(slot, via_node, plan)
        if not ejecting:
            plan.claim_landing_vc(landing_port, vc_index)
        plans = self.stats.plans
        pid = plan.packet.pid
        plans[pid] = plans.get(pid, 0) + 1
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_RESERVATION_COMMIT, pid=pid, node=node,
                direction=direction.name, slot=slot, size=size, hops=hops,
                via=via_node, landing=step.landing_node,
                landing_kind=step.landing_kind,
            )
        return None

    # -- helpers ----------------------------------------------------------

    def _step_source(self, plan: PraPlan) -> Tuple[str, Direction, int]:
        if plan.pos == 0:
            return plan.source_kind, plan.source_dir, plan.source_vc
        return SRC_LATCH, plan.entry_dir, 0

    def _step0_source_claimable(self, plan: PraPlan, node: int) -> bool:
        """The announced response will stream through the source NI's
        local VC.  The VC is claimable when it is free, or when its
        current owner is itself a pinned, planned injection whose drain
        schedule is deterministic (pin windows never overlap, and planned
        packets leave the VC at their reserved slots) — then ownership is
        chained to hand over the instant the owner's tail departs.  The
        NI is the only writer into this VC and injections charge credits
        normally, so no buffer-space claim is needed."""
        ni = self.network.interfaces[node]
        vc = ni.port.downstream_vc(plan.packet.vc_index)
        if vc.can_accept_packet(plan.packet):
            return True
        owner = vc.allocated_to
        if owner is None or vc.next_claim is not None:
            return False
        owner_plan = owner.pra_plan
        return (
            owner_plan is not None
            and owner_plan.injection_vc is vc
            and not owner_plan.cancelled
        )

    def _claim_step0_source(self, plan: PraPlan, driver: "PraRouter",
                            now: int) -> None:
        """Take (or chain) ownership of the source NI's local VC and pin
        the injection slot."""
        if plan.trigger != "llc":
            return
        ni = self.network.interfaces[driver.node]
        vc = ni.port.downstream_vc(plan.packet.vc_index)
        if vc.allocated_to is None and vc.is_empty:
            vc.allocated_to = plan.packet
        else:
            assert vc.next_claim is None
            vc.next_claim = plan.packet
        plan.injection_vc = vc
        ni.pin(plan, now)

    def _claim_all(self, keys: Sequence[Tuple[int, object, int]]) -> bool:
        """Claim every (node, key, cycle) or none (check, then commit),
        after dropping the buckets of cycles no claim can target."""
        media = self._media
        now = self.network.cycle
        for cycle in [cycle for cycle in media if cycle <= now]:
            del media[cycle]
        for node, key, cycle in keys:
            bucket = media.get(cycle)
            if bucket is not None and (node, key) in bucket:
                return False
        for node, key, cycle in keys:
            media.setdefault(cycle, set()).add((node, key))
        return True

    def claimed(self, node: int, key, cycle: int) -> bool:
        """Is this (node, key, cycle) media slot claimed?  A reached
        cycle's bucket is dead, even before a claim drops it."""
        bucket = self._media.get(cycle)
        return (cycle > self.network.cycle and bucket is not None
                and (node, key) in bucket)

    def _append_step(self, plan: PraPlan, step: PlanStep) -> None:
        """Commit a step; the packet adopts the plan at its first step
        (the NI may need the plan before the walk ends)."""
        first = not plan.steps
        plan.steps.append(step)
        if first:
            plan.packet.pra_plan = plan
            self.stats.pra_planned_packets += 1
            faults = self.network.faults
            if faults.enabled:
                expire_at = faults.plan_expiry(
                    plan.packet.pid, self.network.cycle, plan.start_slot
                )
                if expire_at is not None:
                    self.network.schedule_call(
                        expire_at, self._expire_plan, plan
                    )

    def _expire_plan(self, plan: PraPlan) -> None:
        """Chaos fault: corrupted/expired reservation state tears the
        plan down strictly before its first timeslot.  Expiring a plan
        that has started executing would strand flits in latches (they
        drain only through plan execution) — that is a simulator bug,
        not a modelable hardware fault, so the guard is hard."""
        if plan.cancelled or plan.finished:
            return
        if self.network.cycle >= plan.start_slot:
            return
        self._fault(self.network.cycle, "plan_expired", plan.packet.pid,
                    plan.steps[0].driver_node if plan.steps else None,
                    "reservation", "expired", steps=len(plan.steps))
        plan.cancel()

    def _finish(self, plan: PraPlan, reason: str,
                refused: Optional[str] = None) -> None:
        """The control packet is dropped (every control packet ends in a
        drop); record Figure 7's lag-at-drop and settle the plan."""
        lag = max(plan.lag, 0)
        self._record_drop(lag, reason, plan, refused)
        if not plan.steps:
            plan.cancel()
            plan.packet.pra_pending = False

    def _record_drop(self, lag: int, reason: str, plan: PraPlan,
                     refused: Optional[str] = None) -> None:
        self.stats.control_lag_at_drop[lag] += 1
        self.stats.control_drop_reasons[reason] += 1
        if refused is not None:
            self.stats.control_refusals[refused, lag] += 1
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.cycle, EV_CONTROL_DROP, pid=plan.packet.pid,
                node=plan.route[min(plan.pos, len(plan.route) - 1)][0],
                reason=reason, lag=lag, steps=len(plan.steps),
            )

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        """Media claims are membership-only (never iterated), so each
        bucket is serialized in a canonical sorted order.  Buckets of
        cycles already reached are dead and left out, so a snapshot does
        not depend on when the last claim happened."""
        now = self.network.cycle
        media = []
        for cycle, bucket in sorted(self._media.items()):
            if cycle <= now:
                continue
            claims = sorted(
                ([node, int(key) if isinstance(key, Direction) else key]
                 for node, key in bucket),
                key=lambda claim: (claim[0], str(claim[1])),
            )
            media.append([cycle, claims])
        return {"media": media}

    def load_state(self, state: dict, ctx) -> None:
        # Older snapshots may hold reached buckets (and a purge floor):
        # both are dead, so they are dropped here.
        now = self.network.cycle
        self._media = {
            cycle: {
                (node, key if key == "inject" else Direction(key))
                for node, key in claims
            }
            for cycle, claims in state["media"]
            if cycle > now
        }
