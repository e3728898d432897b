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

Mapping into the simulator: a :class:`ControlRun` walks the data
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

from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

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


class ControlRun:
    """One control packet's life, from injection to drop."""

    __slots__ = (
        "packet",
        "plan",
        "route",
        "pos",
        "next_slot",
        "lag",
        "trigger",
        "source_kind",
        "source_dir",
        "source_vc",
        "entry_dir",
    )

    def __init__(
        self,
        packet: Packet,
        route: List[Tuple[int, Direction]],
        start_slot: int,
        lag: int,
        trigger: str,
        source_kind: str,
        source_dir: Direction,
        source_vc: int,
    ):
        self.packet = packet
        self.plan = PraPlan(packet, start_slot)
        self.route = route
        self.pos = 0
        self.next_slot = start_slot
        self.lag = lag
        self.trigger = trigger
        self.source_kind = source_kind
        self.source_dir = source_dir
        self.source_vc = source_vc
        #: Direction the data packet enters the current driver from.
        self.entry_dir: Optional[Direction] = None

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        return {
            "packet": ctx.packet_ref(self.packet),
            "plan": ctx.plan_ref(self.plan),
            "route": [[node, int(direction)] for node, direction in self.route],
            "pos": self.pos,
            "next_slot": self.next_slot,
            "lag": self.lag,
            "trigger": self.trigger,
            "source_kind": self.source_kind,
            "source_dir": int(self.source_dir),
            "source_vc": self.source_vc,
            "entry_dir": (int(self.entry_dir)
                          if self.entry_dir is not None else None),
        }

    @classmethod
    def from_state(cls, state: dict, ctx) -> "ControlRun":
        # ``__init__`` would build a fresh PraPlan; the restored run must
        # share the registry's plan object with its packet and the
        # reservation tables instead.
        run = cls.__new__(cls)
        run.packet = ctx.packet(state["packet"])
        run.plan = ctx.plan(state["plan"])
        run.route = [
            (node, Direction(direction))
            for node, direction in state["route"]
        ]
        run.pos = state["pos"]
        run.next_slot = state["next_slot"]
        run.lag = state["lag"]
        run.trigger = state["trigger"]
        run.source_kind = state["source_kind"]
        run.source_dir = Direction(state["source_dir"])
        run.source_vc = state["source_vc"]
        run.entry_dir = (
            Direction(state["entry_dir"])
            if state["entry_dir"] is not None else None
        )
        return run


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
    ) -> Optional[ControlRun]:
        """Place a control packet in the local latch, if free.

        ``start_slot`` is the cycle the data packet's head flit will
        traverse the source router's output port.  Returns the run, or
        None when the injection was dropped (latch busy or lag window
        unusable).
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
                faults.record("control_blackout")
                if tracer.enabled:
                    tracer.emit(now, EV_FAULT, pid=packet.pid,
                                node=source_node, site="control_inject",
                                fault="blackout")
                return None
            if faults.drop_control_inject(source_node, packet.pid, now):
                faults.record("control_drop")
                if tracer.enabled:
                    tracer.emit(now, EV_FAULT, pid=packet.pid,
                                node=source_node, site="control_inject",
                                fault="drop")
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
        route = self.network.topology.route(source_node, packet.dst)
        run = ControlRun(
            packet,
            route,
            start_slot,
            lag,
            trigger,
            source_kind,
            source_dir,
            source_vc,
        )
        packet.pra_pending = True
        self.stats.control_packets_injected += 1
        if tracer.enabled:
            tracer.emit(now, EV_CONTROL_INJECT, pid=packet.pid,
                        node=source_node, accepted=True, trigger=trigger,
                        lag=lag, start_slot=start_slot, dst=packet.dst)
        self.network.schedule_call(process_at, self._process, run)
        return run

    # -- per-segment processing -------------------------------------------

    def _process(self, run: ControlRun) -> None:
        now = self.network.cycle
        if run.plan.cancelled:
            # The data packet missed its window and the plan was torn
            # down while this control packet was still in flight; any
            # further reservation would leak claims.  Drop.
            self._record_drop(max(run.lag, 0), DROP_RESOURCE_BUSY, run)
            return
        node, direction = run.route[run.pos]
        faults = self.network.faults
        if faults.enabled and not self._survives_faults(run, node, now,
                                                        faults):
            return
        hops = self._step_hops(run, direction)
        refused = self._reserve_step(run, node, direction, hops, now)
        if refused is not None:
            self._finish(run, DROP_RESOURCE_BUSY, refused)
            return
        if direction is Direction.LOCAL:
            run.lag -= 1
            self._finish(run, DROP_REACHED_DESTINATION)
            return
        run.pos += hops
        run.entry_dir = direction.opposite
        run.next_slot += 1
        run.lag -= 1
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(now, EV_CONTROL_SEGMENT, pid=run.packet.pid,
                        node=node, direction=direction.name, hops=hops,
                        slot=run.next_slot - 1, lag=run.lag)
        if run.lag <= 0:
            self._finish(run, DROP_LAG_ZERO)
            return
        # Transmit over the next multi-drop segment: the receivers' input
        # latches are claimed; on conflict the packet is dropped there.
        # Both latch claims of a 2-hop segment must succeed together —
        # committing one before checking the other would leak a claim
        # that later drops an unrelated control packet with a spurious
        # conflict at that (node, direction, cycle).
        next_time = now + SEGMENT_CYCLES
        keys = [(run.route[run.pos][0], direction, next_time)]
        if hops == 2:
            keys.append((run.route[run.pos - 1][0], direction, next_time))
        if not self._claim_all(keys):
            self._finish(run, DROP_CONTROL_CONFLICT)
            return
        self.network.schedule_call(next_time, self._process, run)

    def _survives_faults(self, run: ControlRun, node: int, now: int,
                         faults) -> bool:
        """Apply control-plane faults at a segment boundary.

        Returns False (after settling the run) when the control packet
        was eaten here.  ACK loss is applied *before* any reservation
        attempt, so the already committed prefix — which ends in a
        standard-VC landing with full buffer space claimed — stays
        self-consistent: the data packet simply stops there and falls
        back to hop-by-hop allocation.
        """
        tracer = self.network.tracer
        pid = run.packet.pid
        if faults.blackout_at(node, now):
            faults.record("control_blackout")
            if tracer.enabled:
                tracer.emit(now, EV_FAULT, pid=pid, node=node,
                            site="control_segment", fault="blackout")
            self._finish(run, DROP_FAULT_BLACKOUT)
            return False
        if faults.drop_control_segment(node, pid, now):
            faults.record("control_drop")
            if tracer.enabled:
                tracer.emit(now, EV_FAULT, pid=pid, node=node,
                            site="control_segment", fault="drop")
            self._finish(run, DROP_FAULT)
            return False
        if run.pos > 0 and faults.suppress_ack(node, pid, now):
            faults.record("ack_loss")
            if tracer.enabled:
                tracer.emit(now, EV_FAULT, pid=pid, node=node,
                            site="ack", fault="suppressed")
            self._finish(run, DROP_FAULT_ACK)
            return False
        return True

    def _step_hops(self, run: ControlRun, direction: Direction) -> int:
        """2 hops when the route continues straight past the next router
        (turns are not allowed within a multi-drop segment)."""
        nxt = run.pos + 1
        if nxt < len(run.route) and run.route[nxt][1] is direction:
            return 2
        return 1

    # -- reservation attempts (all-or-nothing per step) -----------------------

    def _reserve_step(
        self,
        run: ControlRun,
        node: int,
        direction: Direction,
        hops: int,
        now: int,
    ) -> Optional[str]:
        """Reserve the run's next step; the last one (``direction`` is
        ``LOCAL``) pre-allocates the destination router's ejection port.
        Returns None once committed, else the check that refused."""
        routers = self.network.routers
        driver: "PraRouter" = routers[node]
        promises = driver.promises
        size = run.packet.size
        slot = run.next_slot
        src_kind, src_dir, src_vc = self._step_source(run)

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
            via_node = run.route[run.pos + 1][0]
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
            vc_index = run.packet.vc_index
            if not landing_port.downstream_vc(vc_index).can_accept_packet(
                run.packet
            ):
                return "landing_vc"
            if landing_port.credits[vc_index] < size:
                return "landing_credits"
        # 5. ACK conversion: the previous landing (this driver) becomes a
        # latch instead of a buffered stop — the latch must be free.
        # Flit i lands in the latch at the end of slot - 1 + i.
        if run.pos > 0 and not promises.free((LATCH, src_dir), slot - 1, size):
            return "latch"
        # 6. LLC-triggered runs stream the response out of the source
        # NI: its local VC and injection credits must be claimable.
        if (run.pos == 0 and run.trigger == "llc"
                and not self._step0_source_claimable(run, node)):
            return "source_vc"

        # --- commit ---
        if run.pos > 0:
            # The ACK: the flit will pass through this router's latch
            # instead of stopping in the claimed standard VC.
            run.plan.release_landing_vc()
            run.plan.steps[-1].landing_kind = LAND_LATCH
            promises.claim(now, (LATCH, src_dir), slot - 1, size, run.plan)
        else:
            self._claim_step0_source(run, driver, now)
        step = PlanStep(
            driver_node=node,
            out_dir=direction,
            slot=slot,
            hops=hops,
            source_kind=src_kind,
            source_dir=src_dir,
            source_vc=src_vc,
            via_node=via_node,
            landing_node=node if ejecting else run.route[run.pos + hops][0],
            landing_kind=LAND_NI if ejecting else LAND_VC,
            landing_entry=direction.opposite,
        )
        self._append_step(run, step)
        promises.claim(now, (OUT, direction), slot, size, run.plan, step, True)
        promises.claim(now, (IN, src_dir), slot, size, run.plan)
        # The reserved routers must be stepping when their slots arrive
        # even if no flit is buffered there; has_work() keeps them awake
        # until the windows are over.
        self.network.wake_router(node)
        if via_node is not None:
            via.claim(now, (OUT, direction), slot, size, run.plan, step)
            via.claim(now, (IN, direction.opposite), slot, size, run.plan)
            self.network.wake_router(via_node)
        if not ejecting:
            run.plan.claim_landing_vc(landing_port, vc_index)
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_RESERVATION_COMMIT, pid=run.packet.pid, node=node,
                direction=direction.name, slot=slot, size=size, hops=hops,
                via=via_node, landing=step.landing_node,
                landing_kind=step.landing_kind,
            )
        return None

    # -- helpers ----------------------------------------------------------

    def _step_source(self, run: ControlRun) -> Tuple[str, Direction, int]:
        if run.pos == 0:
            return run.source_kind, run.source_dir, run.source_vc
        return SRC_LATCH, run.entry_dir, 0

    def _step0_source_claimable(self, run: ControlRun, node: int) -> bool:
        """The announced response will stream through the source NI's
        local VC.  The VC is claimable when it is free, or when its
        current owner is itself a pinned, planned injection whose drain
        schedule is deterministic (pin windows never overlap, and planned
        packets leave the VC at their reserved slots) — then ownership is
        chained to hand over the instant the owner's tail departs.  The
        NI is the only writer into this VC and injections charge credits
        normally, so no buffer-space claim is needed."""
        ni = self.network.interfaces[node]
        vc = ni.port.downstream_vc(run.packet.vc_index)
        if vc.can_accept_packet(run.packet):
            return True
        owner = vc.allocated_to
        if owner is None or vc.next_claim is not None:
            return False
        owner_plan = owner.pra_plan
        return (
            owner_plan is not None
            and owner_plan.injection_claim
            and not owner_plan.cancelled
        )

    def _claim_step0_source(self, run, driver: "PraRouter", now: int) -> None:
        """Take (or chain) ownership of the source NI's local VC and pin
        the injection slot."""
        if run.trigger != "llc":
            return
        ni = self.network.interfaces[driver.node]
        vc = ni.port.downstream_vc(run.packet.vc_index)
        if vc.allocated_to is None and vc.is_empty:
            vc.allocated_to = run.packet
        else:
            assert vc.next_claim is None
            vc.next_claim = run.packet
        run.plan.injection_claim = True
        run.plan.source_interface = ni
        ni.pin(run.packet, run.plan)

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

    def _append_step(self, run: ControlRun, step: PlanStep) -> None:
        """Commit a step; the packet adopts the plan at its first step
        (the NI may need the plan before the run terminates)."""
        first = not run.plan.steps
        run.plan.steps.append(step)
        if first:
            run.packet.pra_plan = run.plan
            self.stats.pra_planned_packets += 1
            faults = self.network.faults
            if faults.enabled:
                expire_at = faults.plan_expiry(
                    run.packet.pid, self.network.cycle, run.plan.start_slot
                )
                if expire_at is not None:
                    self.network.schedule_call(
                        expire_at, self._expire_plan, run.plan
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
        faults = self.network.faults
        if faults.enabled:
            faults.record("plan_expired")
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(self.network.cycle, EV_FAULT,
                        pid=plan.packet.pid,
                        node=plan.steps[0].driver_node if plan.steps
                        else None,
                        site="reservation", fault="expired",
                        steps=len(plan.steps))
        plan.cancel()

    def _finish(self, run: ControlRun, reason: str,
                refused: Optional[str] = None) -> None:
        """The control packet is dropped (every control packet ends in a
        drop); record Figure 7's lag-at-drop and settle the plan."""
        lag = max(run.lag, 0)
        self._record_drop(lag, reason, run, refused)
        if not run.plan.steps:
            run.plan.cancel()
            run.packet.pra_pending = False

    def _record_drop(self, lag: int, reason: str, run: ControlRun,
                     refused: Optional[str] = None) -> None:
        self.stats.control_lag_at_drop[lag] += 1
        self.stats.control_drop_reasons[reason] += 1
        if refused is not None:
            self.stats.control_refusals[refused, lag] += 1
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                self.network.cycle, EV_CONTROL_DROP, pid=run.packet.pid,
                node=run.route[min(run.pos, len(run.route) - 1)][0],
                reason=reason, lag=lag, steps=len(run.plan.steps),
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
