"""The invariant suite: conservation, credits, leaks, and the watchdog.

Four families of checks, all pure observation:

* **Flit conservation** — every packet counted in flight by the stats
  layer is findable in exactly one progression of places (NI queues, VC
  buffers, latches, in-flight events), and no flit object appears
  twice.
* **Credit accounting** — for every (output port, VC): credits +
  reserved claims + downstream occupancy + in-flight arrivals + pending
  credit returns == buffer depth, and nothing is negative.
* **Reservation/claim leaks** — no live output-port window survives
  its last timeslot unexecuted, and no buffer claim survives its plan's
  cancellation.
* **Deadlock/livelock watchdog** — if packets are in flight but no flit
  has moved for a whole window, snapshot the blocked-packet wait graph
  and raise a structured report instead of letting the run spin.

Checks read ``Promises.windows()`` rather than ``due`` (which removes
a window with its last cycle): an audit must never mutate the state it
audits.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.reservation import OUT
from repro.noc.network import _CREDIT, _EJECT
from repro.noc.topology import port_name

#: Cap on per-violation detail lists (wait graphs on big meshes).
_DETAIL_CAP = 64


class InvariantViolation(RuntimeError):
    """A broken simulator invariant, with a cycle-accurate report."""

    def __init__(self, check: str, cycle: int, message: str,
                 details: Optional[Dict[str, Any]] = None):
        self.check = check
        self.cycle = cycle
        self.message = message
        self.details = details or {}
        super().__init__(f"[{check}] cycle {cycle}: {message}")

    def render(self) -> str:
        lines = [f"[{self.check}] cycle {self.cycle}: {self.message}"]
        for key, value in sorted(self.details.items()):
            if isinstance(value, list):
                lines.append(f"  {key}:")
                for item in value[:_DETAIL_CAP]:
                    lines.append(f"    - {item}")
                if len(value) > _DETAIL_CAP:
                    lines.append(f"    ... ({len(value) - _DETAIL_CAP} more)")
            else:
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def wait_graph(net, now: int) -> Dict[str, Any]:
    """Snapshot who is blocked on whom (for the watchdog's report).

    Nodes are packet ids; an edge ``pid -> blocker`` means ``pid``'s
    head flit cannot advance because ``blocker`` holds the switch or
    the downstream VC it needs.  Cycles in this graph are deadlocks;
    an edge-free stall is a livelock or a starved resource.
    """
    blocked: List[Dict[str, Any]] = []
    edges: List[Tuple[int, int, str]] = []
    for router in net.routers:
        for unit in router.input_units.values():
            for vc in unit.vcs:
                front = vc.front()
                if front is None:
                    continue
                pkt = front.packet
                where = (f"router {router.node} in "
                         f"{port_name(unit.direction)}/vc{vc.index}")
                if not front.is_head:
                    blocked.append({"pid": pkt.pid, "node": router.node,
                                    "where": where, "reason": "mid_stream"})
                    continue
                direction = router.route_of(pkt)
                port = router.output_ports.get(direction)
                if port is None:
                    reason = "no_route"
                elif port.held_by is not None and port.held_by is not pkt:
                    reason = "switch_held"
                    edges.append((pkt.pid, port.held_by.pid, reason))
                else:
                    # The row VC allocation itself reads: across a
                    # layer-advancing link this is not the class VC.
                    dst_vc = port.next_vc[vc.index]
                    dvc = port.downstream_vc(dst_vc)
                    owner = dvc.allocated_to if dvc is not None else None
                    if port.can_allocate_vc(pkt, dst_vc):
                        reason = "arbitration"
                    elif owner is not None and owner is not pkt:
                        reason = "vc_busy"
                        edges.append((pkt.pid, owner.pid, reason))
                    else:
                        reason = "no_credit"
                blocked.append({"pid": pkt.pid, "node": router.node,
                                "where": where, "reason": reason,
                                "wants": port_name(direction)})
        for direction, latch in getattr(router, "_latches", {}).items():
            for flit in latch:
                blocked.append({
                    "pid": flit.packet.pid, "node": router.node,
                    "where": f"router {router.node} latch {port_name(direction)}",
                    "reason": "latched",
                })
    for ni in net.interfaces:
        port = getattr(ni, "port", None)
        for queue in getattr(ni, "queues", ()):
            if not queue:
                continue
            pkt = queue[0]
            entry = {"pid": pkt.pid, "node": ni.node,
                     "where": f"NI {ni.node} queue", "reason": "ni_queue"}
            if port is not None and port.held_by is not None \
                    and port.held_by is not pkt:
                entry["reason"] = "ni_port_held"
                edges.append((pkt.pid, port.held_by.pid, "ni_port_held"))
            blocked.append(entry)
    # Ideal network: packet-level waiting queues instead of routers.
    for node, queue in enumerate(getattr(net, "_waiting", ())):
        for pkt in queue:
            blocked.append({"pid": pkt.pid, "node": node,
                            "where": f"node {node} (ideal)",
                            "reason": "link_busy"})
    return {
        "cycle": now,
        "blocked": blocked,
        "edges": [{"pid": a, "waits_on": b, "reason": r}
                  for a, b, r in edges],
        "cycles": _dependency_cycles(edges),
    }


def _dependency_cycles(
    edges: List[Tuple[int, int, str]]
) -> List[List[int]]:
    """Simple cycles in the pid -> blocker graph (first edge per pid)."""
    succ: Dict[int, int] = {}
    for a, b, _ in edges:
        succ.setdefault(a, b)
    cycles: List[List[int]] = []
    seen: set = set()
    for start in succ:
        if start in seen:
            continue
        path: List[int] = []
        on_path: Dict[int, int] = {}
        pid = start
        while pid in succ and pid not in seen:
            if pid in on_path:
                cycles.append(path[on_path[pid]:])
                break
            on_path[pid] = len(path)
            path.append(pid)
            pid = succ[pid]
        seen.update(path)
    return cycles


class InvariantSuite:
    """Attachable checker set; observes a network as it runs.

    ``raise_on_violation=True`` (the default) raises the first
    :class:`InvariantViolation` out of ``Network.step``; with ``False``
    violations accumulate in :attr:`violations` (the chaos CLI renders
    them at the end of a run).
    """

    def __init__(
        self,
        audit_period: int = 16,
        watchdog_window: int = 1024,
        watchdog_stride: int = 8,
        raise_on_violation: bool = True,
    ):
        if audit_period < 1 or watchdog_stride < 1:
            raise ValueError("audit periods must be positive")
        if watchdog_window < watchdog_stride:
            raise ValueError("watchdog window shorter than its stride")
        self.audit_period = audit_period
        self.watchdog_window = watchdog_window
        self.watchdog_stride = watchdog_stride
        self.raise_on_violation = raise_on_violation
        self.violations: List[InvariantViolation] = []
        self.audits_run = 0
        self._last_signature: Optional[int] = None
        self._last_progress_cycle = 0
        self._watchdog_fired = False

    def attach(self, network) -> None:
        network.attach(invariants=self)

    @property
    def watchdog_fired(self) -> bool:
        return self._watchdog_fired

    # -- per-cycle hook ---------------------------------------------------

    def on_cycle(self, net, now: int) -> None:
        if now % self.watchdog_stride == 0:
            self._check_progress(net, now)
        if now % self.audit_period == 0:
            self.audit(net, now)

    # -- the watchdog -----------------------------------------------------

    def _check_progress(self, net, now: int) -> None:
        live = net.stats.in_flight
        if live == 0:
            self._last_signature = None
            self._last_progress_cycle = now
            return
        sig = self._progress_signature(net)
        if sig != self._last_signature:
            self._last_signature = sig
            self._last_progress_cycle = now
            return
        if now - self._last_progress_cycle >= self.watchdog_window:
            self._watchdog_fired = True
            self._last_progress_cycle = now  # one report per stuck window
            graph = wait_graph(net, now)
            self._fail(
                "watchdog", now,
                f"no flit progress for {self.watchdog_window}+ cycles "
                f"with {live} packets in flight",
                {
                    "in_flight": live,
                    "stalled_since": now - self.watchdog_window,
                    "blocked": graph["blocked"],
                    "edges": graph["edges"],
                    "dependency_cycles": graph["cycles"],
                },
            )

    @staticmethod
    def _progress_signature(net) -> int:
        """Monotone counter that advances iff some flit moved."""
        total = net.stats.packets_injected + net.stats.packets_ejected
        total += getattr(net, "_link_flits", 0)
        for router in net.routers:
            for port in router.output_ports.values():
                total += port.flits_sent
        for ni in net.interfaces:
            port = getattr(ni, "port", None)
            if port is not None:
                total += port.flits_sent
        return total

    # -- the audits -------------------------------------------------------

    def audit(self, net, now: int) -> None:
        """Run every structural audit against the current state."""
        self.audits_run += 1
        if not net.routers:
            return  # the ideal network has no flit-level state to audit
        pending = self._pending_events(net)
        self._audit_structure(net, now)
        self._audit_conservation(net, now, pending)
        self._audit_credits(net, now, pending)
        self._audit_reservations(net, now)

    @staticmethod
    def _pending_events(net) -> Dict[str, Any]:
        """Classify queued future events once per audit.

        Buckets are per-kind ``(arrivals, credits, ordered)`` queues;
        credits may additionally ride in the ordered queue (Mesh+PRA),
        so both places are counted.
        """
        arrivals: List[Tuple[Any, Any, int, Any]] = []
        ejects: List[Any] = []
        credits: Dict[Tuple[int, int], int] = {}
        for bucket_arrivals, bucket_credits, ordered in net._events.values():
            arrivals.extend(bucket_arrivals)
            for port, vc_index in bucket_credits:
                key = (id(port), vc_index)
                credits[key] = credits.get(key, 0) + 1
            for event in ordered:
                kind = event[0]
                if kind == _EJECT:
                    ejects.append(event[2])
                elif kind == _CREDIT:
                    key = (id(event[1]), event[2])
                    credits[key] = credits.get(key, 0) + 1
        return {"arrivals": arrivals, "ejects": ejects, "credits": credits}

    def _audit_structure(self, net, now: int) -> None:
        """Per-router flit counters and VC occupancy sanity."""
        for router in net.routers:
            count = 0
            for unit in router.input_units.values():
                for vc in unit.vcs:
                    occ = len(vc.flits)
                    if occ > vc.capacity:
                        self._fail(
                            "vc_state", now,
                            f"VC over capacity at router {router.node} "
                            f"{port_name(unit.direction)}/vc{vc.index}: "
                            f"{occ}/{vc.capacity}",
                        )
                    pids = {f.packet.pid for f in vc.flits}
                    if len(pids) > 1:
                        self._fail(
                            "vc_state", now,
                            f"interleaved packets in one VC at router "
                            f"{router.node} {port_name(unit.direction)}"
                            f"/vc{vc.index}: pids {sorted(pids)}",
                        )
                    count += occ
            for latch in getattr(router, "_latches", {}).values():
                count += len(latch)
            if count != router.active_flits:
                self._fail(
                    "flit_counter", now,
                    f"router {router.node} active_flits={router.active_flits}"
                    f" but {count} flits buffered",
                )

    def _audit_conservation(self, net, now: int, pending) -> None:
        """Every in-flight packet is findable; no flit exists twice."""
        found: Dict[int, str] = {}
        flit_ids: Dict[int, str] = {}

        def see_flit(flit, where: str) -> None:
            key = id(flit)
            if key in flit_ids:
                self._fail(
                    "flit_conservation", now,
                    f"flit {flit.packet.pid}.{flit.index} duplicated: "
                    f"in {flit_ids[key]} and {where}",
                )
            flit_ids[key] = where
            found.setdefault(flit.packet.pid, where)

        for router in net.routers:
            for unit in router.input_units.values():
                for vc in unit.vcs:
                    for flit in vc.flits:
                        see_flit(flit, f"router {router.node} buffer")
            for latch in getattr(router, "_latches", {}).values():
                for flit in latch:
                    see_flit(flit, f"router {router.node} latch")
        for ni in net.interfaces:
            for queue in ni.queues:
                for pkt in queue:
                    found.setdefault(pkt.pid, f"NI {ni.node} queue")
        for router, _, _, flit in pending["arrivals"]:
            see_flit(flit, f"in flight to router {router.node}")
        for flit in pending["ejects"]:
            see_flit(flit, "in flight to NI")
        expected = net.stats.in_flight
        if len(found) != expected:
            self._fail(
                "flit_conservation", now,
                f"{expected} packets in flight per stats but "
                f"{len(found)} found in the network",
                {"found": [f"pid {pid}: {where}"
                           for pid, where in sorted(found.items())]},
            )

    def _audit_credits(self, net, now: int, pending) -> None:
        """credits + claims + occupancy + in-flight + returns == depth."""
        in_flight: Dict[Tuple[int, int], int] = {}
        for router, direction, vc_index, _flit in pending["arrivals"]:
            if vc_index < 0:
                continue  # latch landings are not credit-charged
            feeder = router.input_units[direction].feeder_port
            if feeder is not None:
                key = (id(feeder), vc_index)
                in_flight[key] = in_flight.get(key, 0) + 1
        credits_pending = pending["credits"]

        def check_port(port, label: str) -> None:
            if port.is_ejection or port.downstream_unit is None:
                return
            for vc_index, vc in enumerate(port.downstream_unit.vcs):
                key = (id(port), vc_index)
                credits = port.credits[vc_index]
                reserved = port.reserved[vc_index]
                if credits < 0 or reserved < 0:
                    self._fail(
                        "credit_accounting", now,
                        f"negative credit state at {label} vc{vc_index}: "
                        f"credits={credits} reserved={reserved}",
                    )
                total = (credits + reserved + len(vc.flits)
                         + in_flight.get(key, 0)
                         + credits_pending.get(key, 0))
                if total != vc.capacity:
                    self._fail(
                        "credit_accounting", now,
                        f"credit imbalance at {label} vc{vc_index}: "
                        f"credits={credits} reserved={reserved} "
                        f"buffered={len(vc.flits)} "
                        f"in_flight={in_flight.get(key, 0)} "
                        f"returning={credits_pending.get(key, 0)} "
                        f"!= depth {vc.capacity}",
                    )

        for router in net.routers:
            for port in router.output_ports.values():
                check_port(
                    port,
                    f"router {router.node} port {port_name(port.direction)}",
                )
        for ni in net.interfaces:
            port = getattr(ni, "port", None)
            if port is not None:
                check_port(port, f"NI {ni.node} port")

    def _audit_reservations(self, net, now: int) -> None:
        """No live timeslot in the past; no claim outliving its plan."""
        for router in net.routers:
            promises = getattr(router, "promises", None)
            windows = promises.windows() if promises is not None else ()
            for (kind, direction), window in windows:
                if (kind == OUT and window.end <= now
                        and not window.plan.cancelled):
                    self._fail(
                        "reservation_leak", now,
                        f"live reservation for packet "
                        f"{window.plan.packet.pid} at router "
                        f"{router.node} port {port_name(direction)} "
                        f"was never executed (window [{window.first}, "
                        f"{window.end}) is over at {now})",
                    )
            for port in router.output_ports.values():
                if port.is_ejection or port.downstream_unit is None:
                    continue
                for vc_index, reserved in enumerate(port.reserved):
                    if reserved <= 0:
                        continue
                    vc = port.downstream_unit.vcs[vc_index]
                    owner = vc.allocated_to
                    plan = owner.pra_plan if owner is not None else None
                    if (plan is None or plan.cancelled
                            or plan.vc_claim is None
                            or plan.vc_claim[0] is not port):
                        self._fail(
                            "buffer_claim_orphan", now,
                            f"{reserved} buffer credits reserved at router "
                            f"{router.node} port {port_name(port.direction)} "
                            f"vc{vc_index} with no live claiming plan",
                        )

    # -- violation plumbing ----------------------------------------------

    def _fail(self, check: str, cycle: int, message: str,
              details: Optional[Dict[str, Any]] = None) -> None:
        violation = InvariantViolation(check, cycle, message, details)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation
