"""Network container: routers, interfaces, the clock, and the event bus.

All cross-component effects (flit arrivals, credit returns, ejections,
deferred calls) travel through time-stamped events executed at the start
of their cycle, so the fixed router processing order can never leak
same-cycle information between routers.

The cycle loop is *activity-based*: instead of stepping every router and
NI every cycle, the network keeps wake sets of components that might
have work.  A component is woken when state lands on it (a flit arrives,
a packet is enqueued, a reservation is placed) and re-arms itself while
it still holds work; everything else is skipped.  Skipping is safe
because an idle component's ``step`` is a no-op by construction — the
wake sets only elide calls that would have returned immediately — so
simulation results are bit-identical to exhaustive stepping (enforced
by ``tests/test_golden_determinism.py``).
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import NULL_FAULTS
from repro.noc.stats import NetworkStats
from repro.noc.packet import Packet
from repro.noc.topology import as_port, build_topology, parse_topology_spec
from repro.params import NUM_MESSAGE_CLASSES, NocKind, NocParams
from repro.trace.tracer import NULL_TRACER

#: Signature of the packet delivery callback: (packet, cycle).
DeliveryHandler = Callable[[Packet, int], None]

# Event kind tags (tuples are cheaper than closures on the hot path).
# Arrivals and credits normally travel in dedicated per-kind queues
# (see ``_bucket``); the tags survive for the *ordered* queue, whose
# events must keep their exact insertion order.
_ARRIVAL = 0
_EJECT = 1
_CREDIT = 2
_CALL = 3

#: Sentinel VC index of an arrival that lands in the input unit's latch
#: instead of a VC (only on ``latch_arrivals`` networks).
LATCH_INDEX = -1

#: Sentinel for :meth:`Network.attach` keywords that were not passed
#: (``None`` already means "detach", so absence needs its own marker).
_KEEP = object()


class Network:
    """Base class for all four network organizations."""

    #: Which lane of a cycle bucket credit returns ride: the bulk credit
    #: queue, or (True) the *ordered* queue.  Mesh+PRA sets it — its
    #: control network reads credit counters from deferred calls, so a
    #: credit and a same-cycle control step must keep insertion order.
    credits_ordered = False

    #: Whether arrivals can address an input unit's latch
    #: (``LATCH_INDEX``) as well as its VCs; picks the delivery loop of
    #: ``_run_events``.  Mesh+PRA sets it (paper Figure 4's extra entry).
    latch_arrivals = False

    def __init__(self, params: NocParams):
        self.topology = build_topology(params.topology, params.mesh_width,
                                       params.mesh_height)
        self.params = params
        #: VCs per port, on every router and NI: one per message class
        #: and escape layer of the topology (``Packet.vc_index`` is the
        #: class, so no packet could enter a VC beyond these).
        layers = self.topology.vc_layers
        self.num_vcs = num_vcs = NUM_MESSAGE_CLASSES * layers
        #: The three ``OutputPort.next_vc`` rows (shared, hence tuples):
        #: a hop keeps a packet in its VC, except that a link the
        #: topology marks layer-advancing lands it in its class's
        #: layer-1 VC (a single-layer topology marks none and the row
        #: degenerates to the identity), and an NI injects class ``c``
        #: on its layer-0 VC.
        self.same_vcs = tuple(range(num_vcs))
        self.escape_vcs = tuple(
            vc - vc % layers + min(1, layers - 1) for vc in range(num_vcs)
        )
        self.injection_vcs = tuple(
            cls * layers for cls in range(NUM_MESSAGE_CLASSES)
        )
        self.cycle = 0
        self.stats = NetworkStats()
        self.routers: List = []
        self.interfaces: List = []
        num_nodes = self.topology.num_nodes
        #: Wake sets: a flag per node plus the queue of awake node ids.
        #: The flag makes ``wake_*`` idempotent; the queue is sorted at
        #: the top of each cycle so awake components still process in
        #: fixed node order.
        self._router_awake: List[bool] = [False] * num_nodes
        self._router_queue: List[int] = []
        self._ni_awake: List[bool] = [False] * num_nodes
        self._ni_queue: List[int] = []
        #: Sorted-so-far flags for the wake queues: wakes usually arrive
        #: in ascending node order (events drain in insertion order and
        #: the step loops walk nodes ascending), so the per-cycle sort
        #: is skipped unless an out-of-order wake actually landed.
        self._router_sorted = True
        self._ni_sorted = True
        #: Event buckets by cycle.  Each bucket is ``(arrivals, credits,
        #: ordered)`` — per-kind queues drained in bulk in that order.
        #: Arrivals commute with every other same-cycle event (a flit in
        #: flight lands in a VC whose allocation was decided at grant
        #: time) and credit returns are pure counter increments, so only
        #: the *ordered* queue (ejections and deferred calls, which can
        #: inject packets and read shared state) preserves exact
        #: insertion order.  Mesh+PRA routes credits through the ordered
        #: queue instead (see ``credits_ordered``).
        self._events: Dict[int, tuple] = {}
        #: Drained buckets are recycled here; safe because ``_push``
        #: forbids scheduling into the bucket being drained.
        self._bucket_pool: List[tuple] = []
        self._delivery_handler: Optional[DeliveryHandler] = None
        self._head_handler: Optional[DeliveryHandler] = None
        #: Event tracer; the null object keeps the hot path to a single
        #: attribute check (see :mod:`repro.trace`).
        self.tracer = NULL_TRACER
        #: Fault injector (chaos harness); same null-object discipline
        #: as the tracer (see :mod:`repro.faults`).
        self.faults = NULL_FAULTS
        #: Attached :class:`repro.invariants.InvariantSuite`, or None.
        self.invariants = None
        #: Idle cycles a shard stripe fast-forwarded instead of stepping
        #: (:mod:`repro.shard`); always 0 on a serial network.
        self.cycles_skipped = 0

    # -- observers (tracer, fault injector, invariant suite) ---------------

    def attach(self, *, tracer=_KEEP, faults=_KEEP, invariants=_KEEP) -> None:
        """Attach or detach observers through one code path.

        Each keyword left at its default keeps the current observer;
        passing ``None`` explicitly detaches (restoring the null object
        that keeps the hot path to a single attribute check).  This is
        the single attachment point — checkpoint restore, the chaos
        harness, and the tracing CLI all go through it.
        """
        if tracer is not _KEEP:
            self.tracer = tracer if tracer is not None else NULL_TRACER
        if faults is not _KEEP:
            self.faults = faults if faults is not None else NULL_FAULTS
        if invariants is not _KEEP:
            self.invariants = invariants

    # -- client API -------------------------------------------------------

    def on_delivery(self, handler: DeliveryHandler) -> None:
        """Register the callback invoked when a packet is delivered
        (tail flit at the destination NI)."""
        self._delivery_handler = handler

    def on_head_arrival(self, handler: DeliveryHandler) -> None:
        """Register the callback invoked when a packet's *head* flit
        reaches the destination NI.  The tile layer uses this for
        critical-word-first completion: the core restarts on the first
        returning word while the rest of the block streams in."""
        self._head_handler = handler

    def send(self, packet: Packet) -> None:
        """Hand a packet to its source network interface."""
        self.interfaces[packet.src].enqueue(packet, self.cycle)

    def announce(self, packet: Packet, ready_in: int) -> None:
        """Advance notice that ``packet`` will be sent in ``ready_in``
        cycles (the LLC-hit window).  Only Mesh+PRA uses this; every
        other organization ignores it."""

    # -- wake registration (component API) --------------------------------

    def wake_ni(self, node: int) -> None:
        """Schedule the NI at ``node`` for processing this/next cycle."""
        if not self._ni_awake[node]:
            self._ni_awake[node] = True
            queue = self._ni_queue
            if queue and node < queue[-1]:
                self._ni_sorted = False
            queue.append(node)

    def wake_router(self, node: int) -> None:
        """Schedule the router at ``node`` for processing this/next cycle."""
        if not self._router_awake[node]:
            self._router_awake[node] = True
            queue = self._router_queue
            if queue and node < queue[-1]:
                self._router_sorted = False
            queue.append(node)

    def step(self) -> None:
        """Advance the network by one clock cycle.

        Only awake components are stepped; each re-arms itself for the
        next cycle while it still has buffered work (``has_work``).
        Wakes raised by the events that just ran land in this cycle's
        batch; wakes raised *during* the loops always target future
        cycles (all cross-component effects are future-scheduled).

        The cycle is three calls so that a driver which must pause
        between routers (:mod:`repro.shard` waits on its neighbours
        before a stripe's first and last row) runs the same code.
        """
        now = self.cycle
        batch = self._begin_step(now)
        if batch:
            self._step_routers(batch, now)
        self._end_step(now)

    def _begin_step(self, now: int) -> List[int]:
        """Run ``now``'s events and awake NIs; return the routers due
        this cycle, detached from the wake queue in ascending node
        order with their awake flags cleared."""
        self._run_events(now)
        batch = self._ni_queue
        if batch:
            self._ni_queue = []
            if not self._ni_sorted:
                batch.sort()
                self._ni_sorted = True
            awake = self._ni_awake
            interfaces = self.interfaces
            for node in batch:
                awake[node] = False
            for node in batch:
                ni = interfaces[node]
                ni.step(now)
                if not awake[node] and ni.has_work():
                    awake[node] = True
                    queue = self._ni_queue
                    if queue and node < queue[-1]:
                        self._ni_sorted = False
                    queue.append(node)
        batch = self._router_queue
        if batch:
            self._router_queue = []
            if not self._router_sorted:
                batch.sort()
                self._router_sorted = True
            awake = self._router_awake
            for node in batch:
                awake[node] = False
        return batch

    def _step_routers(self, batch: List[int], now: int) -> None:
        """Step the routers of ``batch`` — all of a ``_begin_step``
        result, or consecutive slices of it — re-arming each one that
        still holds work."""
        awake = self._router_awake
        routers = self.routers
        for node in batch:
            router = routers[node]
            router.step(now)
            if not awake[node] and router.has_work():
                awake[node] = True
                queue = self._router_queue
                if queue and node < queue[-1]:
                    self._router_sorted = False
                queue.append(node)

    def _end_step(self, now: int) -> None:
        """Close cycle ``now`` once every due router has stepped: the
        one place a serial clock advances (the ideal network's packet
        step closes through it too)."""
        if self.invariants is not None:
            self.invariants.on_cycle(self, now)
        self.cycle = now + 1

    def _run_events(self, now: int) -> None:
        """Drain this cycle's event bucket, one kind at a time.

        Arrivals first, then credit returns, then the ordered queue
        (ejections and deferred calls, in exact insertion order) — see
        the ``_events`` comment for why this order is observationally
        identical to interleaved dispatch.  The emptied bucket is
        recycled through ``_bucket_pool``; that is safe because
        ``_push`` rejects scheduling into the cycle being drained.
        """
        bucket = self._events.pop(now, None)
        if bucket is None:
            return
        arrivals, credits, ordered = bucket
        if arrivals:
            # A flit lands in its VC (or latch) and wakes the router:
            # the single hottest event path, hence two flat loops.
            awake = self._router_awake
            queue = self._router_queue
            if not self.latch_arrivals:
                for router, direction, vc_index, flit in arrivals:
                    vc = router.input_units[direction].vcs[vc_index]
                    if len(vc.flits) >= vc.capacity:
                        raise OverflowError(
                            f"VC{vc_index} overflow: credit discipline "
                            "violated"
                        )
                    flits = vc.flits
                    flits.append(flit)
                    if flit.is_head and len(flits) == 1:
                        router._queue_head(vc)
                    router.active_flits += 1
                    node = router.node
                    if not awake[node]:
                        awake[node] = True
                        if queue and node < queue[-1]:
                            self._router_sorted = False
                        queue.append(node)
            else:
                for router, direction, vc_index, flit in arrivals:
                    if vc_index == LATCH_INDEX:
                        router._latches[direction].append(flit)
                    else:
                        vc = router.input_units[direction].vcs[vc_index]
                        if len(vc.flits) >= vc.capacity:
                            raise OverflowError(
                                f"VC{vc_index} overflow: credit discipline "
                                "violated"
                            )
                        flits = vc.flits
                        flits.append(flit)
                        if flit.is_head and len(flits) == 1:
                            router._queue_head(vc)
                    router.active_flits += 1
                    node = router.node
                    if not awake[node]:
                        awake[node] = True
                        if queue and node < queue[-1]:
                            self._router_sorted = False
                        queue.append(node)
        for port, vc_index in credits:
            port.credits[vc_index] += 1
        for event in ordered:
            kind = event[0]
            if kind == _EJECT:
                event[1].eject_flit(event[2], now)
            elif kind == _CREDIT:
                # A credit return is a bare increment; its order
                # relative to ejections and deferred calls is what
                # matters here.
                event[1].credits[event[2]] += 1
            else:
                event[1](*event[2])
        arrivals.clear()
        credits.clear()
        ordered.clear()
        self._bucket_pool.append(bucket)

    def run(self, cycles: int) -> None:
        step = self.step
        for _ in range(cycles):
            step()

    def drain(self, max_cycles: int = 1_000_000) -> None:
        """Step until every injected packet has been delivered, so the
        network stops on the delivery cycle; raise after ``max_cycles``
        cycles otherwise."""
        deadline = self.cycle + max_cycles
        stats = self.stats
        step = self.step
        while stats.in_flight > 0:
            if self.cycle >= deadline:
                raise RuntimeError(
                    f"network failed to drain: {stats.in_flight} "
                    f"packets in flight after {max_cycles} cycles"
                    f"{self._drain_hint()}"
                )
            step()

    def _drain_hint(self) -> str:
        """Wait-graph summary appended to the drain-failure message."""
        try:
            # Lazy import: checkers imports event tags from this module.
            from repro.invariants.checkers import wait_graph

            graph = wait_graph(self, self.cycle)
        except Exception:  # pragma: no cover - diagnostics must not mask
            return ""
        blocked = graph.get("blocked", [])
        cycles = graph.get("cycles", [])
        if not blocked:
            return ""
        parts = [f"{len(blocked)} blocked packets"]
        if cycles:
            parts.append(f"{len(cycles)} wait cycles: {cycles[:4]!r}")
        parts.append(f"head of wait graph: {blocked[:6]!r}")
        return " (" + ", ".join(parts) + ")"

    # -- measurement -------------------------------------------------------

    def link_utilization(self) -> float:
        """Average flits per link per cycle over the run so far
        (router-to-router links only; 0.0 before any cycle runs)."""
        if self.cycle == 0 or not self.routers:
            return 0.0
        flits = 0
        links = 0
        for router in self.routers:
            for port in router.cardinal_ports:
                flits += port.flits_sent
                links += 1
        if links == 0:
            return 0.0
        return flits / (links * self.cycle)

    # -- event scheduling (component API) ---------------------------------

    def _bucket(self, time: int) -> tuple:
        """The ``(arrivals, credits, ordered)`` bucket for ``time``,
        created (or pulled off the free list) on first use."""
        if time <= self.cycle:
            raise ValueError("events must be scheduled in the future")
        events = self._events
        bucket = events.get(time)
        if bucket is None:
            pool = self._bucket_pool
            bucket = pool.pop() if pool else ([], [], [])
            events[time] = bucket
        return bucket

    # The three hot schedulers flatten ``_bucket`` inline: they run once
    # per flit hop, and the extra call dominated their cost.

    def schedule_arrival(self, time, router, direction, vc_index, flit) -> None:
        if time <= self.cycle:
            raise ValueError("events must be scheduled in the future")
        events = self._events
        bucket = events.get(time)
        if bucket is None:
            pool = self._bucket_pool
            bucket = pool.pop() if pool else ([], [], [])
            events[time] = bucket
        bucket[0].append((router, direction, vc_index, flit))

    def schedule_eject(self, time, ni, flit) -> None:
        if time <= self.cycle:
            raise ValueError("events must be scheduled in the future")
        events = self._events
        bucket = events.get(time)
        if bucket is None:
            pool = self._bucket_pool
            bucket = pool.pop() if pool else ([], [], [])
            events[time] = bucket
        bucket[2].append((_EJECT, ni, flit))

    def schedule_credit(self, time, port, vc_index) -> None:
        if time <= self.cycle:
            raise ValueError("events must be scheduled in the future")
        events = self._events
        bucket = events.get(time)
        if bucket is None:
            pool = self._bucket_pool
            bucket = pool.pop() if pool else ([], [], [])
            events[time] = bucket
        if self.credits_ordered:
            bucket[2].append((_CREDIT, port, vc_index))
        else:
            bucket[1].append((port, vc_index))

    def schedule_call(self, time, fn, *args) -> None:
        self._bucket(time)[2].append((_CALL, fn, args))

    # -- hooks -------------------------------------------------------------

    def _deliver(self, packet: Packet, now: int) -> None:
        packet.ejected = now
        self.stats.record_ejection(packet)
        if self._delivery_handler is not None:
            self._delivery_handler(packet, now)
        # Once delivery is settled, break the packet <-> flit cycle so
        # the packet dies by refcount.  A surviving plan (partial PRA
        # execution, in-flight control packet) may still read its flits.
        if packet.pra_plan is None and not packet.pra_pending:
            try:
                del packet.flits
            except AttributeError:
                pass  # never materialized (the ideal network)

    def _head_arrived(self, packet: Packet, now: int) -> None:
        if self._head_handler is not None:
            self._head_handler(packet, now)

    # -- checkpointing -----------------------------------------------------

    def _encode_bucket(self, bucket: tuple, ctx) -> list:
        """Flatten one bucket into the wire format, in drain order
        (arrivals, credits, then the ordered queue)."""
        arrivals, credits, ordered = bucket
        out = [
            ["a", router.node, int(direction), vc_index, ctx.flit_ref(flit)]
            for router, direction, vc_index, flit in arrivals
        ]
        out += [["c", ctx.port_ref(port), vc_index]
                for port, vc_index in credits]
        out += [self._encode_event(event, ctx) for event in ordered]
        return out

    def _encode_event(self, event, ctx) -> list:
        kind = event[0]
        if kind == _EJECT:
            _, ni, flit = event
            return ["e", ni.node, ctx.flit_ref(flit)]
        if kind == _CREDIT:
            _, port, vc_index = event
            return ["c", ctx.port_ref(port), vc_index]
        _, fn, args = event
        return ["f", ctx.callback_ref(fn), [ctx.ref(arg) for arg in args]]

    def _decode_bucket(self, encoded_bucket: list, ctx) -> tuple:
        """Re-classify a flat encoded event list into per-kind queues.

        Classification is by tag, not position: relative order within
        each kind is preserved, which is the only order the drain
        respects.
        """
        bucket: tuple = ([], [], [])
        arrivals, credits, ordered = bucket
        for encoded in encoded_bucket:
            tag = encoded[0]
            if tag == "a":
                arrivals.append((self.routers[encoded[1]],
                                 as_port(encoded[2]), encoded[3],
                                 ctx.flit(encoded[4])))
            elif tag == "c":
                if self.credits_ordered:
                    ordered.append((_CREDIT, ctx.port(encoded[1]),
                                    encoded[2]))
                else:
                    credits.append((ctx.port(encoded[1]), encoded[2]))
            elif tag == "e":
                ordered.append((_EJECT, self.interfaces[encoded[1]],
                                ctx.flit(encoded[2])))
            else:
                ordered.append((_CALL, ctx.callback(encoded[1]),
                                tuple(ctx.deref(arg) for arg in encoded[2])))
        return bucket

    def state_dict(self, ctx) -> dict:
        """Mutable network state.  Wake queues serialize sorted (the
        step loop sorts them anyway); event buckets serialize in drain
        order (arrivals, credits, then the ordered queue in its exact
        append order) — the only order the drain observes."""
        return {
            "cycle": self.cycle,
            "cycles_skipped": self.cycles_skipped,
            "stats": self.stats.state_dict(),
            "ni_queue": sorted(self._ni_queue),
            "router_queue": sorted(self._router_queue),
            "events": [
                [time, self._encode_bucket(bucket, ctx)]
                for time, bucket in sorted(self._events.items())
            ],
            "routers": [router.state_dict(ctx) for router in self.routers],
            "interfaces": [ni.state_dict(ctx) for ni in self.interfaces],
        }

    def load_state(self, state: dict, ctx) -> None:
        self.cycle = state["cycle"]
        self.cycles_skipped = state["cycles_skipped"]
        self.stats.load_state(state["stats"])
        num_nodes = self.topology.num_nodes
        self._ni_awake = [False] * num_nodes
        self._ni_queue = []
        self._ni_sorted = True
        for node in state["ni_queue"]:
            self.wake_ni(node)
        self._router_awake = [False] * num_nodes
        self._router_queue = []
        self._router_sorted = True
        for node in state["router_queue"]:
            self.wake_router(node)
        # Written directly: ``_bucket`` rejects past timestamps, but the
        # restored cycle counter is already mid-run.
        self._events = {
            time: self._decode_bucket(encoded_bucket, ctx)
            for time, encoded_bucket in state["events"]
        }
        for router, router_state in zip(self.routers, state["routers"]):
            router.load_state(router_state, ctx)
        for ni, ni_state in zip(self.interfaces, state["interfaces"]):
            ni.load_state(ni_state, ctx)


#: Organization -> (module, class).  Resolved at call time: every
#: organization's module imports this one.
_NETWORK_CLASSES = {
    NocKind.MESH: ("repro.noc.mesh", "MeshNetwork"),
    NocKind.SMART: ("repro.noc.smart", "SmartNetwork"),
    NocKind.MESH_PRA: ("repro.core.pra_network", "PraNetwork"),
    NocKind.IDEAL: ("repro.noc.ideal", "IdealNetwork"),
}

#: Organizations each topology kind runs.  SMART's bypass and PRA's
#: control segments are straight runs of an XY mesh; the ideal network
#: walks any route but was never run on a ring.
_SUPPORTED_KINDS = {
    "mesh": (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA, NocKind.IDEAL),
    "ring": (NocKind.MESH,),
    "chiplet": (NocKind.MESH, NocKind.IDEAL),
}


def supported_kinds(topology: str) -> Tuple[NocKind, ...]:
    """The organizations that build on the topology spec ``topology``
    (raises ``ValueError`` on a malformed spec)."""
    return _SUPPORTED_KINDS[parse_topology_spec(topology).kind]


def build_network(params: NocParams) -> Network:
    """Instantiate the organization selected by ``params.kind`` on the
    topology selected by ``params.topology``."""
    topology_kind = params.topology.split(":", 1)[0]
    supported = supported_kinds(params.topology)
    if params.kind not in supported:
        raise ValueError(
            f"{topology_kind} topology supports kinds "
            f"{', '.join(kind.value for kind in supported)}, "
            f"not {params.kind.value}"
        )
    module, name = _NETWORK_CLASSES[params.kind]
    return getattr(import_module(module), name)(params)
