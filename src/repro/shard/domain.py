"""One shard of a spatially partitioned mesh simulation.

A :class:`ShardDomain` owns a contiguous stripe of mesh rows.  It
builds the *full* network (so node numbering, routing tables, and the
injection RNG stream are bit-identical to a serial run) but steps only
the routers and NIs it owns; the rows adjacent to its stripe act as
passive replicas whose buffers mirror the owning shard's real state.

Cross-boundary effects travel as small picklable records:

* ``("a", capture, node, dir, vc, pid, flit_index, state)`` — a flit
  sent into a non-owned router.  The head flit carries the packet's
  serialized state; the owner materializes the packet once and pulls
  later flits from it by index.  Fires at ``capture + 2`` (the link
  hop latency).
* ``("p", capture, node, dir, vc)`` — the owner of an input buffer
  popped a flit whose upstream (feeder) port lives in another shard.
  The feeder's shard replays the pop on its replica buffer and
  schedules the credit return its serial run would have seen.
* ``("g", capture, node, dir, vc, pid)`` — a router allocated a VC in
  a non-owned downstream router; the owner mirrors ``allocated_to``.

Synchronization is conservative in the Chandy–Misra–Bryant style, at
sub-cycle granularity.  The serial step order (events, all NIs, then
all routers in ascending node id) decides what a stripe needs, and when:

* events, injection, NIs and **interior rows** of cycle ``t`` need
  nothing new — every record is captured inside a cut-row router's
  ``step``, and only cut-row routers read what a record changes;
* the **first owned row** needs the previous stripe through ``t``: its
  routers step *before* this row in the same cycle, so its staged
  records of capture ``<= t`` drain right before the row steps;
* the **last owned row** needs the next stripe through ``t - 1``: it
  steps *after*, so its records of capture ``<= t - 1`` drain right
  before the row steps (a one-row stripe needs both before its row).

Symmetrically a stripe's prev-bound records of cycle ``t`` are final
once its first row has stepped, its next-bound ones at the end of the
cycle, and each side is flushed with ``through = t`` right then — so
stripe ``i`` runs the head of cycle ``t + 1`` while stripe ``i + 1`` is
still inside cycle ``t``: a pipeline, not turns.

Knowledge of a neighbor comes either from its reported ``through`` or
from its ``promise`` (a lower bound on any future record's capture
cycle — the null message of CMB), corrected on the receiving side by
the earliest arrival the sender has not acknowledged yet.  No lookahead
window wider than that exists on a flat mesh: a grant in
``MeshRouter.step`` reads the downstream VC in the very cycle it
allocates it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.noc.packet import Packet
from repro.noc.topology import Direction
from repro.shard.spec import ShardError, SyntheticSpec

INF = math.inf

#: ``emit(side, message)``: where :meth:`ShardDomain.advance` hands a
#: flush for the ``"prev"``/``"next"`` neighbor the moment it is final.
Emit = Callable[[str, dict], None]


def flush_target(index: int, side: str) -> Tuple[int, str]:
    """Where a flush that stripe ``index`` emitted toward ``side`` goes:
    the receiving stripe and the side it arrives from there."""
    return (index - 1, "next") if side == "prev" else (index + 1, "prev")


class _WireCtx:
    """Save context for packets serialized onto the boundary wire.

    Mesh synthetic traffic carries no payloads and no PRA plans, which
    is what keeps a boundary record self-contained; anything else is a
    hard error rather than a silent drop.
    """

    @staticmethod
    def ref(value):
        if value is not None:
            raise ShardError("cannot ship packet payloads across shards")
        return None

    @staticmethod
    def plan_ref(plan):
        if plan is not None:
            raise ShardError("cannot ship PRA plans across shards")
        return None


_WIRE_CTX = _WireCtx()


class _Link:
    """Per-neighbor synchronization state (one per adjacent cut)."""

    __slots__ = ("cov_through", "promise", "staged", "out_records",
                 "out_min_fire", "out_seq", "in_seq", "in_ack",
                 "sent_log", "last_through", "last_promise", "last_seen")

    def __init__(self):
        self.cov_through = -1     # peer's records captured <= this are all here
        self.promise = 0          # peer's latest capture lower bound
        self.staged = deque()     # received records, capture-ordered
        self.out_records: list = []   # captured since the last flush
        self.out_min_fire = INF   # earliest arrival fire among out_records
        self.out_seq = 0
        self.in_seq = 0           # last seq received
        #: Seq of the last *record-bearing* flush received.  Only those
        #: need acknowledging (acks prune the peer's sent_log); acking
        #: heartbeats too would ping-pong flushes forever.
        self.in_ack = 0
        self.sent_log: list = []  # [(seq, min_arrival_fire)] unacked
        self.last_through = -1    # dedup state for heartbeat flushes
        self.last_promise: Optional[float] = None
        self.last_seen = 0


class ShardDomain:
    """A row stripe of the mesh plus its boundary bookkeeping."""

    def __init__(self, spec: SyntheticSpec, index: int, count: int):
        self.spec = spec
        self.index = index
        self.count = count
        net, traffic = spec.build()
        self.net = net
        self.traffic = traffic
        domains = net.topology.row_domains(count)
        self.first, self.last = domains[index]
        #: Packets that crossed in, keyed by pid (body flits of a packet
        #: arrive as bare (pid, index) references).
        self.registry: dict = {}
        self.prev = _Link() if index > 0 else None
        self.next = _Link() if index < count - 1 else None
        width = net.topology.width
        #: Node ids splitting a sorted router batch into first row /
        #: interior / last row (a one-row stripe is all first row).
        self._interior = self.first + width
        self._last_row = max(self.last - width + 1, self._interior)
        self._one_row = self.last - self.first < width
        #: The cycle in progress: ``[first row, interior, last row]``
        #: router batches (the first becomes None once it and the
        #: interior have stepped), or None at a cycle boundary.
        self._rows: Optional[list] = None
        #: Cycle of the last packet delivery here; the latest across
        #: all stripes is where the serial run's drain stops.
        self.last_delivery = -1
        traffic.inject_filter = self.owns
        self._install_hooks()
        # The boundary is a property of the cut rows, not of the
        # network: only a row facing another shard captures records.
        cut_rows: List[int] = []
        if self.prev is not None:
            cut_rows += range(self.first, self._interior)
        if self.next is not None:
            cut_rows += range(self.last - width + 1, self.last + 1)
        for node in cut_rows:
            net.routers[node].boundary = self
        # Park every non-owned node as permanently awake: waking it is
        # a no-op, so it is never queued and never stepped.
        for node in range(net.topology.num_nodes):
            if not self.owns(node):
                net._router_awake[node] = net._ni_awake[node] = True

    # -- ownership ---------------------------------------------------------

    def owns(self, node: int) -> bool:
        return self.first <= node <= self.last

    @property
    def mid_cycle(self) -> bool:
        """Whether :meth:`advance` returned inside a cycle, at one of
        its two wait points, rather than at a cycle boundary."""
        return self._rows is not None

    # -- boundary capture --------------------------------------------------

    def _install_hooks(self) -> None:
        net = self.net
        first, last = self.first, self.last
        orig_arrival = net.schedule_arrival

        def schedule_arrival(time, router, direction, vc_index, flit):
            node = router.node
            if not first <= node <= last:
                packet = flit.packet
                state = (packet.state_dict(_WIRE_CTX)
                         if flit.is_head else None)
                self._capture(
                    node,
                    ("a", net.cycle, node, int(direction), vc_index,
                     packet.pid, flit.index, state),
                    arrival_fire=time,
                )
            # Keep the local copy either way: the sender's replica of
            # the downstream buffer must fill so credit accounting and
            # can_accept reads stay bit-identical to the serial run.
            orig_arrival(time, router, direction, vc_index, flit)

        net.schedule_arrival = schedule_arrival

        orig_credit = net.schedule_credit

        def schedule_credit(time, port, vc_index):
            router = port.router
            if router is not None and not first <= router.node <= last:
                # This shard popped a replica-fed buffer; the feeder
                # port's owner replays the pop and schedules the real
                # credit.  Suppress the local event: the feeder port
                # here is itself a replica.
                self._capture(
                    router.node,
                    ("p", net.cycle, router.node, int(port.direction),
                     vc_index),
                )
                return
            orig_credit(time, port, vc_index)

        net.schedule_credit = schedule_credit

    def note_grant(self, port, packet, now: int) -> None:
        """Cut-row hook (see ``BaseRouter.boundary``): a local router
        allocated a VC whose router may live in another shard."""
        node = port.downstream_router.node
        if self.owns(node):
            return
        self._capture(node, ("g", now, node, int(port.downstream_dir),
                             packet.vc_index, packet.pid))

    def _capture(self, node: int, record: tuple,
                 arrival_fire: Optional[int] = None) -> None:
        link = self.prev if node < self.first else self.next
        if link is None:
            raise ShardError(
                f"record for node {node} crosses a non-adjacent cut"
            )
        link.out_records.append(record)
        if arrival_fire is not None and arrival_fire < link.out_min_fire:
            link.out_min_fire = arrival_fire

    # -- record application ------------------------------------------------

    def _apply(self, record: tuple) -> None:
        net = self.net
        kind = record[0]
        if kind == "a":
            _, capture, node, d, vc_index, pid, flit_index, state = record
            if state is not None:
                self.registry[pid] = Packet.from_state(state)
            packet = self.registry[pid]
            net.schedule_arrival(capture + 2, net.routers[node],
                                 Direction(d), vc_index,
                                 packet.flits[flit_index])
        elif kind == "p":
            _, capture, node, d, vc_index = record
            port = net.routers[node].output_ports[Direction(d)]
            net.schedule_credit(capture + 2, port, vc_index)
            # Replay the pop on the replica of the downstream buffer so
            # this shard's can_accept/credit reads keep matching serial
            # (and the replica's wait lists stay bounded).
            port.downstream_router._dequeue(port.downstream_unit.vcs[vc_index])
        else:  # "g"
            _, capture, node, d, vc_index, pid = record
            unit = net.routers[node].input_units[Direction(d)]
            unit.vcs[vc_index].allocated_to = self.registry[pid]

    def _drain_link(self, link: Optional[_Link], through: int) -> None:
        if link is None or not link.staged:
            return
        staged = link.staged
        grants: List[tuple] = []
        while staged and staged[0][1] <= through:
            record = staged.popleft()
            # Grants last: a grant references the packet its same-cycle
            # head arrival materializes into the registry.
            if record[0] == "g":
                grants.append(record)
            else:
                self._apply(record)
        for record in grants:
            self._apply(record)

    # -- conservative coverage ---------------------------------------------

    def _coverage(self, link: Optional[_Link]) -> float:
        """Cycles of the neighbor this shard has complete knowledge of."""
        if link is None:
            return INF
        pending = link.out_min_fire
        for _, fire in link.sent_log:
            if fire < pending:
                pending = fire
        return max(link.cov_through, min(link.promise, pending) - 1)

    def _horizon(self) -> Optional[int]:
        """Earliest cycle at which this stripe can act: now while a
        component is awake, else the earliest scheduled event, or None
        when nothing is scheduled.  Every cycle strictly before it is a
        no-op, which is what lets a waiting stripe fast-forward."""
        net = self.net
        if net._ni_queue or net._router_queue:
            return net.cycle
        return min(net._events) if net._events else None

    def _promise(self) -> float:
        """Lower bound on the capture cycle of any future record."""
        net = self.net
        horizon = self._horizon()
        promise = INF if horizon is None else float(horizon)
        if net.cycle < self.spec.cycles:
            # Still injecting: a packet injected at `cycle` reaches its
            # first router (and can cross) at `cycle + 2` at the soonest.
            promise = min(promise, net.cycle + 2)
        for link in (self.prev, self.next):
            if link is None:
                continue
            # Staged arrivals fire at capture + 2 once applied but are
            # invisible to the local event horizon until then.
            for record in link.staged:
                if record[0] == "a":
                    promise = min(promise, record[1] + 2)
                    break  # capture-ordered: the first "a" is minimal
            # A record the neighbor has not sent yet has capture beyond
            # our coverage; its effects here fire two cycles later.
            promise = min(promise, self._coverage(link) + 3)
        return promise

    def _staged_min(self, link: Optional[_Link]) -> Optional[int]:
        if link is None or not link.staged:
            return None
        return link.staged[0][1]

    # -- the advance loop ---------------------------------------------------

    def advance(self, emit: Emit) -> bool:
        """Run as far as knowledge of the neighbors allows.

        Resumable: it returns at a cycle boundary or at one of a
        cycle's two wait points (before the first row, before the last)
        and picks up there on the next call.  Every flush goes to
        ``emit`` the moment it is final.  Returns True if anything ran
        or was emitted.
        """
        net = self.net
        stats = net.stats
        end_inject = self.spec.cycles
        stop = end_inject + self.spec.drain
        moved = False
        while True:
            t = net.cycle
            rows = self._rows
            if rows is None:
                if t >= stop:
                    break
                # Events, injection and NIs need nothing new: what the
                # neighbors captured through t - 1 (prev) and t - 2
                # (next) drained during the previous cycle.
                ejected = stats.packets_ejected
                net._run_events(t)
                if stats.packets_ejected != ejected:
                    self.last_delivery = t
                if t < end_inject:
                    # Injection draws the RNG every cycle; never skip.
                    self.traffic.inject()
                else:
                    horizon = self._horizon()
                    if horizon is None or horizon > t:
                        if not self._skip_idle(t, stop):
                            break
                        moved = True
                        continue
                batch = net._begin_step(t)
                lo = bisect_left(batch, self._interior)
                hi = bisect_left(batch, self._last_row, lo)
                rows = self._rows = [batch[:lo], batch[lo:hi], batch[hi:]]
                moved = True
            if rows[0] is not None:
                if self._coverage(self.prev) < t or (
                        self._one_row and self._coverage(self.next) < t - 1):
                    break
                self._drain_link(self.prev, t)
                if self._one_row:
                    self._drain_link(self.next, t - 1)
                net._step_routers(rows[0], t)
                rows[0] = None
                self._flush(emit, "prev")
                net._step_routers(rows[1], t)
                moved = True
            if self._coverage(self.next) < t - 1:
                break
            self._drain_link(self.next, t - 1)
            net._step_routers(rows[2], t)
            net._end_step(t)
            self._rows = None
            self._flush(emit, "next")
            moved = True
        # Flush before you block: an idle span's ``through`` and the
        # boundary heartbeats (promise, ack) have no other way out.
        flushed_prev = self._flush(emit, "prev")
        flushed_next = self._flush(emit, "next")
        return moved or flushed_prev or flushed_next

    def _skip_idle(self, t: int, stop: int) -> bool:
        """Fast-forward from the idle cycle ``t`` (its events have run,
        nothing is awake), bounded by coverage and by the cycles at
        which staged records fall due.  False if nothing is known yet
        about ``t`` itself."""
        net = self.net
        limit = min(self._coverage(self.prev),
                    self._coverage(self.next) + 1)
        if t > limit:
            return False
        # An idle cycle still owes its drains: the records may target
        # replica flits and arm events for the cycles right after.
        self._drain_link(self.prev, t)
        self._drain_link(self.next, t - 1)
        # ``limit`` is finite: a promise never exceeds its sender's own
        # coverage of this shard plus three (see ``_promise``).
        target = min(stop, int(limit) + 1)
        horizon = self._horizon()
        if horizon is not None and horizon < target:
            target = horizon
        due = self._staged_min(self.prev)
        if due is not None and due < target:
            target = due
        due = self._staged_min(self.next)
        if due is not None and due + 1 < target:
            target = due + 1
        net.cycles_skipped += target - t
        net.cycle = target
        return True

    def final_state(self) -> dict:
        """What this finished shard contributes to the run's result."""
        net = self.net
        return {"stats": net.stats.state_dict(),
                "skipped": net.cycles_skipped,
                "offered": self.traffic.offered,
                "clock": net.cycle,
                "last_delivery": self.last_delivery}

    # -- flush protocol ------------------------------------------------------

    def _flush(self, emit: Emit, side: str) -> bool:
        """Emit what ``side`` does not have yet; True if anything went."""
        through = self.net.cycle - 1
        if side == "prev" and self._rows is not None \
                and self._rows[0] is None:
            through += 1    # this cycle's first row has stepped
        message = self.make_flush(side, through)
        if message is None:
            return False
        emit(side, message)
        return True

    def make_flush(self, side: str, through: int) -> Optional[dict]:
        """Compose the outgoing message for ``side`` ("prev"/"next"),
        every record of capture ``<= through`` being final.

        Returns None when the peer already has everything: no new
        records, ``through`` unchanged and — at a cycle boundary, the
        only place they can tell the peer more than ``through`` does —
        promise and ack unchanged since the last flush.
        """
        link = self.prev if side == "prev" else self.next
        if link is None:
            return None
        nothing_new = not link.out_records and through == link.last_through
        mid_cycle = self.mid_cycle
        if nothing_new and mid_cycle:
            return None
        promise = self._promise()
        if mid_cycle:
            # The routers yet to step this cycle are detached from the
            # wake queue, so ``_horizon`` is blind to them.
            promise = min(promise, self.net.cycle)
        elif nothing_new and promise == link.last_promise \
                and link.in_ack == link.last_seen:
            return None
        link.out_seq += 1
        message = {
            "seq": link.out_seq,
            "through": through,
            "promise": None if promise is INF else promise,
            "seen": link.in_ack,
            "records": link.out_records,
        }
        if link.out_records:
            link.sent_log.append((link.out_seq, link.out_min_fire))
        link.out_records = []
        link.out_min_fire = INF
        link.last_through = through
        link.last_promise = promise
        link.last_seen = link.in_ack
        return message

    def receive_flush(self, side: str, message: dict) -> None:
        link = self.prev if side == "prev" else self.next
        if link is None:
            raise ShardError(f"shard {self.index} has no {side} neighbor")
        if message["seq"] != link.in_seq + 1:
            raise ShardError(
                f"out-of-order flush on shard {self.index} {side}: "
                f"got seq {message['seq']} after {link.in_seq}"
            )
        link.in_seq = message["seq"]
        seen = message["seen"]
        if seen and link.sent_log:
            link.sent_log = [(seq, fire) for seq, fire in link.sent_log
                             if seq > seen]
        if message["records"]:
            link.in_ack = message["seq"]
        link.staged.extend(message["records"])
        if message["through"] > link.cov_through:
            link.cov_through = message["through"]
        promise = message["promise"]
        link.promise = INF if promise is None else promise
