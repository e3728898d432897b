"""One router's future-timeslot promises (the paper's bit vectors).

Figure 4 of the paper attaches to every output port a set of bit vectors
holding, for several future timeslots, whether the slot is proactively
allocated (*Valid*), which input port and VC the packet comes from
(*Input Select*, *Local VC Select*), and which downstream VC it goes to
(*Downstream VC Select*), shifting left one slot per cycle.

A control packet fills them all-or-nothing per segment, and what a
segment reserves is always one contiguous run of cycles on one resource.
That :class:`Window` is the unit stored here, on three kinds of resource
per router direction, plus one row for the attached NI:

* ``(OUT, d)`` — output port ``d``'s crossbar column and link: the bit
  vectors proper, and the only windows the PRA arbiter executes;
* ``(IN, d)`` — the crossbar input fed from input port ``d``;
* ``(LATCH, d)`` — the one-flit latch behind input port ``d``;
* ``PIN = (INJ, LOCAL)`` — the NI's injection link: an announced
  response's pinned grant cycles, one per flit, which the NI reads in
  claim order (:class:`~repro.core.pra_network.PraInterface`).

Cancellation is lazy: a window belongs to a
:class:`~repro.core.plan.PraPlan`, and every query treats a window whose
plan is cancelled as absent (the hardware equivalent: the valid bit is
cleared, freeing the slot for the local arbiter).  Nothing has to be
refunded when a plan dies, and nothing sweeps the table: like a slot
shifting off the end of a bit vector, a window that is over or cancelled
is invisible to every query, and :meth:`Promises.claim` drops its row's
dead windows before it appends.

The hardware never searches its bit vectors: they shift one slot per
cycle and the head slot is read.  The *calendar* is that read: every
``OUT`` window is filed under each cycle it covers when it is claimed,
so :meth:`Promises.due` pops one cycle's windows and
:meth:`Promises.scheduled` (the router's "stay awake" query) looks one
cycle up; neither scans a row.  The calendar is derived from the rows
and rebuilt from them on restore.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.plan import PlanStep, PraPlan
from repro.noc.topology import Direction

#: Resource kinds.
OUT, IN, LATCH, INJ = range(4)

Resource = Tuple[int, Direction]

#: The attached NI's injection slots: the one ``INJ`` row.
PIN: Resource = (INJ, Direction.LOCAL)

_PORT = itemgetter(0)


class Window(NamedTuple):
    """Cycles ``[first, end)`` of one resource, promised to ``plan``."""

    first: int
    end: int
    plan: PraPlan
    #: The step an ``OUT`` window executes (None on any other row);
    #: flit ``now - first`` of the packet is expected at cycle ``now``.
    step: Optional[PlanStep] = None
    #: True at the router that reads the flit and drives the (multi-hop)
    #: traversal; False at a bypassed router, whose window only pins its
    #: crossbar and output link.
    is_driver: bool = False


class Promises:
    """Every window promised on one router's resources."""

    __slots__ = ("horizon", "_rows", "_out", "_port", "calendar")

    def __init__(self, horizon: int, directions: Sequence[Direction]):
        self.horizon = horizon
        self._rows: Dict[Resource, List[Window]] = {
            (kind, direction): []
            for kind in (OUT, IN, LATCH)
            for direction in directions
        }
        self._rows[PIN] = []
        #: The ``OUT`` rows in the router's port-processing order.
        self._out = [self._rows[OUT, direction] for direction in directions]
        #: Direction -> its ``OUT`` row's index in ``_out``.
        self._port = {direction: index
                      for index, direction in enumerate(directions)}
        #: cycle -> ``(port index, window)`` for every ``OUT`` window
        #: covering that cycle, in claim order.  ``due`` pops a cycle's
        #: entry; ``claim`` drops the entries of cycles no router step
        #: popped (every window there was cancelled) once there are more
        #: cycles than a claim's horizon can reach.  The router keeps
        #: this dict (it is never rebound) to skip ``due`` on a cycle
        #: with nothing filed.
        self.calendar: Dict[int, List[Tuple[int, Window]]] = {}

    # -- queries ------------------------------------------------------------

    def within_horizon(self, now: int, first: int, count: int) -> bool:
        return first + count - 1 <= now + self.horizon

    def free(self, resource: Resource, first: int, count: int) -> bool:
        """True when no live window overlaps ``count`` cycles from
        ``first``."""
        end = first + count
        for window in self._rows[resource]:
            if (window.first < end and first < window.end
                    and not window.plan.cancelled):
                return False
        return True

    def scheduled(self, cycle: int) -> bool:
        """Does a live ``OUT`` window cover ``cycle``?  (One calendar
        look-up: the router stays awake while this holds for the next
        cycle.)"""
        entries = self.calendar.get(cycle)
        if entries:
            for _, window in entries:
                if not window.plan.cancelled:
                    return True
        return False

    def row(self, resource: Resource) -> List[Window]:
        """One resource's stored windows in claim order, dead ones
        included.  Claims rewrite the list in place, so a reader may
        keep it (the NI aliases the ``PIN`` row)."""
        return self._rows[resource]

    def windows(self) -> Iterator[Tuple[Resource, Window]]:
        """Every stored window, dead ones included (audits, snapshots)."""
        for resource, row in self._rows.items():
            for window in row:
                yield resource, window

    # -- updates -------------------------------------------------------------

    def claim(self, now: int, resource: Resource, first: int, count: int,
              plan: PraPlan, step: Optional[PlanStep] = None,
              is_driver: bool = False) -> None:
        """Promise ``count`` cycles from ``first``, after dropping the
        row's windows that are over or cancelled at ``now``; an ``OUT``
        window is also filed in the calendar."""
        row = self._rows[resource]
        row[:] = [window for window in row
                  if window.end > now and not window.plan.cancelled]
        if not self.free(resource, first, count):
            raise RuntimeError("double-booked reservation window")
        window = Window(first, first + count, plan, step, is_driver)
        row.append(window)
        kind, direction = resource
        if kind == OUT:
            calendar = self.calendar
            if len(calendar) > self.horizon:
                # More cycles than the horizon spans: some are past.
                for cycle in [cycle for cycle in calendar if cycle < now]:
                    del calendar[cycle]
            self._file(self._port[direction], window, first)

    def _file(self, port: int, window: Window, first: int) -> None:
        """Enter ``window`` in the calendar from cycle ``first`` on."""
        calendar = self.calendar
        entry = (port, window)
        for cycle in range(first, window.end):
            entries = calendar.get(cycle)
            if entries is None:
                calendar[cycle] = [entry]
            else:
                entries.append(entry)

    def due(self, now: int) -> Sequence[Window]:
        """The live ``OUT`` windows covering ``now``, in port order (at
        most one per port): the calendar's entry for ``now``, popped.
        A window is removed from its row with its last cycle, so a live
        one left entirely in the past was never executed."""
        entries = self.calendar.pop(now, None)
        if entries is None:
            return ()
        if len(entries) > 1:
            entries.sort(key=_PORT)
        hits = []
        for port, window in entries:
            if window.plan.cancelled:
                continue
            hits.append(window)
            if window.end == now + 1:
                row = self._out[port]
                for index, stored in enumerate(row):
                    if stored is window:
                        del row[index]
                        break
        return hits

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx, now: int) -> list:
        """The windows a query can still see, in claim order per row."""
        rows = []
        for (kind, direction), window in self.windows():
            if window.end <= now or window.plan.cancelled:
                continue
            step_index = None
            if window.step is not None:
                # Identity index: PlanStep is a value-comparing
                # dataclass, so ``steps.index`` could match a twin step.
                step_index = next(
                    i for i, step in enumerate(window.plan.steps)
                    if step is window.step
                )
            rows.append([kind, int(direction), window.first, window.end,
                         ctx.plan_ref(window.plan), step_index,
                         window.is_driver])
        return rows

    def load_state(self, state: list, ctx, now: int) -> None:
        """Append directly (a snapshot holds only live windows), and
        rebuild the calendar from cycle ``now`` on."""
        for row in self._rows.values():
            row.clear()
        self.calendar.clear()
        for kind, direction, first, end, plan_ref, step_index, driver in state:
            plan = ctx.plan(plan_ref)
            step = None if step_index is None else plan.steps[step_index]
            direction = Direction(direction)
            window = Window(first, end, plan, step, driver)
            self._rows[kind, direction].append(window)
            if kind == OUT:
                self._file(self._port[direction], window, max(first, now))
