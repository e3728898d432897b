"""One router's future-timeslot promises (the paper's bit vectors).

Figure 4 of the paper attaches to every output port a set of bit vectors
holding, for several future timeslots, whether the slot is proactively
allocated (*Valid*), which input port and VC the packet comes from
(*Input Select*, *Local VC Select*), and which downstream VC it goes to
(*Downstream VC Select*), shifting left one slot per cycle.

A control packet fills them all-or-nothing per segment, and what a
segment reserves is always one contiguous run of cycles on one resource.
That :class:`Window` is the unit stored here, on three kinds of resource
per router direction:

* ``(OUT, d)`` — output port ``d``'s crossbar column and link: the bit
  vectors proper, and the only windows the PRA arbiter executes;
* ``(IN, d)`` — the crossbar input fed from input port ``d``;
* ``(LATCH, d)`` — the one-flit latch behind input port ``d``.

Cancellation is lazy: a window belongs to a
:class:`~repro.core.plan.PraPlan`, and every query treats a window whose
plan is cancelled as absent (the hardware equivalent: the valid bit is
cleared, freeing the slot for the local arbiter).  Nothing has to be
refunded when a plan dies, and nothing sweeps the table: like a slot
shifting off the end of a bit vector, a window that is over or cancelled
is invisible to every query, and :meth:`Promises.claim` drops its row's
dead windows before it appends.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.plan import PlanStep, PraPlan
from repro.noc.topology import Direction

#: Resource kinds.
OUT, IN, LATCH = range(3)

Resource = Tuple[int, Direction]


class Window(NamedTuple):
    """Cycles ``[first, end)`` of one resource, promised to ``plan``."""

    first: int
    end: int
    plan: PraPlan
    #: The step an ``OUT`` window executes (None on ``IN`` / ``LATCH``);
    #: flit ``now - first`` of the packet is expected at cycle ``now``.
    step: Optional[PlanStep] = None
    #: True at the router that reads the flit and drives the (multi-hop)
    #: traversal; False at a bypassed router, whose window only pins its
    #: crossbar and output link.
    is_driver: bool = False


class Promises:
    """Every window promised on one router's resources."""

    __slots__ = ("horizon", "_rows", "_out")

    def __init__(self, horizon: int, directions: Sequence[Direction]):
        self.horizon = horizon
        self._rows: Dict[Resource, List[Window]] = {
            (kind, direction): []
            for kind in (OUT, IN, LATCH)
            for direction in directions
        }
        #: The ``OUT`` rows in the router's port-processing order.
        self._out = [self._rows[OUT, direction] for direction in directions]

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

    def pending(self, now: int) -> bool:
        """Does a live ``OUT`` window cover ``now`` or a later cycle?"""
        for row in self._out:
            for window in row:
                if window.end > now and not window.plan.cancelled:
                    return True
        return False

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
        row's windows that are over or cancelled at ``now``."""
        row = self._rows[resource]
        row[:] = [window for window in row
                  if window.end > now and not window.plan.cancelled]
        if not self.free(resource, first, count):
            raise RuntimeError("double-booked reservation window")
        row.append(Window(first, first + count, plan, step, is_driver))

    def due(self, now: int) -> List[Window]:
        """The live ``OUT`` windows covering ``now``, in port order (at
        most one per port).  A window is removed with its last cycle, so
        a live one left entirely in the past was never executed."""
        hits = []
        for row in self._out:
            if not row:
                continue  # the common case, every cycle of every router
            for index, window in enumerate(row):
                if (window.first <= now < window.end
                        and not window.plan.cancelled):
                    hits.append(window)
                    if window.end == now + 1:
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

    def load_state(self, state: list, ctx) -> None:
        """Append directly: a snapshot holds only live windows."""
        for row in self._rows.values():
            row.clear()
        for kind, direction, first, end, plan_ref, step_index, driver in state:
            plan = ctx.plan(plan_ref)
            step = None if step_index is None else plan.steps[step_index]
            self._rows[kind, Direction(direction)].append(
                Window(first, end, plan, step, driver))
