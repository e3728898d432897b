"""Tracers: the null object (tracing off) and the ring-buffer collector.

Every :class:`~repro.noc.network.Network` carries a ``tracer``
attribute, initialized to the module-level :data:`NULL_TRACER`.
Emission sites in the hot path are all guarded by a single attribute
check::

    tracer = self.network.tracer
    if tracer.enabled:
        tracer.emit(now, EV_LINK, pid=..., node=..., ...)

so a simulation with tracing off pays one attribute load and one branch
per site and never constructs an event object.

:class:`RingTracer` keeps the newest ``capacity`` events in a bounded
ring buffer (old events fall off the back), optionally restricted to a
packet-id set and/or a cycle window at emission time.  Attaching one
changes no simulated event: every emission site sits on the same code
path a run without a tracer takes.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.trace.events import TraceEvent, write_jsonl

#: Default ring capacity: plenty for hundreds of cycles of a 64-tile
#: chip while bounding memory for arbitrarily long runs.
DEFAULT_CAPACITY = 1 << 17


class NullTracer:
    """Tracing disabled: emission sites skip after one attribute check."""

    __slots__ = ()
    enabled = False

    def emit(self, cycle: int, kind: str, **_fields: Any) -> None:
        """Never reached from guarded sites; a no-op regardless."""


#: The shared do-nothing tracer (stateless, safe to share globally).
NULL_TRACER = NullTracer()


class RingTracer:
    """Bounded in-memory event collector with optional filters."""

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        pids: Optional[Iterable[int]] = None,
        cycle_window: Optional[Tuple[int, int]] = None,
    ):
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self._pids: Optional[Set[int]] = set(pids) if pids is not None else None
        #: Half-open [start, end) cycle window, or None for all cycles.
        self._window = cycle_window
        self._seq = 0
        #: Total accepted emissions (including those the ring dropped).
        self.emitted = 0

    # -- emission (hot path when enabled) ---------------------------------

    def emit(
        self,
        cycle: int,
        kind: str,
        pid: Optional[int] = None,
        node: Optional[int] = None,
        **data: Any,
    ) -> None:
        if self._window is not None and not (
            self._window[0] <= cycle < self._window[1]
        ):
            return
        if self._pids is not None and pid not in self._pids:
            return
        event = TraceEvent(cycle, kind, pid=pid, node=node, data=data,
                           seq=self._seq)
        self._seq += 1
        self.emitted += 1
        self._ring.append(event)

    # -- retrieval ---------------------------------------------------------

    def events(
        self,
        pid: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> List[TraceEvent]:
        """Buffered events, oldest first, optionally filtered."""
        kind_set = set(kinds) if kinds is not None else None
        return [
            e for e in self._ring
            if (pid is None or e.pid == pid)
            and (kind_set is None or e.kind in kind_set)
        ]

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Accepted events evicted by the ring bound."""
        return self.emitted - len(self._ring)

    def kind_counts(self) -> Dict[str, int]:
        counts: Counter = Counter(e.kind for e in self._ring)
        return dict(counts)

    def write_jsonl(self, path: str) -> int:
        """Export the buffered events; returns how many were written."""
        return write_jsonl(self._ring, path)
