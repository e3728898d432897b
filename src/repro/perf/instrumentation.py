"""Latency-attribution instrumentation for Mesh+PRA analysis.

The EXPERIMENTS.md gap analysis needs to know *where* latency goes:
planned vs. unplanned responses, requests, and how far plans carry their
packets.  :class:`PraProbe` collects exactly that by subscribing to the
network's trace-event stream (:mod:`repro.trace`): packet injections and
ejections bound each latency, and reservation commits identify planned
packets and plan lengths.  Observation never perturbs simulation
behavior — the tracer only records.

Example::

    probe = PraProbe.attach(sim.chip.network)
    sim.run_sample(...)
    report = probe.report()
    print(report.planned_response_latency, report.request_latency)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.noc.network import Network
from repro.params import MessageClass
from repro.trace.events import (
    EV_CONTROL_INJECT,
    EV_EJECT,
    EV_PACKET_INJECT,
    EV_RESERVATION_COMMIT,
    TraceEvent,
)
from repro.trace.tracer import RingTracer

#: The probe only needs the stream, not retention; keep its private
#: ring small so long probed runs stay cheap.
_PROBE_RING_CAPACITY = 1024


@dataclass
class LatencyReport:
    """Aggregated attribution over the probed interval."""

    planned_responses: int = 0
    unplanned_responses: int = 0
    requests: int = 0
    planned_response_latency: float = 0.0
    unplanned_response_latency: float = 0.0
    request_latency: float = 0.0
    #: Histogram of plan lengths (single-cycle steps) at run end.
    plan_lengths: Dict[int, int] = field(default_factory=dict)
    #: Refused reservation attempts by ``(check, lag at drop)`` — from
    #: the network's own counter, so only a live probe fills it.
    control_refusals: Dict[Tuple[str, int], int] = field(default_factory=dict)

    @property
    def planned_fraction(self) -> float:
        total = self.planned_responses + self.unplanned_responses
        return self.planned_responses / total if total else 0.0

    @property
    def mean_plan_length(self) -> float:
        total = sum(self.plan_lengths.values())
        if not total:
            return 0.0
        return sum(k * v for k, v in self.plan_lengths.items()) / total


def attribution_from_events(events) -> LatencyReport:
    """Build a :class:`LatencyReport` from a finished trace (a list of
    :class:`~repro.trace.events.TraceEvent` or a loaded JSONL trace).

    The offline twin of :class:`PraProbe`: the same attribution, derived
    after the fact from an exported trace instead of a live stream.
    """
    sink = _AttributionSink()
    for event in events:
        sink.consume(event)
    return sink.report()


class _AttributionSink:
    """Shared event-folding logic for live probes and offline traces."""

    def __init__(self) -> None:
        #: pid -> (injection cycle, message class name).
        self._injected: Dict[int, Tuple[int, str]] = {}
        self._planned_pids: Set[int] = set()
        self._plan_lengths: Dict[int, int] = {}
        self._lat: Dict[str, List[int]] = {
            "planned": [], "unplanned": [], "request": [],
        }

    def consume(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == EV_PACKET_INJECT:
            self._injected[event.pid] = (
                event.cycle, event.data.get("msg_class", "")
            )
        elif kind == EV_RESERVATION_COMMIT:
            self._planned_pids.add(event.pid)
            self._plan_lengths[event.pid] = (
                self._plan_lengths.get(event.pid, 0) + 1
            )
        elif kind == EV_CONTROL_INJECT:
            # A fresh control packet restarts the packet's plan-length
            # count (a later run supersedes a cancelled earlier plan).
            if event.data.get("accepted"):
                self._plan_lengths[event.pid] = 0
        elif kind == EV_EJECT:
            info = self._injected.pop(event.pid, None)
            if info is None:
                return  # injected before the probed interval
            injected_at, msg_class = info
            latency = event.cycle - injected_at
            if msg_class == MessageClass.RESPONSE.name:
                bucket = ("planned" if event.pid in self._planned_pids
                          else "unplanned")
                self._lat[bucket].append(latency)
            elif msg_class == MessageClass.REQUEST.name:
                self._lat["request"].append(latency)

    def report(self) -> LatencyReport:
        def mean(xs: List[int]) -> float:
            return sum(xs) / len(xs) if xs else 0.0

        lengths: Dict[int, int] = {}
        for pid, steps in self._plan_lengths.items():
            if steps:
                lengths[steps] = lengths.get(steps, 0) + 1
        return LatencyReport(
            planned_responses=len(self._lat["planned"]),
            unplanned_responses=len(self._lat["unplanned"]),
            requests=len(self._lat["request"]),
            planned_response_latency=mean(self._lat["planned"]),
            unplanned_response_latency=mean(self._lat["unplanned"]),
            request_latency=mean(self._lat["request"]),
            plan_lengths=lengths,
        )


class PraProbe:
    """Live latency-attribution observer, fed by the network's tracer.

    If the network already has a tracer attached, the probe subscribes
    to it; otherwise it attaches a small private ring tracer.  Either
    way the simulation's outcomes are untouched.
    """

    def __init__(self, network: Network):
        self.network = network
        self._sink = _AttributionSink()
        self._installed = False

    @classmethod
    def attach(cls, network: Network) -> "PraProbe":
        probe = cls(network)
        probe.install()
        return probe

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("probe already installed")
        self._installed = True
        tracer = self.network.tracer
        if not tracer.enabled:
            tracer = RingTracer(capacity=_PROBE_RING_CAPACITY)
            self.network.attach(tracer=tracer)
        tracer.subscribe(self._sink.consume)

    def report(self) -> LatencyReport:
        report = self._sink.report()
        report.control_refusals = dict(self.network.stats.control_refusals)
        return report
