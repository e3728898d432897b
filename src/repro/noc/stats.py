"""Network statistics: latency, throughput, hop counts, PRA counters.

The system-level performance model reads packet latencies directly; the
aggregated statistics here back the network-level experiments (load vs.
latency) and the Section V-B control-packet analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.noc.packet import Packet
from repro.params import MessageClass


def _mean(values: List[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(acc: List[int]) -> float:
    """Mean of a ``[sum, count]`` accumulator (0 when empty)."""
    return acc[0] / acc[1] if acc[1] else 0.0


def _percentile(values: List[int], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for empty input)."""
    if not values:
        return 0.0
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("percentile fraction must be in [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


@dataclass
class NetworkStats:
    """Counters collected by a network over a simulation run."""

    packets_injected: int = 0
    packets_ejected: int = 0
    flits_ejected: int = 0
    total_hops: int = 0
    network_latencies: List[int] = field(default_factory=list)
    #: ``[sum, count]`` of creation-to-ejection latencies (only the mean
    #: is read, and integer sums keep it exact).
    total_latency: List[int] = field(default_factory=lambda: [0, 0])
    #: ``[sum, count]`` of network latencies per message class.
    class_latency: Dict[MessageClass, List[int]] = field(
        default_factory=lambda: {mc: [0, 0] for mc in MessageClass}
    )
    #: Cycles packets spent blocked behind resources proactively
    #: allocated to *other* packets (Section V-B underutilization stat).
    pra_blocked_cycles: int = 0
    #: PRA control-network counters (zero for non-PRA organizations).
    control_packets_injected: int = 0
    #: Control packets dropped at the injection latch (never entered).
    control_injection_conflicts: int = 0
    control_lag_at_drop: Counter = field(default_factory=Counter)
    control_drop_reasons: Counter = field(default_factory=Counter)
    #: Refused reservation attempts by ``(check, lag at drop)``: which
    #: resource check of the control network turned the packet away.
    control_refusals: Counter = field(default_factory=Counter)
    #: Data packets that began traversal with a pre-allocated path.
    pra_planned_packets: int = 0
    #: Live planned packets: pid -> steps committed by the packet's
    #: current control packet.  A commit adds 1, an accepted control
    #: injection resets an existing entry to 0, ejection pops it.
    plans: Dict[int, int] = field(default_factory=dict)
    #: ``[sum, count]`` of network latencies of planned responses (the
    #: unplanned ones are ``class_latency[RESPONSE]`` minus this).
    planned_response_latency: List[int] = field(default_factory=lambda: [0, 0])
    #: Plan lengths (non-zero step counts) of ejected planned packets.
    plan_lengths: Counter = field(default_factory=Counter)

    def record_injection(self, packet: Packet) -> None:
        self.packets_injected += 1

    def record_ejection(self, packet: Packet) -> None:
        self.packets_ejected += 1
        self.flits_ejected += packet.size
        self.total_hops += packet.hops_taken
        net = packet.network_latency()
        tot = packet.total_latency()
        if net is not None:
            self.network_latencies.append(net)
            acc = self.class_latency[packet.msg_class]
            acc[0] += net
            acc[1] += 1
        if tot is not None:
            acc = self.total_latency
            acc[0] += tot
            acc[1] += 1
        self.pra_blocked_cycles += packet.pra_blocked_cycles
        plans = self.plans
        if plans:
            steps = plans.pop(packet.pid, None)
            if steps is not None:
                if steps:
                    self.plan_lengths[steps] += 1
                if packet.msg_class is MessageClass.RESPONSE:
                    acc = self.planned_response_latency
                    acc[0] += net
                    acc[1] += 1

    # -- summaries -------------------------------------------------------

    @property
    def avg_network_latency(self) -> float:
        return _mean(self.network_latencies)

    @property
    def avg_total_latency(self) -> float:
        return _ratio(self.total_latency)

    @property
    def avg_hops(self) -> float:
        if not self.packets_ejected:
            return 0.0
        return self.total_hops / self.packets_ejected

    def avg_class_latency(self, mc: MessageClass) -> float:
        return _ratio(self.class_latency[mc])

    def latency_percentile(self, fraction: float) -> float:
        """Network-latency percentile (e.g. 0.99 for the p99 tail)."""
        return _percentile(self.network_latencies, fraction)

    def latency_histogram(self, bucket: int = 4) -> Dict[int, int]:
        """Latencies bucketed into ``bucket``-cycle bins (lower edge)."""
        if bucket < 1:
            raise ValueError("bucket width must be positive")
        hist: Dict[int, int] = {}
        for latency in self.network_latencies:
            edge = (latency // bucket) * bucket
            hist[edge] = hist.get(edge, 0) + 1
        return dict(sorted(hist.items()))

    @property
    def in_flight(self) -> int:
        return self.packets_injected - self.packets_ejected

    @property
    def control_packets_per_data_packet(self) -> float:
        if not self.packets_injected:
            return 0.0
        return self.control_packets_injected / self.packets_injected

    def lag_distribution(self) -> Dict[int, float]:
        """Fraction of control packets dropped at each lag (Figure 7)."""
        total = sum(self.control_lag_at_drop.values())
        if not total:
            return {}
        return {
            lag: count / total
            for lag, count in sorted(self.control_lag_at_drop.items())
        }

    def plan_length_histogram(self) -> Counter:
        """Plan lengths of the ejected and the live planned packets."""
        live = Counter(steps for steps in self.plans.values() if steps)
        return self.plan_lengths + live

    def pra_blocked_fraction(self) -> float:
        """Blocked-behind-reservation time over total network time."""
        total_time = sum(self.network_latencies)
        if not total_time:
            return 0.0
        return self.pra_blocked_cycles / total_time

    def summary(self) -> Dict[str, float]:
        return {
            "packets_injected": self.packets_injected,
            "packets_ejected": self.packets_ejected,
            "packets_unfinished": self.in_flight,
            "avg_network_latency": self.avg_network_latency,
            "avg_total_latency": self.avg_total_latency,
            "avg_hops": self.avg_hops,
            "control_packets_per_data_packet": self.control_packets_per_data_packet,
        }

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "packets_injected": self.packets_injected,
            "packets_ejected": self.packets_ejected,
            "flits_ejected": self.flits_ejected,
            "total_hops": self.total_hops,
            "network_latencies": list(self.network_latencies),
            "total_latency": list(self.total_latency),
            "class_latency": [
                [mc.value, *acc] for mc, acc in self.class_latency.items()
            ],
            "pra_blocked_cycles": self.pra_blocked_cycles,
            "control_packets_injected": self.control_packets_injected,
            "control_injection_conflicts": self.control_injection_conflicts,
            "control_lag_at_drop": [
                [lag, count]
                for lag, count in sorted(self.control_lag_at_drop.items())
            ],
            "control_drop_reasons": [
                [reason, count]
                for reason, count in sorted(self.control_drop_reasons.items())
            ],
            "control_refusals": [
                [check, lag, count]
                for (check, lag), count in sorted(self.control_refusals.items())
            ],
            "pra_planned_packets": self.pra_planned_packets,
            "plans": sorted(map(list, self.plans.items())),
            "planned_response_latency": list(self.planned_response_latency),
            "plan_lengths": sorted(map(list, self.plan_lengths.items())),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore **in place**: the control network, chip, and slices
        all hold aliases of their network's stats object."""
        self.packets_injected = state["packets_injected"]
        self.packets_ejected = state["packets_ejected"]
        self.flits_ejected = state["flits_ejected"]
        self.total_hops = state["total_hops"]
        self.network_latencies = list(state["network_latencies"])
        self.total_latency = list(state["total_latency"])
        restored = {
            MessageClass(value): [total, count]
            for value, total, count in state["class_latency"]
        }
        self.class_latency = {
            mc: restored.get(mc, [0, 0]) for mc in MessageClass
        }
        self.pra_blocked_cycles = state["pra_blocked_cycles"]
        self.control_packets_injected = state["control_packets_injected"]
        self.control_injection_conflicts = state["control_injection_conflicts"]
        self.control_lag_at_drop = Counter(
            {lag: count for lag, count in state["control_lag_at_drop"]}
        )
        self.control_drop_reasons = Counter(
            {reason: count for reason, count in state["control_drop_reasons"]}
        )
        self.control_refusals = Counter(
            {(check, lag): count
             for check, lag, count in state["control_refusals"]}
        )
        self.pra_planned_packets = state["pra_planned_packets"]
        self.plans = dict(state["plans"])
        self.planned_response_latency = list(state["planned_response_latency"])
        self.plan_lengths = Counter(dict(state["plan_lengths"]))
