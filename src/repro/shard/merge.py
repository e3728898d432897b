"""Merging per-shard statistics back into one serial-equivalent whole.

Every counter in :class:`NetworkStats` is an integer sum, an integer
``[sum, count]`` pair or a list of integer latencies, so shard stats
merge by summing numbers and concatenating lists; the summary means
come out bit-identical to a serial run because integer sums are
order-independent.
"""

from __future__ import annotations

from typing import List

from repro.noc.stats import NetworkStats


def merge_stats(states: List[dict]) -> NetworkStats:
    """Fold per-shard ``NetworkStats.state_dict()`` values into one."""
    merged = NetworkStats()
    base = dict(states[0])
    int_keys = [
        "packets_injected", "packets_ejected", "flits_ejected",
        "total_hops", "pra_blocked_cycles", "control_packets_injected",
        "control_injection_conflicts", "pra_planned_packets",
    ]
    for key in int_keys:
        base[key] = sum(state[key] for state in states)
    base["network_latencies"] = [
        v for state in states for v in state["network_latencies"]
    ]
    for key in ("total_latency", "planned_response_latency"):
        base[key] = [sum(state[key][i] for state in states) for i in (0, 1)]
    per_class: dict = {}
    for state in states:
        for value, total, count in state["class_latency"]:
            acc = per_class.setdefault(value, [0, 0])
            acc[0] += total
            acc[1] += count
    base["class_latency"] = [[v, *acc] for v, acc in per_class.items()]
    for key in ("control_lag_at_drop", "control_drop_reasons",
                "control_refusals", "plans", "plan_lengths"):
        counts: dict = {}
        for state in states:
            for *item, count in state[key]:
                counts[tuple(item)] = counts.get(tuple(item), 0) + count
        base[key] = sorted([*item, count] for item, count in counts.items())
    merged.load_state(base)
    return merged
