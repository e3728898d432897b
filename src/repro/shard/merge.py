"""Merging per-shard state back into one serial-equivalent whole.

Two merge problems arise in a sharded run:

* **Statistics** — every counter in :class:`NetworkStats` is an integer
  sum, an integer ``[sum, count]`` pair or a list of integer latencies,
  so shard stats merge by summing numbers and concatenating lists; the
  summary means come out bit-identical to a serial run because integer
  sums are order-independent.
* **Checkpoints** — at a cycle barrier every shard snapshots its full
  network (owned rows real, neighbor rows replicas).  The merged
  snapshot takes each router/NI from its owning shard, keeps only the
  event-queue entries whose target the shard owns (cross-boundary
  arrivals exist byte-identically on both sides — the filter keeps
  exactly the receiver's copy), and unions the packet registries,
  preferring the copy with the larger hop count (the downstream copy
  of a mid-crossing packet is the one that kept traveling).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.noc.stats import NetworkStats
from repro.shard.spec import ShardError


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
    base["total_latency"] = [
        sum(state["total_latency"][i] for state in states) for i in (0, 1)
    ]
    per_class: dict = {}
    for state in states:
        for value, total, count in state["class_latency"]:
            acc = per_class.setdefault(value, [0, 0])
            acc[0] += total
            acc[1] += count
    base["class_latency"] = [[v, *acc] for v, acc in per_class.items()]
    for key in ("control_lag_at_drop", "control_drop_reasons",
                "control_refusals"):
        counts: dict = {}
        for state in states:
            for *item, count in state[key]:
                counts[tuple(item)] = counts.get(tuple(item), 0) + count
        base[key] = sorted([*item, count] for item, count in counts.items())
    merged.load_state(base)
    return merged


def _event_target(encoded: list) -> int:
    """Owning node of an encoded event (see ``Network._encode_event``)."""
    kind = encoded[0]
    if kind in ("a", "e"):
        return encoded[1]
    if kind == "c":
        port_ref = encoded[1]
        # ["rp", node, direction] or ["nip", node]
        return port_ref[1]
    raise ShardError(
        f"cannot merge deferred-call event {encoded!r} across shards"
    )


def merge_snapshots(snapshots: List[dict],
                    ranges: List[Tuple[int, int]],
                    barrier: int) -> dict:
    """Merge per-shard barrier snapshots into one serial snapshot.

    ``snapshots[k]`` must be ``snapshot_network(...)`` output taken with
    every shard's clock exactly at ``barrier`` and all staged boundary
    records applied (:meth:`ShardDomain.barrier_snapshot`).
    """
    base = snapshots[0]
    for snap in snapshots:
        if snap["network"]["cycle"] != barrier:
            raise ShardError(
                f"snapshot at cycle {snap['network']['cycle']}, "
                f"expected barrier {barrier}"
            )

    def owner_of(node: int) -> int:
        for k, (first, last) in enumerate(ranges):
            if first <= node <= last:
                return k
        raise ShardError(f"node {node} outside every shard range")

    # Event queues: keep each event in its target's owning shard only.
    buckets: dict = {}
    for k, snap in enumerate(snapshots):
        first, last = ranges[k]
        for time, encoded_events in snap["network"]["events"]:
            kept = [ev for ev in encoded_events
                    if first <= _event_target(ev) <= last]
            if kept:
                buckets.setdefault(time, []).extend(kept)
    events = [[time, buckets[time]] for time in sorted(buckets)]

    bodies = [snap["network"] for snap in snapshots]
    network = {
        "cycle": barrier,
        "cycles_skipped": sum(b["cycles_skipped"] for b in bodies),
        "stats": merge_stats([b["stats"] for b in bodies]).state_dict(),
        "ni_queue": sorted(n for b in bodies for n in b["ni_queue"]),
        "router_queue": sorted(n for b in bodies
                               for n in b["router_queue"]),
        "events": events,
        "routers": [bodies[owner_of(node)]["routers"][node]
                    for node in range(len(bodies[0]["routers"]))],
        "interfaces": [bodies[owner_of(node)]["interfaces"][node]
                       for node in range(len(bodies[0]["interfaces"]))],
    }

    # Registries: union by pid.  Both sides of a mid-crossing packet
    # serialize it; the copy that traveled further (larger hops_taken)
    # is the live one.
    packets: dict = {}
    for snap in snapshots:
        registries = snap["registries"]
        for key in ("plans", "txns"):
            if registries[key]:
                raise ShardError(
                    f"cannot merge non-empty {key!r} registry "
                    f"across shards"
                )
        for pid, state in registries["packets"]:
            current = packets.get(pid)
            if current is None \
                    or state["hops_taken"] > current["hops_taken"]:
                packets[pid] = state
    registries = {
        "packets": [[pid, packets[pid]] for pid in sorted(packets)],
        "plans": [], "txns": [],
    }

    counters = {
        "next_pid": max(s["counters"]["next_pid"] for s in snapshots),
        "next_tid": max(s["counters"]["next_tid"] for s in snapshots),
    }

    merged = {
        "format": base["format"],
        "version": base["version"],
        "code_version": base["code_version"],
        "kind": base["kind"],
        "network_class": base["network_class"],
        "params": base["params"],
        "network": network,
        "registries": registries,
        "counters": counters,
    }
    if "traffic" in base:
        # Every shard draws the identical RNG stream; shard 0's traffic
        # state is the serial state except for the offered counter,
        # which (like injections) was filtered to owned sources.
        traffic = dict(base["traffic"])
        traffic["offered"] = sum(s["traffic"]["offered"]
                                 for s in snapshots)
        merged["traffic"] = traffic
    return merged
