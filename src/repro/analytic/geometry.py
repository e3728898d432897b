"""Exact traffic geometry: pair distributions reduced to aggregates.

The queueing layer (:mod:`repro.analytic.queueing`) needs only a handful
of numbers about a traffic pattern on a topology: expected hop counts
under each organization's traversal rule, and the probability that a
packet crosses each directed link under the topology's routing law
(whose maximum sets the saturation throughput, and whose full vector
feeds the per-link waiting-time sum).  This module computes them by
*exact enumeration* of the (src, dst) pair distribution, walking each
pair's route over the :class:`repro.noc.topology.Topology` graph — once
per (topology, pattern, traversal parameters), cached — so the model
has no sampling noise and no uniform-traffic approximation: hotspot and
transpose skews, and a chiplet hierarchy's gateway funnel, land on
exactly the links the simulator would load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Dict, Optional, Tuple

from repro.noc.topology import build_topology
from repro.params import PRA_HOPS_PER_CYCLE
from repro.workloads.synthetic import TrafficPattern


@dataclass(frozen=True)
class TrafficGeometry:
    """Aggregate geometry of one (topology, pattern) combination.

    Expectations are conditional on a packet actually being injected
    (self-addressed draws are dropped by the injectors, see
    ``inject_ratio``).
    """

    width: int
    height: int
    #: P(a Bernoulli injection draw becomes a packet) — uniform traffic
    #: on an 8x8 mesh redraws the source 1/64th of the time, transpose
    #: drops the diagonal, and so on.
    inject_ratio: float
    #: E[route hops] (Manhattan distance on the mesh).
    e_hops: float
    #: E[sum of per-hop link latencies along the route] — 2 cycles per
    #: hop on the mesh; chiplet interposer crossings cost their
    #: configured latency.  The mesh-kind zero-load law consumes this.
    e_lat_hops: float
    #: E[ceil(hops / ideal_hops_per_cycle)] — the ideal network's rule
    #: (2 hops per cycle by default, hence the name).
    e_ceil_half_hops: float
    #: E[SMART segments]: ceil(run / HPC_max) summed over the maximal
    #: straight runs of the route (|dx| and |dy| under XY routing).
    e_segments: float
    #: E[PRA segments + reservation-overflow penalty] — the PRA announced
    #: traversal (see :func:`repro.analytic.queueing.zero_load_latency`).
    e_pra_hops: float
    #: P(a packet crosses link l) for every directed link, sorted
    #: descending.  Sums to ``e_hops``.
    link_coeffs: Tuple[float, ...]
    #: max(link_coeffs): the bottleneck link's share of injected packets.
    max_link_coeff: float


def pra_overflow_hops(reservation_horizon: int, max_lag: int) -> int:
    """Hop count an announced packet covers before its reservations age
    out of the table: empirically ``horizon - max_lag`` on the default
    configuration (12-slot horizon, max lag 4 -> onset at 9 hops)."""
    return max(1, reservation_horizon - max_lag)


def _topology_destination_probs(topo, pattern, src, hotspot_nodes):
    """P(dst | src draws an injection), before the dst==src drop.

    Mirrors :meth:`repro.workloads.synthetic.SyntheticTraffic._destination`
    exactly, including transpose's out-of-range drop on non-square
    grids and hotspot's 50/50 hot/uniform split.
    """
    limit = topo.num_endpoints
    if pattern in (TrafficPattern.UNIFORM_RANDOM,
                   TrafficPattern.REQUEST_REPLY):
        return {d: 1.0 / limit for d in range(limit)}
    if pattern is TrafficPattern.TRANSPOSE:
        x, y = topo.coords(src)
        if x >= topo.height or y >= topo.width:
            return {}
        return {topo.node_at(y, x): 1.0}
    if pattern is TrafficPattern.HOTSPOT:
        probs = {d: 0.5 / limit for d in range(limit)}
        for hot in hotspot_nodes:
            probs[hot] = probs.get(hot, 0.0) + 0.5 / len(hotspot_nodes)
        return probs
    if pattern is TrafficPattern.NEIGHBOR:
        neighbors = [n for _, n in topo.neighbors(src) if n < limit]
        return {d: 1.0 / len(neighbors) for d in neighbors}
    raise ValueError(f"unhandled pattern {pattern}")


@lru_cache(maxsize=64)
def topology_geometry(
    topology: str,
    width: int,
    height: int,
    pattern: TrafficPattern,
    hotspot_nodes: Tuple[int, ...],
    smart_hpc: int,
    ideal_hpc: int,
    pra_overflow_hops: int,
) -> TrafficGeometry:
    """Enumerate the pair distribution over a topology graph and reduce
    it to aggregates.

    Each pair's route is walked through the dense routing rows, so hop
    counts, per-hop link latencies and directed-link loads are those of
    the routing law the simulator runs (XY on the mesh; intra-mesh ->
    gateway -> interposer -> intra-mesh on a chiplet hierarchy).  The
    two ``*_hpc`` divisors and :data:`~repro.params.PRA_HOPS_PER_CYCLE`
    are the hops-per-cycle rules of the point laws in
    :func:`repro.analytic.queueing.zero_load_latency`;
    ``pra_overflow_hops`` is the distance beyond which an announced PRA
    packet outruns its reservation horizon.
    """
    topo = build_topology(topology, width, height)
    limit = topo.num_endpoints
    weights: Dict[Tuple[int, int], float] = {}
    for src in range(limit):
        for dst, p in _topology_destination_probs(
            topo, pattern, src, hotspot_nodes
        ).items():
            if dst == src or p <= 0.0:
                continue
            key = (src, dst)
            weights[key] = weights.get(key, 0.0) + p / limit
    total = sum(weights.values())
    if total <= 0.0:
        raise ValueError(
            f"pattern {pattern.value} injects no packets on "
            f"topology {topology}"
        )
    e_hops = e_lat = e_ideal = e_seg = e_pra = 0.0
    link_load: Dict[Tuple[int, object], float] = {}
    for (src, dst), weight in weights.items():
        p = weight / total
        hops = lat = 0
        #: Lengths of the route's maximal straight runs (same out port
        #: hop after hop): the stretches a multi-hop traversal can cover.
        runs = []
        node, last_port = src, None
        while node != dst:
            port = topo.route_port(node, dst)
            link = (node, port)
            link_load[link] = link_load.get(link, 0.0) + p
            hops += 1
            lat += topo.link_latency(node, port)
            if port == last_port:
                runs[-1] += 1
            else:
                runs.append(1)
                last_port = port
            node = topo.neighbor(node, port)
        e_hops += p * hops
        e_lat += p * lat
        e_ideal += p * ceil(hops / ideal_hpc)
        e_seg += p * sum(ceil(run / smart_hpc) for run in runs)
        e_pra += p * (sum(ceil(run / PRA_HOPS_PER_CYCLE) for run in runs)
                      + 2 * max(0, hops - pra_overflow_hops))
    coeffs = tuple(sorted(link_load.values(), reverse=True))
    return TrafficGeometry(
        width=width,
        height=height,
        inject_ratio=total,
        e_hops=e_hops,
        e_lat_hops=e_lat,
        e_ceil_half_hops=e_ideal,
        e_segments=e_seg,
        e_pra_hops=e_pra,
        link_coeffs=coeffs,
        max_link_coeff=coeffs[0],
    )


def geometry_for(
    params, pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    hotspot_nodes: Optional[Tuple[int, ...]] = None,
) -> TrafficGeometry:
    """Geometry for a :class:`~repro.params.NocParams` configuration."""
    return topology_geometry(
        params.topology,
        params.mesh_width,
        params.mesh_height,
        pattern,
        tuple(hotspot_nodes) if hotspot_nodes else (0,),
        params.smart.hops_per_cycle,
        params.ideal_hops_per_cycle,
        pra_overflow_hops(params.pra.reservation_horizon,
                          params.pra.max_lag),
    )
