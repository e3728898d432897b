"""Exact traffic geometry: pair distributions reduced to aggregates.

The queueing layer (:mod:`repro.analytic.queueing`) needs only a handful
of numbers about a traffic pattern on a WxH mesh: expected hop counts
under each organization's traversal rule, and the probability that a
packet crosses each directed link under XY routing (whose maximum sets
the saturation throughput, and whose full vector feeds the per-link
waiting-time sum).  This module computes them by *exact enumeration* of
the (src, dst) pair distribution — O(N^2 * diameter) once per
(topology, pattern), cached — so the model has no sampling noise and no
uniform-traffic approximation: hotspot and transpose skews land on
exactly the links the simulator would load.

Coordinates follow :class:`repro.noc.topology.MeshTopology`: node ids
are row-major, ``coords(node) -> (x, y)``, and XY routing travels fully
in X (east/west) before Y (south/north).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Dict, Optional, Tuple

from repro.workloads.synthetic import TrafficPattern


@dataclass(frozen=True)
class TrafficGeometry:
    """Aggregate geometry of one (mesh, pattern) combination.

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
    #: E[Manhattan hops] (route hops on non-mesh topologies).
    e_hops: float
    #: E[sum of per-hop link latencies along the route] — 2 cycles per
    #: hop on the mesh; chiplet interposer crossings cost their
    #: configured latency.  The mesh-kind zero-load law consumes this.
    e_lat_hops: float
    #: E[ceil(hops / 2)] — the ideal network's 2-hops-per-cycle rule.
    e_ceil_half_hops: float
    #: E[ceil(|dx|/2) + ceil(|dy|/2)] — SMART's straight-segment count.
    e_segments: float
    #: E[segments + reservation-overflow penalty] — the PRA announced
    #: traversal (see :func:`repro.analytic.queueing.zero_load_latency`).
    e_pra_hops: float
    #: P(a packet crosses link l) for every directed mesh link, sorted
    #: descending.  Sums to ``e_hops``.
    link_coeffs: Tuple[float, ...]
    #: max(link_coeffs): the bottleneck link's share of injected packets.
    max_link_coeff: float


def _xy_route_links(
    width: int, src: int, dst: int
) -> Tuple[Tuple[int, int], ...]:
    """Directed links (node, next_node) of the XY route src -> dst."""
    links = []
    x, y = src % width, src // width
    dx, dy = dst % width, dst // width
    while x != dx:
        nxt = x + 1 if x < dx else x - 1
        links.append((y * width + x, y * width + nxt))
        x = nxt
    while y != dy:
        nxt = y + 1 if y < dy else y - 1
        links.append((y * width + x, nxt * width + x))
        y = nxt
    return tuple(links)


def _destination_probs(
    width: int, height: int, pattern: TrafficPattern, src: int,
    hotspot_nodes: Tuple[int, ...],
) -> Dict[int, float]:
    """P(dst | src draws an injection), before the dst==src drop.

    Mirrors :meth:`repro.workloads.synthetic.SyntheticTraffic._destination`
    exactly, including transpose's out-of-range drop on non-square
    meshes and hotspot's 50/50 hot/uniform split.
    """
    num_nodes = width * height
    if pattern in (TrafficPattern.UNIFORM_RANDOM,
                   TrafficPattern.REQUEST_REPLY):
        return {d: 1.0 / num_nodes for d in range(num_nodes)}
    if pattern is TrafficPattern.TRANSPOSE:
        x, y = src % width, src // width
        if x >= height or y >= width:
            return {}
        return {x * width + y: 1.0}
    if pattern is TrafficPattern.HOTSPOT:
        probs = {d: 0.5 / num_nodes for d in range(num_nodes)}
        for hot in hotspot_nodes:
            probs[hot] = probs.get(hot, 0.0) + 0.5 / len(hotspot_nodes)
        return probs
    if pattern is TrafficPattern.NEIGHBOR:
        neighbors = []
        x, y = src % width, src // width
        if y > 0:
            neighbors.append(src - width)
        if y < height - 1:
            neighbors.append(src + width)
        if x > 0:
            neighbors.append(src - 1)
        if x < width - 1:
            neighbors.append(src + 1)
        return {d: 1.0 / len(neighbors) for d in neighbors}
    raise ValueError(f"unhandled pattern {pattern}")


@lru_cache(maxsize=64)
def traffic_geometry(
    width: int,
    height: int,
    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    hotspot_nodes: Tuple[int, ...] = (0,),
    pra_overflow_hops: int = 8,
) -> TrafficGeometry:
    """Enumerate the pair distribution and reduce it to aggregates.

    ``pra_overflow_hops`` is the Manhattan distance beyond which an
    announced PRA packet outruns its reservation horizon (see the
    queueing layer); it only affects ``e_pra_hops``.
    """
    num_nodes = width * height
    weights: Dict[Tuple[int, int], float] = {}
    for src in range(num_nodes):
        for dst, p in _destination_probs(
            width, height, pattern, src, hotspot_nodes
        ).items():
            if dst == src or p <= 0.0:
                continue
            key = (src, dst)
            weights[key] = weights.get(key, 0.0) + p / num_nodes
    total = sum(weights.values())
    if total <= 0.0:
        raise ValueError(
            f"pattern {pattern.value} injects no packets on a "
            f"{width}x{height} mesh"
        )
    e_hops = e_half = e_seg = e_pra = 0.0
    link_load: Dict[Tuple[int, int], float] = {}
    for (src, dst), weight in weights.items():
        p = weight / total
        ax = abs(src % width - dst % width)
        ay = abs(src // width - dst // width)
        hops = ax + ay
        e_hops += p * hops
        e_half += p * ceil(hops / 2)
        segments = ceil(ax / 2) + ceil(ay / 2)
        e_seg += p * segments
        e_pra += p * (segments + 2 * max(0, hops - pra_overflow_hops))
        for link in _xy_route_links(width, src, dst):
            link_load[link] = link_load.get(link, 0.0) + p
    coeffs = tuple(sorted(link_load.values(), reverse=True))
    return TrafficGeometry(
        width=width,
        height=height,
        inject_ratio=total,
        e_hops=e_hops,
        e_lat_hops=2.0 * e_hops,
        e_ceil_half_hops=e_half,
        e_segments=e_seg,
        e_pra_hops=e_pra,
        link_coeffs=coeffs,
        max_link_coeff=coeffs[0],
    )


def pra_overflow_hops(reservation_horizon: int, max_lag: int) -> int:
    """Hop count an announced packet covers before its reservations age
    out of the table: empirically ``horizon - max_lag`` on the default
    configuration (12-slot horizon, max lag 4 -> onset at 9 hops)."""
    return max(1, reservation_horizon - max_lag)


def _topology_destination_probs(topo, pattern, src, hotspot_nodes):
    """P(dst | src draws) on an arbitrary topology graph, mirroring
    :meth:`repro.workloads.synthetic.SyntheticTraffic._destination`."""
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


@lru_cache(maxsize=32)
def topology_geometry(
    topology: str,
    width: int,
    height: int,
    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    hotspot_nodes: Tuple[int, ...] = (0,),
) -> TrafficGeometry:
    """Geometry by route enumeration over an arbitrary topology graph.

    Uses ``topology.route`` for hop counts and directed-link loads and
    ``topology.link_latency`` for the per-hop cost, so hierarchical
    chiplet routes (intra-mesh -> gateway -> interposer -> intra-mesh)
    land on exactly the links the simulator loads.  Segment/PRA
    aggregates reuse the hop count (SMART and PRA do not build on
    non-mesh topologies, so those fields are never consumed).
    """
    from repro.noc.topology import parse_topology_spec, topology_from_spec

    topo = topology_from_spec(parse_topology_spec(topology), width, height)
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
    e_hops = e_lat = e_half = 0.0
    link_load: Dict[Tuple[int, object], float] = {}
    for (src, dst), weight in weights.items():
        p = weight / total
        route = topo.route(src, dst)[:-1]  # drop the ejection hop
        hops = len(route)
        lat = sum(topo.link_latency(node, port) for node, port in route)
        e_hops += p * hops
        e_lat += p * lat
        e_half += p * ceil(hops / 2)
        for link in route:
            link_load[link] = link_load.get(link, 0.0) + p
    coeffs = tuple(sorted(link_load.values(), reverse=True))
    return TrafficGeometry(
        width=width,
        height=height,
        inject_ratio=total,
        e_hops=e_hops,
        e_lat_hops=e_lat,
        e_ceil_half_hops=e_half,
        e_segments=e_hops,
        e_pra_hops=e_hops,
        link_coeffs=coeffs,
        max_link_coeff=coeffs[0],
    )


def geometry_for(
    params, pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    hotspot_nodes: Optional[Tuple[int, ...]] = None,
) -> TrafficGeometry:
    """Geometry for a :class:`~repro.params.NocParams` configuration."""
    topology = getattr(params, "topology", "mesh")
    if topology != "mesh":
        return topology_geometry(
            topology,
            params.mesh_width,
            params.mesh_height,
            pattern,
            tuple(hotspot_nodes) if hotspot_nodes else (0,),
        )
    return traffic_geometry(
        params.mesh_width,
        params.mesh_height,
        pattern,
        tuple(hotspot_nodes) if hotspot_nodes else (0,),
        pra_overflow_hops(params.pra.reservation_horizon,
                          params.pra.max_lag),
    )
