"""Exact traffic geometry: the pair distribution reduced to routes.

The queueing layer (:mod:`repro.analytic.queueing`) needs two things
about a traffic pattern on a topology: the distribution of the routes
packets take (to which it applies each organization's zero-load law),
and the probability that a packet crosses each directed link under the
topology's routing law (whose maximum sets the saturation throughput,
and whose full vector feeds the per-link waiting-time sum).  This
module computes both by *exact enumeration* of the (src, dst) pair
distribution, walking each pair's route over the
:class:`repro.noc.topology.Topology` graph — once per (topology,
pattern), cached — so the model has no sampling noise and no
uniform-traffic approximation: hotspot and transpose skews, and a
chiplet hierarchy's gateway funnel, land on exactly the links the
simulator would load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from repro.noc.topology import Direction, build_topology
from repro.workloads.synthetic import TrafficPattern, check_hotspot_nodes


class Run(NamedTuple):
    """A maximal straight stretch of a route: consecutive hops out of
    the same port, the stretch a multi-hop traversal can cover."""

    hops: int
    #: Sum of the run's link latencies (2 cycles per on-die hop).
    cycles: int
    #: Intra-die links (:class:`Direction` ports), not interposer or
    #: IO-die links.
    on_die: bool


#: A route as the zero-load laws see it: its maximal straight runs.
Route = Tuple[Run, ...]


@dataclass(frozen=True, eq=False)
class TrafficGeometry:
    """Geometry of one (topology, pattern) combination.

    Probabilities are conditional on a packet actually being injected
    (self-addressed draws are dropped by the injectors, see
    ``inject_ratio``).  Compared and hashed by identity: the
    :func:`topology_geometry` cache hands out one instance per
    combination, and memoized means key on it.
    """

    #: P(a Bernoulli injection draw becomes a packet) — uniform traffic
    #: on an 8x8 mesh redraws the source 1/64th of the time, transpose
    #: drops the diagonal, and so on.
    inject_ratio: float
    #: (route, probability) for every distinct route a packet takes;
    #: the probabilities sum to 1.
    routes: Tuple[Tuple[Route, float], ...]
    #: P(a packet crosses link l) for every directed link, sorted
    #: descending.  Sums to the mean hop count.
    link_coeffs: Tuple[float, ...]
    #: max(link_coeffs): the bottleneck link's share of injected packets.
    max_link_coeff: float


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


def route_of(topo, src: int, dst: int) -> Route:
    """The maximal straight runs of the routed path ``src -> dst``."""
    runs = []
    last_port = None
    for node, port in topo.route(src, dst)[:-1]:
        if port != last_port:
            runs.append([0, 0, isinstance(port, Direction)])
            last_port = port
        runs[-1][0] += 1
        runs[-1][1] += topo.link_latency(node, port)
    return tuple(Run(*run) for run in runs)


@lru_cache(maxsize=64)
def topology_geometry(
    topology: str,
    width: int,
    height: int,
    pattern: TrafficPattern,
    hotspot_nodes: Tuple[int, ...],
) -> TrafficGeometry:
    """Enumerate the pair distribution over a topology graph.

    Each pair's route is walked through the dense routing rows, so runs,
    per-hop link latencies and directed-link loads are those of the
    routing law the simulator runs (XY on the mesh; intra-mesh ->
    gateway -> interposer -> intra-mesh on a chiplet hierarchy).
    """
    topo = build_topology(topology, width, height)
    limit = topo.num_endpoints
    check_hotspot_nodes(hotspot_nodes, limit)
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
    routes: Dict[Route, float] = {}
    link_load: Dict[Tuple[int, object], float] = {}
    for (src, dst), weight in weights.items():
        p = weight / total
        route = route_of(topo, src, dst)
        routes[route] = routes.get(route, 0.0) + p
        for node, port in topo.route(src, dst)[:-1]:
            link = (node, port)
            link_load[link] = link_load.get(link, 0.0) + p
    coeffs = tuple(sorted(link_load.values(), reverse=True))
    return TrafficGeometry(
        inject_ratio=total,
        routes=tuple(routes.items()),
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
        (0,) if hotspot_nodes is None else tuple(hotspot_nodes),
    )
