"""Exact traffic geometry: uniform random pairs reduced to routes.

The queueing layer (:mod:`repro.analytic.queueing`) needs two things
about uniform random traffic on a topology: the distribution of the
routes packets take (to which it applies each organization's zero-load
law), and the probability that a packet crosses each directed link
under the topology's routing law (whose maximum sets the saturation
throughput, and whose full vector feeds the per-link waiting-time sum).
This module computes both by *exact enumeration* of the (src, dst)
pairs, walking each pair's route over the
:class:`repro.noc.topology.Topology` graph — once per topology, cached
— so the model has no sampling noise: a chiplet hierarchy's gateway
funnel lands on exactly the links the simulator would load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, NamedTuple, Tuple

from repro.noc.topology import Direction, build_topology


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
    """Geometry of uniform random traffic on one topology.

    Probabilities are conditional on a packet actually being injected
    (the injectors drop self-addressed draws).  Compared and hashed by
    identity: the :func:`topology_geometry` cache hands out one instance
    per topology, and memoized means key on it.
    """

    #: (route, probability) for every distinct route a packet takes;
    #: the probabilities sum to 1.
    routes: Tuple[Tuple[Route, float], ...]
    #: P(a packet crosses link l) for every directed link, sorted
    #: descending.  Sums to the mean hop count.
    link_coeffs: Tuple[float, ...]
    #: max(link_coeffs): the bottleneck link's share of injected packets.
    max_link_coeff: float


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
def topology_geometry(topology: str, width: int,
                      height: int) -> TrafficGeometry:
    """Enumerate the uniform pair distribution over a topology graph.

    Each pair's route is walked through the dense routing rows, so runs,
    per-hop link latencies and directed-link loads are those of the
    routing law the simulator runs (XY on the mesh; intra-mesh ->
    gateway -> interposer -> intra-mesh on a chiplet hierarchy).
    """
    topo = build_topology(topology, width, height)
    limit = topo.num_endpoints
    pairs = [(src, dst) for src in range(limit) for dst in range(limit)
             if dst != src]
    if not pairs:
        raise ValueError(f"topology {topology} injects no packets")
    # Each pair's probability is its draw weight over the summed
    # weights; tests/test_chiplet.py pins the model columns this order
    # of float operations yields.
    weight = 1.0 / limit / limit
    p = weight / sum(weight for _ in pairs)
    routes: Dict[Route, float] = {}
    link_load: Dict[Tuple[int, object], float] = {}
    for src, dst in pairs:
        route = route_of(topo, src, dst)
        routes[route] = routes.get(route, 0.0) + p
        for node, port in topo.route(src, dst)[:-1]:
            link = (node, port)
            link_load[link] = link_load.get(link, 0.0) + p
    coeffs = tuple(sorted(link_load.values(), reverse=True))
    return TrafficGeometry(
        routes=tuple(routes.items()),
        link_coeffs=coeffs,
        max_link_coeff=coeffs[0],
    )


def geometry_for(params) -> TrafficGeometry:
    """Geometry for a :class:`~repro.params.NocParams` configuration."""
    return topology_geometry(
        params.topology, params.mesh_width, params.mesh_height
    )
