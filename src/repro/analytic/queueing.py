"""The queueing layer: zero-load laws + per-link contention.

Two ingredients, per Mandal et al.'s decomposition (PAPERS.md), both
derived from the topology and the :class:`~repro.params.NocParams` with
nothing fitted:

1. **Zero-load latency** — each organization's traversal law, applied
   to a route (its maximal straight runs, see
   :class:`repro.analytic.geometry.Run`) by :func:`route_zero_load`,
   the one place the laws are written.  They are pinned bit-for-bit
   against the cycle-accurate simulator on an idle mesh:

   * mesh (and Mesh+PRA packets without a plan): each hop costs its
     link latency (2 cycles on die) + 3 cycles of NI/ejection overhead
     + (size-1) serialization;
   * SMART: 3 cycles per straight segment of <= HPC_max tiles (bypass
     setup + traversal), XY turns break segments;
   * ideal: ceil(hops / ideal_hops_per_cycle) wire-limited cycles + 1
     + serialization;
   * Mesh+PRA announced responses: the pre-allocated path advances
     :data:`~repro.params.PRA_HOPS_PER_CYCLE` tiles/cycle along each
     on-die run, interposer links stay wire-limited at their latency,
     serialization overlaps traversal — a constant 7-cycle envelope,
     plus a 2-cycles/hop penalty for hops beyond the reservation
     horizon (long routes outrun the table and fall back to
     cycle-by-cycle allocation).

   :func:`zero_load_latency` is the law on an XY route;
   :func:`zero_load_mean` is its mean over uniform random traffic's
   routes.

2. **Waiting time** — an M/G/1 approximation per directed link, driven
   by the exact link-crossing probabilities from
   :mod:`repro.analytic.geometry`.  A packet arriving at a link with
   packet rate λ_l and service moments E[S], E[S^2] waits
   ``λ_l E[S^2] / 2(1 - ρ_l)``; summing over the links a route crosses
   (weighted by crossing probability) gives the expected queueing delay
   per packet.  Wormhole organizations queue at every link; the ideal
   network's header claims ``ideal_hops_per_cycle`` links at once, so it
   queues only where its cycle starts, once per that many links.  Every
   packet class pays the same wait.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, inf
from typing import Dict, Optional, Tuple

from repro.analytic.geometry import Route, Run, TrafficGeometry, geometry_for
from repro.params import PRA_HOPS_PER_CYCLE, NocKind, NocParams

#: (label, weight, flits) components of a traffic mix.
TrafficMix = Tuple[Tuple[str, float, int], ...]

#: The full-system mix: every LLC transaction is one 1-flit request and
#: one 5-flit response (coherence is negligible in the measured
#: windows, matching the simulator's per-class counts).
FULL_SYSTEM_MIX: TrafficMix = (("request", 0.5, 1), ("response", 0.5, 5))

#: The class mix :class:`~repro.workloads.synthetic.SyntheticTraffic`
#: injects under uniform random traffic.
SYNTHETIC_MIX: TrafficMix = (
    ("request", 0.55, 1),
    ("response", 0.40, 5),
    ("coherence", 0.05, 1),
)


def _mix_moments(mix: TrafficMix) -> Tuple[float, float]:
    """(E[S], E[S^2]) of the packet-size distribution, in flits."""
    e_s = sum(weight * size for _, weight, size in mix)
    e_s2 = sum(weight * size * size for _, weight, size in mix)
    return e_s, e_s2


def route_zero_load(
    kind: NocKind,
    route: Route,
    size: int,
    params: NocParams,
    announced: bool = False,
) -> float:
    """Idle-network latency of a ``size``-flit packet along ``route``
    under ``kind``'s traversal law (see the module docstring)."""
    if not route:
        return 0.0
    hops = sum(run.hops for run in route)
    if kind is NocKind.IDEAL:
        return ceil(hops / params.ideal_hops_per_cycle) + 1 + (size - 1)
    if kind is NocKind.SMART:
        hpc = params.smart.hops_per_cycle
        segments = sum(ceil(run.hops / hpc) for run in route)
        return 3 * segments + 4 + (size - 1)
    if kind is NocKind.MESH_PRA and announced:
        # Reservations age out of the table after ``horizon - max_lag``
        # hops (empirically: 12-slot horizon, max lag 4 -> onset at 9).
        overflow = max(1, params.pra.reservation_horizon
                       - params.pra.max_lag)
        return (
            sum(ceil(run.hops / PRA_HOPS_PER_CYCLE) if run.on_die
                else run.cycles for run in route)
            + 7 + 2 * max(0, hops - overflow)
        )
    # Mesh, and Mesh+PRA packets without a plan.
    return sum(run.cycles for run in route) + 3 + (size - 1)


def zero_load_latency(
    kind: NocKind,
    dx: int,
    dy: int,
    size: int = 1,
    params: Optional[NocParams] = None,
    announced: bool = False,
) -> float:
    """Exact idle-network latency for a (|dx|, |dy|) displacement: the
    law on the XY route of the flat mesh.

    Matches the simulator cycle-for-cycle on an idle 8x8 mesh for every
    organization (``tests/test_analytic.py`` pins this against
    ``zero_load_table``); the PRA ``announced`` law is exact up to the
    reservation horizon and a mild overestimate beyond it.
    """
    route = tuple(Run(n, 2 * n, True) for n in (abs(dx), abs(dy)) if n)
    return route_zero_load(kind, route, size,
                           params or NocParams(kind=kind), announced)


@lru_cache(maxsize=256)
def zero_load_mean(
    kind: NocKind, geom: TrafficGeometry, size: int,
    params: NocParams, announced: bool = False,
) -> float:
    """E over the uniform routes of :func:`route_zero_load` (memoized:
    the full-system fixed point asks for the same means every
    iteration)."""
    return sum(p * route_zero_load(kind, route, size, params, announced)
               for route, p in geom.routes)


@dataclass(frozen=True)
class NetworkPoint:
    """Model output at one (organization, injection rate) point."""

    #: Expected packet latency by mix component label (cycles).
    per_class: Dict[str, float]
    #: Mix-weighted mean packet latency (cycles; ``inf`` past
    #: saturation).
    latency: float
    #: The offered load meets the bottleneck link's flit capacity.
    saturated: bool


def predict_network(
    kind: NocKind,
    node_rate: float,
    mix: TrafficMix = FULL_SYSTEM_MIX,
    params: Optional[NocParams] = None,
) -> NetworkPoint:
    """Predicted latency at ``node_rate`` packets per node per cycle
    (post dst==src drop).  Mesh+PRA responses take the announced law."""
    if node_rate < 0.0:
        raise ValueError(f"node_rate must be >= 0, got {node_rate}")
    params = params or NocParams(kind=kind)
    geom = geometry_for(params)
    e_s, e_s2 = _mix_moments(mix)
    lam_sys = node_rate * params.num_nodes
    if lam_sys * geom.max_link_coeff * e_s >= 1.0:
        return NetworkPoint(per_class={label: inf for label, _, _ in mix},
                            latency=inf, saturated=True)
    wait = 0.0
    for q in geom.link_coeffs:
        lam_l = lam_sys * q
        rho_l = lam_l * e_s
        wait += q * (lam_l * e_s2 / (2.0 * (1.0 - rho_l)))
    if kind is NocKind.IDEAL:
        wait /= params.ideal_hops_per_cycle
    per_class = {
        label: wait + zero_load_mean(
            kind, geom, size, params,
            announced=kind is NocKind.MESH_PRA and label == "response",
        )
        for label, _, size in mix
    }
    return NetworkPoint(
        per_class=per_class,
        latency=sum(w * per_class[label] for label, w, _ in mix),
        saturated=False,
    )


def saturation_rate(
    kind: NocKind,
    mix: TrafficMix = FULL_SYSTEM_MIX,
    params: Optional[NocParams] = None,
) -> float:
    """Packets per node per cycle at which the bottleneck link's flit
    utilization reaches 1.0 (the organization-independent capacity
    bound; router inefficiencies make the measured knee land somewhat
    below it)."""
    params = params or NocParams(kind=kind)
    geom = geometry_for(params)
    e_s, _ = _mix_moments(mix)
    return 1.0 / (params.num_nodes * geom.max_link_coeff * e_s)
