"""The queueing layer: zero-load laws + per-link contention.

Two ingredients, per Mandal et al.'s decomposition (PAPERS.md):

1. **Zero-load latency** — each organization's traversal law, exact per
   (dx, dy, packet size).  These are calibrated against (and tested
   bit-for-bit against) the cycle-accurate simulator on an idle mesh:

   * mesh: 2 cycles/hop (link + router) + 3 cycles of NI/ejection
     overhead + (size-1) serialization;
   * SMART: 3 cycles per straight segment of <= HPC_max tiles (bypass
     setup + traversal), XY turns break segments;
   * ideal: ceil(hops/2) wire-limited cycles + 1 + serialization;
   * mesh+PRA announced responses: the pre-allocated path advances 2
     tiles/cycle, overlapping serialization with traversal — a constant
     7-cycle envelope over the segment count, plus a 2-cycles/hop
     penalty for hops beyond the reservation horizon (long routes
     outrun the table and fall back to cycle-by-cycle allocation).

2. **Waiting time** — an M/G/1 approximation per directed link, driven
   by the exact link-crossing probabilities from
   :mod:`repro.analytic.geometry`.  A packet arriving at a link with
   packet rate λ_l and service moments E[S], E[S^2] waits
   ``λ_l E[S^2] / 2(1 - ρ_l)``; summing over the links a route crosses
   (weighted by crossing probability) gives the expected queueing delay
   per packet.  Wormhole flow control with per-class VCs blocks *less*
   than a single FIFO, so the sum is scaled by a per-organization
   calibration factor fit once against low-load simulator runs (the
   validation harness keeps the fit honest).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from typing import Dict, Optional, Tuple

from repro.analytic.geometry import TrafficGeometry, geometry_for
from repro.params import PRA_HOPS_PER_CYCLE, NocKind, NocParams
from repro.workloads.synthetic import TrafficPattern

#: (label, weight, flits) components of a traffic mix.
TrafficMix = Tuple[Tuple[str, float, int], ...]

#: The full-system mix: every LLC transaction is one 1-flit request and
#: one 5-flit response (coherence is negligible in the measured
#: windows, matching the simulator's per-class counts).
FULL_SYSTEM_MIX: TrafficMix = (("request", 0.5, 1), ("response", 0.5, 5))

#: VC/wormhole correction to the single-FIFO M/G/1 waiting time, fit
#: against cycle-accurate evaluation-grid runs (see
#: docs/performance.md).  Wormhole routers with per-class VCs block
#: less than one shared FIFO, so the base factor is < 1 for the mesh
#: variants; the ideal fabric only contends at injection/ejection.
_WAIT_CALIBRATION = {
    NocKind.MESH: 0.75,
    NocKind.SMART: 0.95,
    NocKind.MESH_PRA: 1.35,
    NocKind.IDEAL: 0.50,
}

#: Fraction of PRA responses that begin traversal with a live plan
#: (the simulator reports ~0.9 across workloads; dropped plans fall
#: back to mesh timing).
PRA_PLANNED_FRACTION = 0.90

#: Planned packets pre-allocated end-to-end still absorb a share of the
#: congestion (injection conflicts, reservation lag); requests on the
#: PRA data network queue slightly *longer* than plain mesh because
#: they yield to reserved slots.
_PRA_PLANNED_WAIT_SHARE = 0.30
_PRA_REQUEST_WAIT_SCALE = 1.30


def synthetic_mix(pattern: TrafficPattern,
                  response_size: int = 5) -> TrafficMix:
    """The class mix :class:`SyntheticTraffic` injects for ``pattern``."""
    if pattern is TrafficPattern.REQUEST_REPLY:
        return (("request", 0.5, 1), ("response", 0.5, response_size))
    return (
        ("request", 0.55, 1),
        ("response", 0.40, 5),
        ("coherence", 0.05, 1),
    )


def _mix_moments(mix: TrafficMix) -> Tuple[float, float]:
    """(E[S], E[S^2]) of the packet-size distribution, in flits."""
    e_s = sum(weight * size for _, weight, size in mix)
    e_s2 = sum(weight * size * size for _, weight, size in mix)
    return e_s, e_s2


def zero_load_latency(
    kind: NocKind,
    dx: int,
    dy: int,
    size: int = 1,
    params: Optional[NocParams] = None,
    announced: bool = False,
) -> float:
    """Exact idle-network latency for a (|dx|, |dy|) displacement.

    Matches the simulator cycle-for-cycle on an idle 8x8 mesh for every
    organization (``tests/test_analytic.py`` pins this against
    ``zero_load_table``); the PRA ``announced`` law is exact up to the
    reservation horizon and a mild overestimate beyond it.
    """
    params = params or NocParams(kind=kind)
    dx, dy = abs(dx), abs(dy)
    hops = dx + dy
    if hops == 0:
        return 0.0
    if kind is NocKind.IDEAL:
        return ceil(hops / params.ideal_hops_per_cycle) + 1 + (size - 1)
    if kind is NocKind.SMART:
        hpc = params.smart.hops_per_cycle
        segments = ceil(dx / hpc) + ceil(dy / hpc)
        return 3 * segments + 4 + (size - 1)
    if kind is NocKind.MESH_PRA and announced:
        segments = (ceil(dx / PRA_HOPS_PER_CYCLE)
                    + ceil(dy / PRA_HOPS_PER_CYCLE))
        horizon = params.pra.reservation_horizon - params.pra.max_lag
        return segments + 7.0 + 2 * max(0, hops - horizon)
    # Mesh, and mesh+PRA packets without a plan.
    return 2 * hops + 3 + (size - 1)


def _zero_load_mean(
    kind: NocKind, geom: TrafficGeometry, size: int,
    params: NocParams, announced: bool = False,
) -> float:
    """E over the pair distribution of :func:`zero_load_latency`."""
    if kind is NocKind.IDEAL:
        return geom.e_ceil_half_hops + 1 + (size - 1)
    if kind is NocKind.SMART:
        return 3 * geom.e_segments + 4 + (size - 1)
    if kind is NocKind.MESH_PRA and announced:
        return geom.e_pra_hops + 7.0
    # Mesh law, generalized: each hop costs its link latency (2 on the
    # mesh — identical to the historical 2*e_hops — and the configured
    # interposer latency on chiplet crossings).
    return geom.e_lat_hops + 3 + (size - 1)


@dataclass(frozen=True)
class NetworkPoint:
    """Model output at one (organization, injection rate) point."""

    kind: NocKind
    #: Packets injected per node per cycle (post dst==src drop).
    node_rate: float
    #: Expected packet latency by mix component label (cycles).
    per_class: Dict[str, float]
    #: Mix-weighted mean packet latency (cycles; ``inf`` past
    #: saturation).
    latency: float
    #: Expected queueing delay per packet (cycles).
    mean_wait: float
    #: Flit utilization of the most loaded link (>= 1 means the offered
    #: load exceeds the bottleneck link's capacity).
    max_util: float
    saturated: bool


def predict_network(
    kind: NocKind,
    node_rate: float,
    mix: TrafficMix = FULL_SYSTEM_MIX,
    params: Optional[NocParams] = None,
    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    hotspot_nodes: Optional[Tuple[int, ...]] = None,
) -> NetworkPoint:
    """Predicted latency at ``node_rate`` packets per node per cycle."""
    if node_rate < 0.0:
        raise ValueError(f"node_rate must be >= 0, got {node_rate}")
    params = params or NocParams(kind=kind)
    geom = geometry_for(params, pattern, hotspot_nodes)
    e_s, e_s2 = _mix_moments(mix)
    lam_sys = node_rate * params.num_nodes
    max_util = lam_sys * geom.max_link_coeff * e_s
    saturated = max_util >= 1.0
    if saturated:
        wait = inf
    else:
        wait = 0.0
        for q in geom.link_coeffs:
            lam_l = lam_sys * q
            rho_l = lam_l * e_s
            wait += q * (lam_l * e_s2 / (2.0 * (1.0 - rho_l)))
        wait *= _WAIT_CALIBRATION[kind]
    per_class: Dict[str, float] = {}
    for label, _, size in mix:
        zero = _zero_load_mean(kind, geom, size, params)
        if saturated:
            per_class[label] = inf
        elif kind is NocKind.MESH_PRA and label == "response":
            planned = (
                _zero_load_mean(kind, geom, size, params, announced=True)
                + _PRA_PLANNED_WAIT_SHARE * wait
            )
            per_class[label] = (
                PRA_PLANNED_FRACTION * planned
                + (1.0 - PRA_PLANNED_FRACTION) * (zero + wait)
            )
        elif kind is NocKind.MESH_PRA and label == "request":
            per_class[label] = zero + _PRA_REQUEST_WAIT_SCALE * wait
        else:
            per_class[label] = zero + wait
    latency = (
        inf if saturated
        else sum(w * per_class[label] for label, w, _ in mix)
    )
    return NetworkPoint(
        kind=kind,
        node_rate=node_rate,
        per_class=per_class,
        latency=latency,
        mean_wait=wait,
        max_util=max_util,
        saturated=saturated,
    )


def saturation_rate(
    kind: NocKind,
    mix: TrafficMix = FULL_SYSTEM_MIX,
    params: Optional[NocParams] = None,
    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    hotspot_nodes: Optional[Tuple[int, ...]] = None,
) -> float:
    """Packets per node per cycle at which the bottleneck link's flit
    utilization reaches 1.0 (the organization-independent capacity
    bound; router inefficiencies make the measured knee land somewhat
    below it, which is what the bisection search refines)."""
    params = params or NocParams(kind=kind)
    geom = geometry_for(params, pattern, hotspot_nodes)
    e_s, _ = _mix_moments(mix)
    return 1.0 / (params.num_nodes * geom.max_link_coeff * e_s)
