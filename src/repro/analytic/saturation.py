"""Model-seeded bisection search for the saturation injection rate.

``python -m repro saturate`` locates the Bernoulli injection rate at
which a bare network saturates, by bisection over cycle-accurate probe
runs.  The analytic model supplies the starting bracket: the capacity
bound from :func:`repro.analytic.queueing.saturation_rate` pins the
knee to within a few tens of percent, so a *warm* search opens a narrow
bracket around it instead of cold-scanning from zero — typically
halving the number of probe simulations (the result records the exact
count).

A probe run is judged *saturated* when either

* the mean latency of packets delivered in the window exceeds
  ``threshold`` times the model's zero-load latency (the classic
  load-latency knee), or
* fewer than :data:`MIN_DELIVERED_FRACTION` of offered packets are
  delivered (the backlog is growing without bound, which biases the
  delivered-packet latency low — this catches deep saturation that the
  latency test alone would miss in short windows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analytic.queueing import (
    predict_network,
    saturation_rate,
    synthetic_mix,
)
from repro.params import NocKind, NocParams
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

#: Below this delivered/offered ratio a probe window is saturated
#: regardless of the (survivor-biased) delivered-packet latency.
MIN_DELIVERED_FRACTION = 0.75

#: Warm bracket half-widths around the model estimate, as fractions of
#: the estimate.  Deliberately asymmetric: routers saturate *below* the
#: pure link-capacity bound, never above it.
_WARM_LO = 0.45
_WARM_HI = 1.05


@dataclass(frozen=True)
class SaturationPoint:
    """One cycle-accurate probe of the load-latency curve."""

    rate: float
    latency: float
    delivered_fraction: float
    saturated: bool


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of one saturation search."""

    kind: NocKind
    pattern: TrafficPattern
    #: The model's capacity bound, in Bernoulli injection-rate units.
    model_estimate: float
    #: The bisected measured saturation rate (bracket midpoint).
    measured: float
    #: Final bisection bracket (lo unsaturated, hi saturated).
    bracket: Tuple[float, float]
    #: The model's zero-load mean latency used for the knee test.
    zero_load_latency: float
    threshold: float
    points: Tuple[SaturationPoint, ...]

    @property
    def simulated_points(self) -> int:
        return len(self.points)

    @property
    def model_error(self) -> float:
        """Relative error of the model estimate vs. the measured knee."""
        if not self.measured:
            return 0.0
        return abs(self.model_estimate - self.measured) / self.measured


def measure_point(
    kind: NocKind,
    rate: float,
    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    params: Optional[NocParams] = None,
    cycles: int = 2000,
    seed: int = 1,
    threshold: float = 3.0,
    zero_load: Optional[float] = None,
    hotspot_nodes: Optional[Tuple[int, ...]] = None,
    response_size: int = 5,
) -> SaturationPoint:
    """Run one probe window and classify it (see module docstring)."""
    from repro.noc.network import build_network

    params = params or NocParams(kind=kind)
    if zero_load is None:
        zero_load = predict_network(
            kind, 0.0, synthetic_mix(pattern, response_size), params,
            pattern, hotspot_nodes,
        ).latency
    net = build_network(params)
    traffic = SyntheticTraffic(
        net, pattern, rate, seed=seed,
        hotspot_nodes=list(hotspot_nodes) if hotspot_nodes else None,
        response_size=response_size,
    )
    traffic.run(cycles)
    latency = net.stats.avg_network_latency
    delivered = (
        net.stats.packets_ejected / traffic.offered
        if traffic.offered else 1.0
    )
    saturated = (
        latency > threshold * zero_load
        or delivered < MIN_DELIVERED_FRACTION
    )
    return SaturationPoint(
        rate=rate,
        latency=latency,
        delivered_fraction=delivered,
        saturated=saturated,
    )


def find_saturation(
    kind: NocKind,
    pattern: TrafficPattern = TrafficPattern.UNIFORM_RANDOM,
    params: Optional[NocParams] = None,
    cycles: int = 2000,
    seed: int = 1,
    threshold: float = 3.0,
    tolerance: float = 0.002,
    hotspot_nodes: Optional[Tuple[int, ...]] = None,
    response_size: int = 5,
) -> SaturationResult:
    """Bisect the saturation Bernoulli injection rate for ``kind``,
    from a bracket around the analytic capacity bound."""
    params = params or NocParams(kind=kind)
    mix = synthetic_mix(pattern, response_size)
    zero_load = predict_network(
        kind, 0.0, mix, params, pattern, hotspot_nodes,
    ).latency
    # The model works in delivered packets/node/cycle; Bernoulli rate is
    # per-draw.  inject_ratio discounts dst==src drops, and REQUEST_REPLY
    # doubles the packet count via replies.
    from repro.analytic.geometry import geometry_for

    geom = geometry_for(params, pattern, hotspot_nodes)
    per_draw = geom.inject_ratio * (
        2.0 if pattern is TrafficPattern.REQUEST_REPLY else 1.0
    )
    estimate = min(1.0, saturation_rate(
        kind, mix, params, pattern, hotspot_nodes,
    ) / per_draw)

    points: List[SaturationPoint] = []

    def probe(rate: float) -> bool:
        point = measure_point(
            kind, rate, pattern, params, cycles, seed, threshold,
            zero_load, hotspot_nodes, response_size,
        )
        points.append(point)
        return point.saturated

    lo = _WARM_LO * estimate
    hi = min(1.0, _WARM_HI * estimate)
    # Repair the bracket if the model missed: walk lo down until it is
    # unsaturated, hi up until it is saturated.
    while lo > tolerance and probe(lo):
        hi = lo
        lo *= 0.5
    while hi < 1.0 and not probe(hi):
        lo = hi
        hi = min(1.0, hi * 1.5)

    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid

    return SaturationResult(
        kind=kind,
        pattern=pattern,
        model_estimate=estimate,
        measured=0.5 * (lo + hi),
        bracket=(lo, hi),
        zero_load_latency=zero_load,
        threshold=threshold,
        points=tuple(points),
    )
