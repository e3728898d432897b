"""Model-vs-simulation validation: the model's honesty check.

``python -m repro figures --only analytic`` (and the CI ``analytic-smoke``
job) runs the cycle-accurate evaluation grid, asks the model for the
same cells, and reports the per-cell relative latency and IPC error.
:data:`LATENCY_ERROR_MARGIN` is the committed bound: validation fails
(CI goes red) the moment a model change or a simulator change pushes
any cell past it, so the model cannot drift from the simulator it
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.analytic.system import predict_cell
from repro.params import NocKind

#: Committed relative-error bound on per-cell mean packet latency at
#: the paper's operating points.  Measured at smoke and default scales
#: across all 24 cells; see docs/performance.md ("The analytical model")
#: for the re-validation policy and where the worst errors are recorded.
LATENCY_ERROR_MARGIN = 0.12

#: IPC tracks latency through the closed loop but is additionally
#: damped by compute cycles, so its bound is tighter.
IPC_ERROR_MARGIN = 0.08


@dataclass(frozen=True)
class CellValidation:
    """One grid cell's model-vs-sim comparison."""

    workload: str
    kind: NocKind
    simulated_latency: float
    predicted_latency: float
    simulated_ipc: float
    predicted_ipc: float

    @property
    def latency_error(self) -> float:
        if not self.simulated_latency:
            return 0.0
        return abs(self.predicted_latency - self.simulated_latency) \
            / self.simulated_latency

    @property
    def ipc_error(self) -> float:
        if not self.simulated_ipc:
            return 0.0
        return abs(self.predicted_ipc - self.simulated_ipc) \
            / self.simulated_ipc


@dataclass(frozen=True)
class ValidationReport:
    """All cells' comparisons plus the pass/fail verdict."""

    entries: Tuple[CellValidation, ...]
    margin: float = LATENCY_ERROR_MARGIN
    ipc_margin: float = IPC_ERROR_MARGIN

    @property
    def max_latency_error(self) -> float:
        return max((e.latency_error for e in self.entries), default=0.0)

    @property
    def max_ipc_error(self) -> float:
        return max((e.ipc_error for e in self.entries), default=0.0)

    @property
    def worst(self) -> Optional[CellValidation]:
        return max(self.entries, key=lambda e: e.latency_error,
                   default=None)

    @property
    def ok(self) -> bool:
        return (self.max_latency_error <= self.margin
                and self.max_ipc_error <= self.ipc_margin)


@dataclass(frozen=True)
class ChipletValidation:
    """One chiplet topology/kind cell: model vs a synthetic sim."""

    topology: str
    kind: NocKind
    simulated_latency: float
    predicted_latency: float

    @property
    def latency_error(self) -> float:
        if not self.simulated_latency:
            return 0.0
        return abs(self.predicted_latency - self.simulated_latency) \
            / self.simulated_latency


def validate_chiplet(
    specs: Tuple[str, ...] = ("chiplet:2x2x4x4", "chiplet:2x2x4x4:star"),
    rate: float = 0.005,
    cycles: int = 2000,
    seed: int = 5,
) -> Tuple[ChipletValidation, ...]:
    """Check the hierarchical zero-load laws against the simulator.

    Runs each chiplet spec at a deep-unsaturated rate under the mesh
    and ideal organizations and compares mean network latency against
    :func:`repro.analytic.queueing.predict_network` on the
    route-enumerated chiplet geometry.  Entries are judged against
    :data:`LATENCY_ERROR_MARGIN` like the grid cells.
    """
    from repro.analytic.queueing import SYNTHETIC_MIX, predict_network
    from repro.noc.network import build_network
    from repro.params import NocParams
    from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

    entries = []
    for spec in specs:
        for kind in (NocKind.MESH, NocKind.IDEAL):
            params = NocParams(kind=kind, topology=spec)
            net = build_network(params)
            traffic = SyntheticTraffic(
                net, TrafficPattern.UNIFORM_RANDOM, rate, seed=seed
            )
            traffic.run(cycles)
            net.drain()
            sim = net.stats.summary()["avg_network_latency"]
            pred = predict_network(kind, rate, SYNTHETIC_MIX,
                                   params=params).latency
            entries.append(ChipletValidation(
                topology=spec, kind=kind,
                simulated_latency=sim, predicted_latency=pred,
            ))
    return tuple(entries)


def validate_grid(
    scale=None,
    workloads: Optional[Iterable[str]] = None,
    kinds: Optional[Iterable[NocKind]] = None,
    config=None,
) -> ValidationReport:
    """Compare the model against the simulated grid.

    Honors the usual grid machinery — scales, the cell store, worker
    pools — so a validation after ``figures`` simulates nothing new.
    """
    from repro.harness.runner import ALL_KINDS, evaluation_grid
    from repro.workloads.profiles import WORKLOAD_NAMES

    workloads = tuple(workloads) if workloads is not None else WORKLOAD_NAMES
    kinds = tuple(kinds) if kinds is not None else ALL_KINDS
    grid = evaluation_grid(workloads, kinds, scale, config=config)
    entries = []
    for workload in workloads:
        for kind in kinds:
            sample = grid.get((workload, kind))
            if sample is None:  # quarantined cell; nothing to compare
                continue
            prediction = predict_cell(workload, kind)
            entries.append(CellValidation(
                workload=workload,
                kind=kind,
                simulated_latency=sample.avg_network_latency,
                predicted_latency=prediction.avg_network_latency,
                simulated_ipc=sample.ipc,
                predicted_ipc=prediction.ipc,
            ))
    return ValidationReport(entries=tuple(entries))
