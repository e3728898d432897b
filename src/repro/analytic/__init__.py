"""Closed-form queueing model of the four NoC organizations.

Following Mandal et al.'s program (PAPERS.md: analytical NoC performance
from a per-router queueing decomposition, no simulation), this package
maps (topology, organization, injection parameters) to predicted
per-hop contention, packet latency, and saturation throughput — pure
Python, deterministic, microseconds per evaluation.  The model checks
the simulator; no figure is ever served from it.  Its consumer is
:func:`repro.analytic.validate.validate_grid`, the model-vs-sim error
report behind ``python -m repro figures --only analytic`` (gated in CI
against the committed margins); the chiplet figure also prints its
modeled columns beside the simulated ones.

See docs/performance.md ("The analytical model") for the model's
assumptions and the error-margin policy.
"""

from repro.analytic.geometry import TrafficGeometry
from repro.analytic.queueing import (
    FULL_SYSTEM_MIX,
    SYNTHETIC_MIX,
    NetworkPoint,
    TrafficMix,
    predict_network,
    saturation_rate,
    zero_load_latency,
)
from repro.analytic.system import CellPrediction, predict_cell
from repro.analytic.validate import (
    IPC_ERROR_MARGIN,
    LATENCY_ERROR_MARGIN,
    CellValidation,
    ChipletValidation,
    ValidationReport,
    validate_chiplet,
    validate_grid,
)

__all__ = [
    "CellPrediction",
    "CellValidation",
    "ChipletValidation",
    "FULL_SYSTEM_MIX",
    "IPC_ERROR_MARGIN",
    "LATENCY_ERROR_MARGIN",
    "NetworkPoint",
    "SYNTHETIC_MIX",
    "TrafficGeometry",
    "TrafficMix",
    "ValidationReport",
    "predict_cell",
    "predict_network",
    "saturation_rate",
    "validate_chiplet",
    "validate_grid",
    "zero_load_latency",
]
