"""Closed-form queueing model of the four NoC organizations.

Following Mandal et al.'s program (PAPERS.md: analytical NoC performance
from a per-router queueing decomposition, no simulation), this package
maps (topology, organization, injection parameters) to predicted
per-hop contention, packet latency, and saturation throughput — pure
Python, deterministic, microseconds per evaluation.  Three consumers:

* :func:`repro.analytic.screen.screen_cell` — the ``REPRO_ANALYTIC``
  pre-screen that lets :func:`repro.harness.runner.evaluation_grid`
  serve deep-unsaturated cells analytically instead of simulating them;
* :func:`repro.analytic.saturation.find_saturation` — the bisection
  saturation search behind ``python -m repro saturate``, warm-started
  from the model's estimate;
* :func:`repro.analytic.validate.validate_grid` — the model-vs-sim
  error report behind ``python -m repro analytic --validate`` (gated in
  CI so the pruning margin stays honest).

See docs/performance.md ("The analytical fast path") for the model's
assumptions and the error-margin policy.
"""

from repro.analytic.geometry import TrafficGeometry
from repro.analytic.queueing import (
    FULL_SYSTEM_MIX,
    NetworkPoint,
    TrafficMix,
    predict_network,
    saturation_rate,
    synthetic_mix,
    zero_load_latency,
)
from repro.analytic.saturation import SaturationResult, find_saturation
from repro.analytic.screen import ScreenDecision, screen_cell
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
    "SaturationResult",
    "ScreenDecision",
    "TrafficGeometry",
    "TrafficMix",
    "ValidationReport",
    "find_saturation",
    "predict_cell",
    "predict_network",
    "saturation_rate",
    "screen_cell",
    "synthetic_mix",
    "validate_chiplet",
    "validate_grid",
    "zero_load_latency",
]
