"""The analytic pre-screen: which grid cells skip simulation.

Two modes (:attr:`repro.config.RunConfig.analytic`, from the
``REPRO_ANALYTIC`` variable or the ``analytic=`` argument to
:func:`repro.harness.runner.evaluation_grid`, which wins):

* ``off`` (default) — every cell is simulated; the model is not
  consulted.
* ``prune`` — cells the model decides *with high confidence* are served
  analytically: deep-unsaturated cells (bottleneck-link utilization at
  the closed-loop fixed point below ``RunConfig.analytic_util``, where
  the CI-gated validation margin holds) and deep-saturated cells
  (utilization beyond ``SATURATED_MIN_UTIL``, where simulation would
  only measure the same capacity wall slowly).  Everything in the
  contested band between them is simulated.

Pruned cells are marked ``PerfSample.analytic`` and are counted on
``grid_stats`` (``analytic_cells`` vs ``simulated_cells`` in
``grid_stats.summary()``); they are never written to a cell store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytic.system import CellPrediction, predict_cell
from repro.config import PRUNE_MAX_UTIL
from repro.params import NocKind
from repro.perf.system import PerfSample

#: Deep-saturated bound: offered load this far past the capacity wall
#: pins the answer ("saturated") without a cycle-accurate run.
SATURATED_MIN_UTIL = 1.25


@dataclass(frozen=True)
class ScreenDecision:
    """Verdict on one (workload, organization) cell."""

    workload: str
    kind: NocKind
    prediction: CellPrediction
    prune: bool
    #: "deep-unsaturated" | "deep-saturated" | "contested"
    reason: str

    def sample(self, measure: int) -> PerfSample:
        """The analytic sample standing in for one seed's simulation."""
        return self.prediction.sample(measure)


def screen_cell(workload: str, kind: NocKind,
                max_util: float = PRUNE_MAX_UTIL) -> ScreenDecision:
    """Decide whether the model may serve this cell (``max_util`` is
    the deep-unsaturated bound, ``RunConfig.analytic_util`` in a sweep).

    The confidence policy is utilization-based: the model's error is
    validated (and CI-gated) in the low-utilization regime, so only
    cells whose closed-loop fixed point lands well inside it — or so
    far past the capacity wall that the verdict cannot flip — are
    pruned.
    """
    prediction = predict_cell(workload, kind)
    util = prediction.max_util
    if util <= max_util:
        return ScreenDecision(workload, kind, prediction, True,
                              "deep-unsaturated")
    if util >= SATURATED_MIN_UTIL:
        return ScreenDecision(workload, kind, prediction, True,
                              "deep-saturated")
    return ScreenDecision(workload, kind, prediction, False, "contested")
