"""Tests for the analytic queueing model (repro.analytic).

Three layers: the queueing model itself (zero-load laws, monotonicity,
saturation), its validation against the simulated grid (the committed
margins), and the grid's promise that the model never serves a cell
(store-key regression, the stored-cell format, the refused prune mode).
"""

import json

import pytest

from repro.analytic import (
    IPC_ERROR_MARGIN,
    LATENCY_ERROR_MARGIN,
    CellValidation,
    ValidationReport,
    find_saturation,
    predict_cell,
    predict_network,
    saturation_rate,
    synthetic_mix,
    zero_load_latency,
)
from repro.analytic.geometry import geometry_for
from repro.analytic.queueing import _zero_load_mean
from repro.analytic.saturation import measure_point
from repro.analytic.system import clear_prediction_cache
from repro.checkpoint.store import CellStore, cell_key
from repro.harness.figures import zero_load_table
from repro.harness.runner import (
    ALL_KINDS,
    EvaluationScale,
    clear_grid_cache,
    evaluation_grid,
    grid_stats,
)
from repro.params import NocKind, NocParams, PraParams, SmartParams
from repro.workloads.synthetic import TrafficPattern

TINY = EvaluationScale("tiny", warmup=150, measure=700, num_seeds=1)


class TestZeroLoad:
    def test_matches_simulated_zero_load_table(self):
        """The closed-form laws must equal the cycle-accurate simulator
        on an idle mesh, hop for hop (the same oracle zero_load_table
        renders; Mesh+PRA's column is an announced 5-flit response)."""
        table = zero_load_table(max_hops=4)
        for row in table["rows"]:
            hops = row[0]
            for offset, kind in enumerate(ALL_KINDS, start=1):
                predicted = zero_load_latency(
                    kind, hops, 0,
                    size=5 if kind is NocKind.MESH_PRA else 1,
                    announced=kind is NocKind.MESH_PRA,
                )
                assert predicted == row[offset], (kind, hops)

    def test_zero_hops_is_free(self):
        for kind in ALL_KINDS:
            assert zero_load_latency(kind, 0, 0) == 0.0


@pytest.mark.parametrize("kind,announced,overrides", [
    (NocKind.SMART, False, {"smart": SmartParams(hops_per_cycle=1)}),
    (NocKind.SMART, False, {"smart": SmartParams(hops_per_cycle=2)}),
    (NocKind.MESH_PRA, True, {"pra": PraParams(hops_per_cycle=1)}),
    (NocKind.MESH_PRA, True, {"pra": PraParams(hops_per_cycle=2)}),
    (NocKind.IDEAL, False, {"ideal_hops_per_cycle": 1}),
    (NocKind.IDEAL, False, {"ideal_hops_per_cycle": 2}),
    (NocKind.IDEAL, False, {"ideal_hops_per_cycle": 3}),
], ids=["smart-1", "smart-2", "pra-1", "pra-2",
        "ideal-1", "ideal-2", "ideal-3"])
def test_mean_law_is_the_pair_mean_of_the_point_law(kind, announced,
                                                    overrides):
    """The mean zero-load law honours the hops-per-cycle parameters the
    point law does: under uniform traffic it is the plain average of
    ``zero_load_latency`` over all (src, dst) pairs."""
    params = NocParams(kind=kind, **overrides)
    width, nodes = params.mesh_width, params.num_nodes
    pairs = [(src, dst) for src in range(nodes) for dst in range(nodes)
             if src != dst]
    exact = sum(
        zero_load_latency(kind, src % width - dst % width,
                          src // width - dst // width, 1, params, announced)
        for src, dst in pairs
    ) / len(pairs)
    mean = _zero_load_mean(kind, geometry_for(params), 1, params, announced)
    assert mean == pytest.approx(exact, abs=1e-9)


def test_geometry_aggregates_are_pinned():
    """One route-walking enumerator serves every topology; these are
    the values the mesh-only and the generic enumerators it replaced
    produced (exact float equality)."""
    mesh = geometry_for(NocParams())
    assert (mesh.e_hops, mesh.e_lat_hops, mesh.e_ceil_half_hops,
            mesh.max_link_coeff, len(mesh.link_coeffs),
            mesh.e_segments, mesh.e_pra_hops) == (
        5.333333333333334, 10.666666666666668, 2.9206349206349875,
        0.03174603174603166, 224, 3.1746031746032424, 3.674603174603201)
    chiplet = geometry_for(NocParams(topology="chiplet:2x2x4x4"))
    assert (chiplet.e_hops, chiplet.e_lat_hops, chiplet.e_ceil_half_hops,
            chiplet.max_link_coeff, len(chiplet.link_coeffs)) == (
        4.6984126984127155, 11.42857142857135, 2.6031746031746215,
        0.12698412698412656, 200)


class TestPredictNetwork:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_latency_monotonic_in_rate(self, kind):
        cap = saturation_rate(kind)
        rates = [cap * f for f in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)]
        latencies = [predict_network(kind, r).latency for r in rates]
        for lo, hi in zip(latencies, latencies[1:]):
            assert hi >= lo

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_load_convergence(self, kind):
        """As the rate goes to zero the contention term vanishes and
        the prediction converges to the zero-load mean."""
        idle = predict_network(kind, 0.0)
        assert idle.mean_wait == 0.0
        nearly = predict_network(kind, 1e-6 * saturation_rate(kind))
        assert nearly.latency == pytest.approx(idle.latency, rel=1e-3)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_saturated_past_capacity(self, kind):
        point = predict_network(kind, 1.01 * saturation_rate(kind))
        assert point.saturated
        assert point.latency == float("inf")

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            predict_network(NocKind.MESH, -0.1)

    def test_synthetic_mix_shapes(self):
        rr = synthetic_mix(TrafficPattern.REQUEST_REPLY, response_size=3)
        assert sum(w for _, w, _ in rr) == pytest.approx(1.0)
        assert ("response", 0.5, 3) in rr
        ur = synthetic_mix(TrafficPattern.UNIFORM_RANDOM)
        assert sum(w for _, w, _ in ur) == pytest.approx(1.0)


class TestPredictCell:
    def test_ideal_beats_mesh(self):
        """The paper's headline ordering must survive the model."""
        for workload in ("Web Search", "Data Serving"):
            mesh = predict_cell(workload, NocKind.MESH)
            ideal = predict_cell(workload, NocKind.IDEAL)
            assert ideal.ipc > mesh.ipc
            assert ideal.avg_network_latency < mesh.avg_network_latency

    def test_agrees_with_simulation_within_margin(self):
        """The documented contract: every organization's model error on
        a cycle-accurate smoke-scale run stays inside the committed
        validation margins (full-grid coverage runs in the CI
        analytic-smoke job; one workload keeps this tier-1 test
        affordable)."""
        clear_grid_cache()
        smoke = EvaluationScale("smoke", warmup=300, measure=1500,
                                num_seeds=1)
        grid = evaluation_grid(("Web Search",), ALL_KINDS, smoke,
                               store=None)
        for kind in ALL_KINDS:
            sample = grid[("Web Search", kind)]
            prediction = predict_cell("Web Search", kind)
            lat_err = abs(prediction.avg_network_latency
                          - sample.avg_network_latency) \
                / sample.avg_network_latency
            ipc_err = abs(prediction.ipc - sample.ipc) / sample.ipc
            assert lat_err <= LATENCY_ERROR_MARGIN, (kind, lat_err)
            assert ipc_err <= IPC_ERROR_MARGIN, (kind, ipc_err)
        clear_grid_cache()


class TestGridStoreKey:
    """Regression: a sweep reads only the store it is given — two
    sweeps against different stores are different computations, so
    store B must not be served store A's cell."""

    def test_cache_distinguishes_stores(self, tmp_path):
        clear_grid_cache()
        cells = (("Web Search",), (NocKind.MESH,))
        key = ("Web Search", NocKind.MESH)
        store_a = CellStore(str(tmp_path / "a"))
        store_b = CellStore(str(tmp_path / "b"))
        hits = grid_stats.grid_cache_hits
        grid_a = evaluation_grid(*cells, TINY, store=store_a)
        grid_a_again = evaluation_grid(*cells, TINY, store=store_a)
        assert grid_stats.grid_cache_hits == hits + 1  # A served its cell
        grid_b = evaluation_grid(*cells, TINY, store=store_b)
        assert len(store_b) == 1  # B really ran and persisted its cell
        # The process store holds neither disk store's cell.
        grid_none = evaluation_grid(*cells, TINY, store=None)
        assert grid_stats.grid_cache_hits == hits + 1
        for grid in (grid_a_again, grid_b, grid_none):
            assert grid[key].to_state() == grid_a[key].to_state()
        clear_grid_cache()

class TestEveryCellSimulated:
    """The model never stands in for a grid cell, and removing the
    prune mode left the stored-cell format byte-identical."""

    #: A cell state as it was stored while grid pruning existed: the
    #: ``analytic`` key included, in ``to_state``'s key order.
    STORED = {
        "workload": "Web Search", "noc_kind": "mesh",
        "instructions": 27181, "cycles": 700, "packets": 1712,
        "avg_network_latency": 18.25, "avg_transaction_latency": 18.25,
        "control_packets": 0, "control_per_data": 0.0,
        "lag_distribution": [], "pra_blocked_fraction": 0.0,
        "flits_delivered": 5012, "total_hops": 9140,
        "packets_unfinished": 3, "timed_out": False, "analytic": False,
    }

    def test_stored_cell_is_a_hit_and_round_trips_bytewise(self, tmp_path):
        from repro.harness.runner import _cell_payload
        from repro.perf.system import PerfSample

        cell = ("Web Search", NocKind.MESH, TINY.warmup, TINY.measure, 1)
        store = CellStore(str(tmp_path / "cells"))
        store.put(cell_key(_cell_payload(cell)), {"sample": self.STORED})
        hits = grid_stats.grid_cache_hits
        grid = evaluation_grid(("Web Search",), (NocKind.MESH,), TINY,
                               store=store)
        assert grid_stats.grid_cache_hits == hits + 1
        sample = grid[("Web Search", NocKind.MESH)]
        assert json.dumps(sample.to_state()) == json.dumps(self.STORED)
        again = PerfSample.from_state(self.STORED).to_state()
        assert json.dumps(again) == json.dumps(self.STORED)

    def test_prune_mode_is_refused(self):
        with pytest.raises(ValueError, match="pruning was removed"):
            evaluation_grid(("Web Search",), (NocKind.MESH,), TINY,
                            store=None, analytic="prune")


class TestBaselineGuard:
    """Satellite regression: normalizing to a missing mesh baseline
    must fail loudly at the figure, naming the cell, not as a bare
    KeyError deep inside."""

    def test_missing_mesh_cell_raises_clear_error(self):
        from repro.harness.figures import (MissingCellError,
                                           _normalized_performance)

        clear_grid_cache()
        with pytest.raises(MissingCellError, match="Web Search/mesh "):
            _normalized_performance(
                ("Web Search",), (NocKind.IDEAL,), TINY,
            )
        clear_grid_cache()


class TestValidationReport:
    def _entry(self, lat_err=0.0, ipc_err=0.0):
        return CellValidation(
            workload="Web Search", kind=NocKind.MESH,
            simulated_latency=20.0,
            predicted_latency=20.0 * (1 + lat_err),
            simulated_ipc=30.0, predicted_ipc=30.0 * (1 + ipc_err),
        )

    def test_errors_and_verdict(self):
        good = ValidationReport(entries=(
            self._entry(0.01), self._entry(0.05, 0.02),
        ))
        assert good.ok
        assert good.max_latency_error == pytest.approx(0.05)
        assert good.worst.latency_error == pytest.approx(0.05)
        bad = ValidationReport(entries=(
            self._entry(LATENCY_ERROR_MARGIN + 0.01),
        ))
        assert not bad.ok

    def test_empty_report_passes(self):
        report = ValidationReport(entries=())
        assert report.ok
        assert report.max_latency_error == 0.0
        assert report.worst is None

    def test_zero_reference_guard(self):
        entry = CellValidation(
            workload="w", kind=NocKind.MESH,
            simulated_latency=0.0, predicted_latency=5.0,
            simulated_ipc=0.0, predicted_ipc=5.0,
        )
        assert entry.latency_error == 0.0
        assert entry.ipc_error == 0.0


class TestSaturation:
    def test_warm_search_on_a_small_mesh(self):
        params = NocParams(kind=NocKind.MESH, mesh_width=4, mesh_height=4)
        result = find_saturation(
            NocKind.MESH, params=params, cycles=400, tolerance=0.02,
        )
        lo, hi = result.bracket
        assert 0.0 < result.measured <= 1.0
        assert lo <= result.measured <= hi
        assert hi - lo <= 0.02
        assert result.model_estimate > 0.0
        assert result.simulated_points == len(result.points) > 0
        # The knee sits below the pure link-capacity bound.
        assert result.measured <= result.model_estimate

    def test_cold_search_agrees(self):
        params = NocParams(kind=NocKind.MESH, mesh_width=4, mesh_height=4)
        warm = find_saturation(NocKind.MESH, params=params, cycles=400,
                               tolerance=0.02)

        def saturated(rate):
            return measure_point(
                NocKind.MESH, rate, params=params, cycles=400,
                zero_load=warm.zero_load_latency,
            ).saturated

        # The cold reference: a geometric scan up from 1 % load, then the
        # same bisection.
        lo, rate = 0.0, 0.01
        while rate < 1.0 and not saturated(rate):
            lo, rate = rate, rate * 2.0
        hi = min(1.0, rate)
        while hi - lo > 0.02:
            mid = 0.5 * (lo + hi)
            if saturated(mid):
                hi = mid
            else:
                lo = mid
        # Identical probes, identical classifier: the two searches must
        # land in overlapping brackets.
        assert abs(warm.measured - 0.5 * (lo + hi)) <= 0.04


def teardown_module() -> None:
    clear_prediction_cache()
    clear_grid_cache()
