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
    SYNTHETIC_MIX,
    ValidationReport,
    predict_cell,
    predict_network,
    saturation_rate,
    zero_load_latency,
)
from repro.analytic.geometry import geometry_for, route_of
from repro.analytic.queueing import (FULL_SYSTEM_MIX, route_zero_load,
                                     zero_load_mean)
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


_CHIPLET = "chiplet:2x2x4x4"
_STAR = "chiplet:2x2x4x4:star"


@pytest.mark.parametrize("kind,announced,overrides", [
    (NocKind.SMART, False, {"smart": SmartParams(hops_per_cycle=1)}),
    (NocKind.SMART, False, {"smart": SmartParams(hops_per_cycle=2)}),
    # PRA's data packets cover a fixed 2 tiles/cycle; its two variants
    # move the reservation horizon the announced law also reads.
    (NocKind.MESH_PRA, True, {"pra": PraParams(reservation_horizon=6)}),
    (NocKind.MESH_PRA, True, {"pra": PraParams()}),
    (NocKind.IDEAL, False, {"ideal_hops_per_cycle": 1}),
    (NocKind.IDEAL, False, {"ideal_hops_per_cycle": 2}),
    (NocKind.IDEAL, False, {"ideal_hops_per_cycle": 3}),
    (NocKind.MESH, False, {}),
    # On a hierarchy the law applies to each pair's routed path.
    (NocKind.MESH, False, {"topology": _CHIPLET}),
    (NocKind.MESH_PRA, True, {"topology": _CHIPLET}),
    (NocKind.MESH, False, {"topology": _STAR}),
    (NocKind.MESH_PRA, True, {"topology": _STAR}),
], ids=["smart-1", "smart-2", "pra-1", "pra-2",
        "ideal-1", "ideal-2", "ideal-3", "mesh",
        "mesh-chiplet", "pra-chiplet", "mesh-star", "pra-star"])
def test_mean_law_is_the_pair_mean_of_the_point_law(kind, announced,
                                                    overrides):
    """The mean zero-load law honours the parameters the point law
    reads: under uniform traffic it is the plain average over all
    (src, dst) pairs of ``zero_load_latency`` on the flat mesh, of
    ``route_zero_load`` on the routed path elsewhere."""
    from repro.noc.topology import build_topology

    params = NocParams(kind=kind, **overrides)
    width = params.mesh_width
    topo = build_topology(params.topology, width, params.mesh_height)
    nodes = topo.num_endpoints

    def point(src, dst):
        if params.topology == "mesh":
            return zero_load_latency(
                kind, src % width - dst % width,
                src // width - dst // width, 1, params, announced)
        return route_zero_load(kind, route_of(topo, src, dst), 1, params,
                               announced)

    pairs = [(src, dst) for src in range(nodes) for dst in range(nodes)
             if src != dst]
    exact = sum(point(src, dst) for src, dst in pairs) / len(pairs)
    mean = zero_load_mean(kind, geometry_for(params), 1, params, announced)
    assert mean == pytest.approx(exact, abs=1e-9)


def test_chiplet_figure_pra_column_is_the_models_announced_mean(
        monkeypatch):
    """``figures --only chiplet``'s PRA0(model) column is the model's
    own announced Mesh+PRA mean on each topology, the reservation
    overflow penalty included (10.6746 on the flat mesh, not 10.1746)."""
    from repro.analytic.validate import ChipletValidation
    from repro.harness.figures import CHIPLET_FIGURE_SPECS, \
        chiplet_comparison

    # The simulated columns are validate_chiplet's; skip the runs.
    monkeypatch.setattr(
        "repro.analytic.validate_chiplet",
        lambda specs, rate: tuple(
            ChipletValidation(spec, kind, 0.0, 0.0)
            for spec in specs for kind in (NocKind.MESH, NocKind.IDEAL)),
    )
    figure = chiplet_comparison()
    column = figure["headers"].index("PRA0(model)")
    for topology, row in zip(CHIPLET_FIGURE_SPECS, figure["rows"]):
        params = NocParams(kind=NocKind.MESH_PRA, topology=topology)
        assert row[column] == zero_load_mean(
            NocKind.MESH_PRA, geometry_for(params), 5, params,
            announced=True), topology
    assert figure["rows"][0][column] == pytest.approx(10.6746, abs=1e-4)


def test_geometry_aggregates_are_pinned():
    """One route-walking enumerator serves every topology; the mesh
    means are the values the per-law aggregates it replaced produced
    (to 1e-9), the link loads are exact."""
    def means(params):
        geom = geometry_for(params)
        laws = [zero_load_mean(kind, geom, 1, params.with_kind(kind))
                for kind in ALL_KINDS]
        laws.append(zero_load_mean(NocKind.MESH_PRA, geom, 1,
                                   params.with_kind(NocKind.MESH_PRA),
                                   announced=True))
        return geom, laws

    mesh, laws = means(NocParams())
    assert (mesh.max_link_coeff, len(mesh.link_coeffs)) == (
        0.03174603174603166, 224)
    assert sum(mesh.link_coeffs) == pytest.approx(5.333333333333334,
                                                  abs=1e-9)
    # Mesh, SMART, Mesh+PRA unplanned, ideal, Mesh+PRA announced.
    assert laws == pytest.approx([
        13.666666666666668, 13.523809523809727, 13.666666666666668,
        3.9206349206349875, 10.674603174603201], abs=1e-9)
    chiplet, laws = means(NocParams(topology=_CHIPLET))
    assert (chiplet.max_link_coeff, len(chiplet.link_coeffs)) == (
        0.12698412698412656, 200)
    assert sum(chiplet.link_coeffs) == pytest.approx(4.6984126984127155,
                                                     abs=1e-9)
    assert laws == pytest.approx([
        14.42857142857135, 15.238095238095216, 14.42857142857135,
        3.6031746031746215, 13.817460317460293], abs=1e-9)


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
        params = NocParams(kind=kind)
        geom = geometry_for(params)
        assert idle.latency == pytest.approx(sum(
            weight * zero_load_mean(
                kind, geom, size, params,
                announced=kind is NocKind.MESH_PRA and label == "response")
            for label, weight, size in FULL_SYSTEM_MIX
        ), abs=1e-12)
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
        assert sum(w for _, w, _ in SYNTHETIC_MIX) == pytest.approx(1.0)
        assert ("response", 0.40, 5) in SYNTHETIC_MIX


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


def teardown_module() -> None:
    clear_prediction_cache()
    clear_grid_cache()
