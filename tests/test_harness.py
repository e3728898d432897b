"""Tests for the experiment harness at a tiny scale."""

import pytest

from repro.harness import (
    evaluation_grid,
    figure2,
    figure6,
    figure7,
    figure8,
    figure9,
    format_table,
    get_scale,
    power_analysis,
    render_figure,
    section5b_stats,
    table1,
)
from repro.config import RunConfig
from repro.harness import runner
from repro.harness.runner import EvaluationScale, clear_grid_cache, grid_stats
from repro.params import NocKind
from repro.workloads.profiles import WORKLOAD_NAMES

TINY = EvaluationScale("tiny", warmup=150, measure=700, num_seeds=1)


def _count_simulations(monkeypatch) -> list:
    """Record every cell ``runner._simulate_cell`` simulates from here
    on (in-process sweeps only)."""
    calls = []
    real = runner._simulate_cell

    def counted(cell, wall_limit):
        calls.append(cell)
        return real(cell, wall_limit)

    monkeypatch.setattr(runner, "_simulate_cell", counted)
    return calls


@pytest.fixture(scope="module")
def grid():
    clear_grid_cache()
    return evaluation_grid(scale=TINY)


class TestRunner:
    def test_grid_covers_all_cells(self, grid):
        assert len(grid) == 6 * 4
        for workload in WORKLOAD_NAMES:
            for kind in NocKind:
                assert (workload, kind) in grid

    def test_grid_is_cached(self, grid):
        hits = grid_stats.grid_cache_hits
        again = evaluation_grid(scale=TINY)
        assert grid_stats.grid_cache_hits - hits == 24
        assert {key: sample.to_state() for key, sample in again.items()} \
            == {key: sample.to_state() for key, sample in grid.items()}

    def test_scales(self):
        assert get_scale("smoke").name == "smoke"
        assert get_scale("full").num_seeds == 3
        with pytest.raises(ValueError):
            get_scale("enormous")

    def test_multi_seed_merge(self):
        two = EvaluationScale("two", warmup=100, measure=400, num_seeds=2)
        grid = evaluation_grid(("Web Search",), (NocKind.MESH,), scale=two)
        sample = grid[("Web Search", NocKind.MESH)]
        assert sample.cycles == 2 * 400
        assert sample.instructions > 0

    def test_more_seeds_simulate_only_the_new_ones(self, monkeypatch):
        """Cells are cached one seed at a time: a 2-seed grid after a
        1-seed grid of the same lengths simulates only seed 2."""
        one = EvaluationScale("seeds-1", warmup=20, measure=80, num_seeds=1)
        two = EvaluationScale("seeds-2", warmup=20, measure=80, num_seeds=2)
        cells = (("Web Search",), (NocKind.MESH,))
        clear_grid_cache()
        evaluation_grid(*cells, scale=one, config=RunConfig())
        calls = _count_simulations(monkeypatch)
        grid = evaluation_grid(*cells, scale=two, config=RunConfig())
        clear_grid_cache()
        assert [seed for *_, seed in calls] == [2]
        assert grid[("Web Search", NocKind.MESH)].cycles == 2 * 80

    def test_default_figures_simulate_each_cell_once(self, monkeypatch,
                                                     capsys):
        """Fig. 2's six cells are Fig. 6's too: the default figure set
        simulates the 24-cell grid once, not 24 + 6 cells."""
        from repro.cli import main
        from repro.config import SCALES

        monkeypatch.setitem(SCALES, "cells-once", EvaluationScale(
            "cells-once", warmup=20, measure=80, num_seeds=1))
        calls = _count_simulations(monkeypatch)
        clear_grid_cache()
        try:
            assert main(["figures", "--scale", "cells-once"]) == 0
        finally:
            clear_grid_cache()
        assert len(calls) == 24
        assert len(set(calls)) == 24
        assert "Figure 6" in capsys.readouterr().out

    def test_merge_weights_by_sample_counts(self):
        """Regression: merged latencies and distributions must weight
        each seed by its own observation count, not average the
        per-seed averages.  Seed B delivered 9x the packets of seed A,
        so it dominates every merged statistic 9:1."""
        from repro.harness.runner import _merge
        from repro.perf.system import PerfSample

        def sample(packets, avg_net, avg_txn, control, lag, blocked):
            return PerfSample(
                workload="Web Search", noc_kind=NocKind.MESH_PRA,
                instructions=1000 * packets, cycles=400, packets=packets,
                avg_network_latency=avg_net,
                avg_transaction_latency=avg_txn,
                control_packets=control, control_per_data=control / packets,
                lag_distribution=lag, pra_blocked_fraction=blocked,
                flits_delivered=5 * packets, total_hops=20 * packets,
            )

        a = sample(packets=10, avg_net=10.0, avg_txn=100.0, control=10,
                   lag={0: 1.0}, blocked=0.1)
        b = sample(packets=90, avg_net=20.0, avg_txn=200.0, control=30,
                   lag={1: 1.0}, blocked=0.3)
        merged = _merge([a, b])
        assert merged.packets == 100
        assert merged.instructions == 1000 * 100
        # Packet-weighted latencies (an unweighted mean would give 150
        # and 15).
        assert merged.avg_transaction_latency == pytest.approx(
            (100.0 * 10 + 200.0 * 90) / 100
        )
        assert merged.avg_network_latency == pytest.approx(
            (10.0 * 10 + 20.0 * 90) / 100
        )
        # Control-packet-weighted lag distribution: 10 of the 40 control
        # packets dropped at lag 0, 30 at lag 1.
        assert merged.lag_distribution == pytest.approx(
            {0: 10 / 40, 1: 30 / 40}
        )
        assert sum(merged.lag_distribution.values()) == pytest.approx(1.0)
        # Blocked fraction weighted by each seed's total network time
        # (10*10 = 100 vs 20*90 = 1800 cycles in-network).
        assert merged.pra_blocked_fraction == pytest.approx(
            (0.1 * 100 + 0.3 * 1800) / 1900
        )
        assert merged.control_per_data == pytest.approx(40 / 100)

    def test_merge_single_sample_is_identity(self):
        from repro.harness.runner import _merge
        from repro.perf.system import PerfSample

        s = PerfSample(workload="Web Search", noc_kind=NocKind.MESH,
                       instructions=1, cycles=1, packets=1,
                       avg_network_latency=1.0, avg_transaction_latency=1.0)
        assert _merge([s]) is s


class TestFigures:
    def test_figure2_structure(self, grid):
        result = figure2(TINY)
        assert result["headers"] == ["Workload", "Mesh", "SMART", "Ideal"]
        assert result["rows"][-1][0] == "GMean"
        assert result["normalized"]["Web Search"][NocKind.MESH] == 1.0

    def test_figure6_normalization(self, grid):
        result = figure6(TINY)
        for workload in WORKLOAD_NAMES:
            assert result["normalized"][workload][NocKind.MESH] == 1.0

    def test_figure7_rows_sum_to_one(self, grid):
        result = figure7(TINY)
        for row in result["rows"]:
            assert sum(row[1:]) == pytest.approx(1.0)

    def test_section5b(self, grid):
        result = section5b_stats(TINY)
        assert len(result["per_workload"]) == 6

    def test_figure8_static(self):
        result = figure8()
        assert len(result["rows"]) == 3

    def test_figure9_density_below_performance(self, grid):
        perf = figure6(TINY)["gmeans"]
        dens = figure9(TINY)["gmeans"]
        # PRA's extra area means its density gain trails its perf gain.
        assert dens[NocKind.MESH_PRA] < perf[NocKind.MESH_PRA]

    def test_power_analysis(self, grid):
        result = power_analysis(TINY)
        assert {row[0] for row in result["rows"]} == {
            "Mesh", "SMART", "Mesh+PRA", "Ideal"
        }

    def test_table1_render(self):
        text = render_figure(table1())
        assert "Table I" in text


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["A", "Blong"], [["x", 1.23456], ["yy", 2.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        # all rows aligned to the same width
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_empty_rows(self):
        text = format_table(["A"], [])
        assert "A" in text
