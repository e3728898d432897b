"""Tests for the performance model: cores and system simulation."""

import pytest

from repro.params import NocKind
from repro.perf.metrics import geomean
from repro.perf.system import SystemSimulator, simulate
from repro.workloads.profiles import CLOUDSUITE, WORKLOAD_NAMES, get_profile


class TestMetrics:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestProfiles:
    def test_six_workloads(self):
        assert len(WORKLOAD_NAMES) == 6
        assert "Media Streaming" in WORKLOAD_NAMES

    def test_media_streaming_lowest_ilp_mlp(self):
        """The paper attributes Media Streaming's sensitivity to the
        lowest ILP and MLP of the suite."""
        ms = get_profile("Media Streaming")
        assert ms.mlp == min(p.mlp for p in CLOUDSUITE.values())
        assert ms.base_cpi == max(p.base_cpi for p in CLOUDSUITE.values())

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_profile("SPECint")

    def test_batch_vs_latency_sensitive(self):
        batch = {n for n, p in CLOUDSUITE.items() if not p.latency_sensitive}
        assert batch == {"MapReduce", "SAT Solver"}


class TestSystemSimulator:
    def test_cores_retire_instructions(self):
        sim = SystemSimulator("Web Search", NocKind.MESH, seed=0)
        sample = sim.run_sample(warmup=200, measure=1000)
        assert sample.instructions > 0
        assert 0 < sample.ipc < 64 * 3  # bounded by width

    def test_sample_is_interval_scoped(self):
        sim = SystemSimulator("Web Search", NocKind.MESH, seed=0)
        s1 = sim.run_sample(warmup=200, measure=800)
        s2 = sim.run_sample(warmup=0, measure=800)
        # Two consecutive intervals of one run: both populated, same order
        # of magnitude (steady state).
        assert s2.instructions == pytest.approx(s1.instructions, rel=0.5)

    def test_network_kind_respected(self):
        sim = SystemSimulator("MapReduce", NocKind.MESH_PRA, seed=0)
        assert sim.chip.network.params.kind is NocKind.MESH_PRA
        sample = sim.run_sample(warmup=200, measure=1000)
        assert sample.control_packets > 0

    def test_pra_beats_mesh_on_media_streaming(self):
        mesh = simulate("Media Streaming", NocKind.MESH,
                        warmup=500, measure=3000, seed=2)
        pra = simulate("Media Streaming", NocKind.MESH_PRA,
                       warmup=500, measure=3000, seed=2)
        assert pra.ipc > mesh.ipc

    def test_ideal_is_fastest(self):
        results = {}
        for kind in (NocKind.MESH, NocKind.IDEAL):
            results[kind] = simulate("Web Frontend", kind,
                                     warmup=500, measure=2500, seed=3).ipc
        assert results[NocKind.IDEAL] > results[NocKind.MESH] * 1.1

