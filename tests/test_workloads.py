"""Tests for workload models: trace generation and synthetic traffic."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.network import build_network
from repro.params import NocKind, NocParams
from repro.tile.address import BLOCK_BYTES
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern
from repro.workloads.tracegen import AccessTraceGenerator


class TestTraceGenerator:
    def test_gap_mean_tracks_mpki(self):
        profile = get_profile("Web Search")
        gen = AccessTraceGenerator(profile, core_id=0, seed=1)
        gaps = [gen.next_gap() for _ in range(4000)]
        expected = profile.mean_instructions_between_misses
        assert statistics.mean(gaps) == pytest.approx(expected, rel=0.1)

    def test_instruction_fraction(self):
        profile = get_profile("Media Streaming")
        gen = AccessTraceGenerator(profile, core_id=1, seed=2)
        accesses = [gen.next_access() for _ in range(4000)]
        frac = sum(a.is_instruction for a in accesses) / len(accesses)
        assert frac == pytest.approx(profile.instruction_miss_fraction,
                                     abs=0.03)

    def test_addresses_are_block_aligned(self):
        gen = AccessTraceGenerator(get_profile("MapReduce"), core_id=2)
        for _ in range(200):
            assert gen.next_access().addr % BLOCK_BYTES == 0

    def test_instruction_accesses_never_write(self):
        gen = AccessTraceGenerator(get_profile("SAT Solver"), core_id=3)
        for _ in range(500):
            access = gen.next_access()
            if access.is_instruction:
                assert not access.is_write

    def test_deterministic_per_seed(self):
        p = get_profile("Web Search")
        a = AccessTraceGenerator(p, core_id=0, seed=7)
        b = AccessTraceGenerator(p, core_id=0, seed=7)
        assert [a.next_gap() for _ in range(50)] == [
            b.next_gap() for _ in range(50)
        ]

    def test_stream(self):
        gen = AccessTraceGenerator(get_profile("Web Search"), core_id=0)
        items = list(gen.stream(10))
        assert len(items) == 10
        assert all(gap >= 1 for gap, _ in items)


class TestSyntheticTraffic:
    @pytest.mark.parametrize("pattern", list(TrafficPattern))
    def test_patterns_deliver(self, pattern):
        net = build_network(NocParams(kind=NocKind.MESH, mesh_width=4,
                                      mesh_height=4))
        traffic = SyntheticTraffic(net, pattern, injection_rate=0.02,
                                   seed=3)
        traffic.run(400)
        net.drain(max_cycles=10000)
        assert net.stats.packets_ejected == traffic.offered
        assert traffic.offered > 0

    def test_offered_rate_tracks_request(self):
        net = build_network(NocParams(kind=NocKind.MESH, mesh_width=4,
                                      mesh_height=4))
        traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM,
                                   injection_rate=0.05, seed=4)
        traffic.run(2000)
        per_node_rate = traffic.offered / (2000 * 16)
        assert per_node_rate == pytest.approx(0.05, rel=0.15)

    def test_request_reply_generates_responses(self):
        net = build_network(NocParams(kind=NocKind.MESH, mesh_width=4,
                                      mesh_height=4))
        traffic = SyntheticTraffic(net, TrafficPattern.REQUEST_REPLY,
                                   injection_rate=0.01, seed=5)
        traffic.run(500)
        net.drain(max_cycles=10000)
        sizes = net.stats.flits_ejected / max(1, net.stats.packets_ejected)
        assert 1.0 < sizes < 5.0  # a mix of 1-flit and 5-flit packets

    def test_invalid_rate_rejected(self):
        net = build_network(NocParams(kind=NocKind.MESH))
        with pytest.raises(ValueError):
            SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 1.5)

    @pytest.mark.parametrize("nodes", [[], [16], [-1]])
    def test_hotspot_nodes_must_be_endpoints(self, nodes):
        net = build_network(NocParams(kind=NocKind.MESH, mesh_width=4,
                                      mesh_height=4))
        with pytest.raises(ValueError, match="hotspot_nodes"):
            SyntheticTraffic(net, TrafficPattern.HOTSPOT, 0.03,
                             hotspot_nodes=nodes)

    @given(st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_hotspot_targets_hotspot(self, seed):
        net = build_network(NocParams(kind=NocKind.MESH, mesh_width=4,
                                      mesh_height=4))
        arrivals = []
        net.on_delivery(lambda pkt, now: arrivals.append(pkt.dst))
        traffic = SyntheticTraffic(net, TrafficPattern.HOTSPOT,
                                   injection_rate=0.03, seed=seed,
                                   hotspot_nodes=[5])
        traffic.run(400)
        net.drain(max_cycles=20000)
        assert net.stats.packets_ejected == traffic.offered
        if len(arrivals) >= 30:
            hot_share = arrivals.count(5) / len(arrivals)
            assert hot_share > 3 / 16  # well above the uniform 1/16
