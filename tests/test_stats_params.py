"""Tests for statistics aggregation and the Table I parameter model."""

import pytest

from repro.noc.network import build_network
from repro.noc.packet import Packet
from repro.noc.stats import NetworkStats
from repro.params import (
    ChipParams,
    MessageClass,
    NocKind,
    PACKET_FLITS,
    PRA_HOPS_PER_CYCLE,
    default_chip,
)


class TestNetworkStats:
    def _delivered_packet(self, injected=10, ejected=25,
                          mc=MessageClass.REQUEST):
        pkt = Packet(src=0, dst=5, msg_class=mc, created=8)
        pkt.injected = injected
        pkt.ejected = ejected
        pkt.hops_taken = 4
        return pkt

    def test_latency_accounting(self):
        stats = NetworkStats()
        pkt = self._delivered_packet()
        stats.record_injection(pkt)
        stats.record_ejection(pkt)
        assert stats.avg_network_latency == 15
        assert stats.avg_total_latency == 17
        assert stats.avg_hops == 4
        assert stats.in_flight == 0

    def test_per_class_latency(self):
        stats = NetworkStats()
        a = self._delivered_packet(mc=MessageClass.REQUEST)
        b = self._delivered_packet(injected=10, ejected=40,
                                   mc=MessageClass.RESPONSE)
        for pkt in (a, b):
            stats.record_injection(pkt)
            stats.record_ejection(pkt)
        assert stats.avg_class_latency(MessageClass.REQUEST) == 15
        assert stats.avg_class_latency(MessageClass.RESPONSE) == 30

    def test_lag_distribution_normalizes(self):
        stats = NetworkStats()
        stats.control_lag_at_drop[0] = 6
        stats.control_lag_at_drop[1] = 3
        stats.control_lag_at_drop[2] = 1
        dist = stats.lag_distribution()
        assert dist[0] == 0.6
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_empty_stats_are_zero(self):
        stats = NetworkStats()
        assert stats.avg_network_latency == 0.0
        assert stats.lag_distribution() == {}
        assert stats.pra_blocked_fraction() == 0.0
        assert stats.control_packets_per_data_packet == 0.0


class TestParams:
    def test_table1_defaults(self):
        chip = ChipParams()
        assert chip.num_tiles == 64
        assert chip.llc_slice_mb == pytest.approx(0.125)
        assert chip.technology.frequency_ghz == 2.0
        assert chip.memory.num_channels == 4
        # One VC per message class on the single-layer mesh.
        assert build_network(chip.noc).num_vcs == 3
        assert chip.noc.router.flits_per_vc == 5

    def test_packet_sizes(self):
        assert PACKET_FLITS[MessageClass.REQUEST] == 1
        assert PACKET_FLITS[MessageClass.COHERENCE] == 1
        assert PACKET_FLITS[MessageClass.RESPONSE] == 5

    def test_with_noc_kind_is_pure(self):
        base = default_chip(NocKind.MESH)
        pra = base.with_noc_kind(NocKind.MESH_PRA)
        assert base.noc.kind is NocKind.MESH
        assert pra.noc.kind is NocKind.MESH_PRA
        assert pra.core == base.core

    def test_tile_geometry(self):
        chip = ChipParams()
        assert 1.0 < chip.tile_side_mm < 3.0
        assert chip.tile_area_mm2 == pytest.approx(
            chip.core.area_mm2 + 0.125 * chip.cache.area_mm2_per_mb
        )

    def test_invalid_mesh_rejected(self):
        from repro.noc.topology import MeshTopology

        with pytest.raises(ValueError):
            MeshTopology(0, 4)

    def test_pra_defaults_match_paper(self):
        chip = ChipParams()
        assert chip.noc.pra.max_lag == 4
        assert PRA_HOPS_PER_CYCLE == 2
        assert chip.noc.pra.control_link_width_bits == 15
        assert chip.cache.tag_lookup_cycles == 1
        assert chip.cache.data_lookup_cycles == 4
