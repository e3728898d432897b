"""Tests for the physical models: area, power, density (Figures 8/9)."""

import pytest

from repro.noc.network import build_network
from repro.params import ChipParams, NocKind
from repro.physical.area import noc_area
from repro.physical.buffers import BufferModel, router_vc_buffer_bits
from repro.physical.crossbar import CrossbarModel
from repro.physical.density import chip_area_mm2, performance_density
from repro.physical.power import chip_power, noc_power
from repro.physical.wires import LinkModel, num_unidirectional_links

CHIP = ChipParams()


class TestWires:
    def test_link_count_8x8(self):
        assert num_unidirectional_links(CHIP) == 2 * (8 * 7 + 8 * 7)

    def test_two_tile_repeaters_cost_more(self):
        base = LinkModel(128, 1.8)
        fast = LinkModel(128, 1.8, repeater_factor=1.45)
        assert fast.repeater_area_mm2 > base.repeater_area_mm2

    def test_link_energy_scale(self):
        link = LinkModel(128, 1.0)
        joules = link.traversal_energy_j(1, CHIP.technology)
        assert joules == pytest.approx(50e-15)  # 50 fJ/bit/mm


class TestArea:
    def test_mesh_total_matches_paper(self):
        assert noc_area(CHIP, NocKind.MESH).total_mm2 == pytest.approx(
            3.5, rel=0.05
        )

    def test_smart_total_matches_paper(self):
        assert noc_area(CHIP, NocKind.SMART).total_mm2 == pytest.approx(
            4.5, rel=0.05
        )

    def test_pra_total_matches_paper(self):
        assert noc_area(CHIP, NocKind.MESH_PRA).total_mm2 == pytest.approx(
            4.9, rel=0.05
        )

    def test_overheads_match_paper(self):
        mesh = noc_area(CHIP, NocKind.MESH).total_mm2
        smart = noc_area(CHIP, NocKind.SMART).total_mm2
        pra = noc_area(CHIP, NocKind.MESH_PRA).total_mm2
        assert (smart / mesh - 1) == pytest.approx(0.31, abs=0.04)
        assert (pra / mesh - 1) == pytest.approx(0.40, abs=0.04)

    def test_ideal_charged_mesh_area(self):
        assert noc_area(CHIP, NocKind.IDEAL).total_mm2 == pytest.approx(
            noc_area(CHIP, NocKind.MESH).total_mm2
        )

    def test_breakdown_sums(self):
        a = noc_area(CHIP, NocKind.MESH_PRA)
        b = a.breakdown()
        assert b["total"] == pytest.approx(
            b["links"] + b["buffers"] + b["crossbar"]
        )


class TestPower:
    def test_noc_power_below_two_watts(self):
        """Section V-E: NOC power is below 2 W in all organizations."""
        # Generous activity: 3 packets/cycle at 6 hops, 3 flits average.
        for kind in NocKind:
            p = noc_power(CHIP, flit_hops=10_000 * 18, cycles=10_000,
                          kind=kind, control_packets=20_000)
            assert p.total_w < 2.0

    def test_cores_dominate(self):
        p = noc_power(CHIP, flit_hops=100_000, cycles=10_000,
                      kind=NocKind.MESH)
        cp = chip_power(CHIP, p)
        assert cp.cores_w > 60.0
        assert cp.cores_w > 20 * p.total_w

    def test_power_scales_with_activity(self):
        lo = noc_power(CHIP, flit_hops=1000, cycles=1000, kind=NocKind.MESH)
        hi = noc_power(CHIP, flit_hops=4000, cycles=1000, kind=NocKind.MESH)
        assert hi.link_w == pytest.approx(4 * lo.link_w)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            noc_power(CHIP, flit_hops=1, cycles=0)


class TestDensity:
    def test_chip_area_over_200mm2(self):
        for kind in NocKind:
            assert chip_area_mm2(CHIP, kind) > 200.0

    def test_density_penalizes_bigger_noc(self):
        perf = {NocKind.MESH: 1.0, NocKind.MESH_PRA: 1.0}
        dens = performance_density(CHIP, perf)
        assert dens[NocKind.MESH_PRA] < dens[NocKind.MESH]

    def test_density_ordering_with_paper_performance(self):
        """With the paper's performance ratios, PRA has the highest
        density among realistic organizations (Section V-D)."""
        perf = {NocKind.MESH: 1.0, NocKind.SMART: 1.02, NocKind.MESH_PRA: 1.14}
        dens = performance_density(CHIP, perf)
        assert dens[NocKind.MESH_PRA] > dens[NocKind.SMART] > 0
        assert dens[NocKind.MESH_PRA] > dens[NocKind.MESH]


class TestBuffers:
    def test_router_buffer_bits(self):
        assert router_vc_buffer_bits(CHIP) == 5 * 3 * 5 * 128

    def test_buffer_bits_are_what_the_network_builds(self):
        """Fig. 8 bills the VC storage of a mesh router the simulator
        actually builds: an interior one, which has every port."""
        net = build_network(CHIP.noc)
        router = net.routers[CHIP.noc.mesh_width + 1]
        assert len(router.input_units) == 5
        flits = sum(vc.capacity for unit in router.input_units.values()
                    for vc in unit.vcs)
        assert router_vc_buffer_bits(CHIP) == (
            flits * CHIP.noc.router.link_width_bits
        )

    def test_leakage_positive(self):
        assert BufferModel(1000).leakage_w > 0


class TestCrossbar:
    def test_extra_inputs_grow_area(self):
        base = CrossbarModel(5, 128)
        wide = CrossbarModel(5, 128, extra_input_fraction=0.2)
        assert wide.area_mm2 > base.area_mm2
