"""Tests for the ring interconnect (Section II-B baseline)."""

import random

from repro.noc.packet import Packet
from repro.params import MessageClass, NocKind
from repro.trace import EV_VC_ALLOC, RingTracer
from tests.helpers import make_network


class TestRingBasics:
    def test_single_packet_shortest_direction(self):
        net = make_network(NocKind.MESH, 8, 1, topology="ring")
        pkt = Packet(src=0, dst=2, msg_class=MessageClass.REQUEST,
                     created=net.cycle)
        net.send(pkt)
        net.drain(max_cycles=100)
        assert pkt.hops_taken == 2

    def test_wraparound_shorter_path(self):
        net = make_network(NocKind.MESH, 8, 1, topology="ring")
        pkt = Packet(src=1, dst=7, msg_class=MessageClass.REQUEST,
                     created=net.cycle)
        net.send(pkt)
        net.drain(max_cycles=100)
        assert pkt.hops_taken == 2  # 1 -> 0 -> 7 counter-clockwise

    def test_two_cycles_per_hop(self):
        net = make_network(NocKind.MESH, 16, 1, topology="ring")
        pkt = Packet(src=0, dst=4, msg_class=MessageClass.REQUEST,
                     created=net.cycle)
        net.send(pkt)
        net.drain(max_cycles=100)
        assert pkt.network_latency() == 2 * 4 + 2 + 1  # as on the mesh

    def test_dateline_crossing_delivers(self):
        net = make_network(NocKind.MESH, 8, 1, topology="ring")
        tracer = RingTracer()
        net.attach(tracer=tracer)
        # 6 -> 1 clockwise crosses the 7 -> 0 dateline.
        pkt = Packet(src=6, dst=1, msg_class=MessageClass.RESPONSE,
                     created=net.cycle)
        net.send(pkt)
        net.drain(max_cycles=200)
        assert pkt.ejected is not None
        # Switched layers at the dateline: the response class's layer-0
        # VC into stop 7, its layer-1 VC across 7 -> 0 and from then on.
        assert [event.data["vc"]
                for event in tracer.events(pkt.pid, [EV_VC_ALLOC])] == [4, 5, 5]

    def test_multi_flit_across_dateline_intact(self):
        net = make_network(NocKind.MESH, 6, 1, topology="ring")
        pkt = Packet(src=5, dst=2, msg_class=MessageClass.RESPONSE,
                     created=net.cycle)
        net.send(pkt)
        net.drain(max_cycles=200)
        assert net.stats.flits_ejected == 5


class TestRingLoad:
    def test_random_traffic_all_delivered(self):
        rng = random.Random(21)
        net = make_network(NocKind.MESH, 16, 1, topology="ring")
        sent = 0
        for _ in range(300):
            src = rng.randrange(16)
            dst = (src + rng.randrange(1, 16)) % 16
            mc = rng.choice(list(MessageClass))
            net.send(Packet(src=src, dst=dst, msg_class=mc,
                            created=net.cycle))
            sent += 1
            net.step()
        net.drain(max_cycles=30000)
        assert net.stats.packets_ejected == sent

    def test_saturating_wraparound_traffic_is_deadlock_free(self):
        """All-to-opposite traffic maximizes dateline crossings; the
        two-layer VC scheme must keep the ring deadlock-free."""
        net = make_network(NocKind.MESH, 8, 1, topology="ring")
        sent = 0
        for round_ in range(40):
            for src in range(8):
                dst = (src + 4) % 8
                net.send(Packet(src=src, dst=dst,
                                msg_class=MessageClass.RESPONSE,
                                created=net.cycle))
                sent += 1
            net.run(3)
        net.drain(max_cycles=60000)
        assert net.stats.packets_ejected == sent


class TestRingScaling:
    def test_latency_scales_linearly_with_stops(self):
        """The paper's Section II-B claim: ring delay grows linearly
        with the number of interconnected components."""
        latencies = {}
        hops = {}
        for stops in (8, 16, 32):
            net = make_network(NocKind.MESH, stops, 1, topology="ring")
            rng = random.Random(5)
            for _ in range(60):
                src = rng.randrange(stops)
                dst = (src + rng.randrange(1, stops)) % stops
                net.send(Packet(src=src, dst=dst,
                                msg_class=MessageClass.REQUEST,
                                created=net.cycle))
                net.run(5)
            net.drain(max_cycles=30000)
            latencies[stops] = net.stats.avg_network_latency
            hops[stops] = net.stats.avg_hops
        # Doubling the stop count doubles the average distance; latency
        # net of the fixed inject/eject overhead (~3 cycles) follows.
        assert hops[16] > hops[8] * 1.7
        assert hops[32] > hops[16] * 1.7
        assert (latencies[16] - 3) > (latencies[8] - 3) * 1.6
        assert (latencies[32] - 3) > (latencies[16] - 3) * 1.6
