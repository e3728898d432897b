"""Reproducibility guarantees: identical seeds give identical runs."""

import random

import pytest

from repro.noc.packet import Packet
from repro.params import MessageClass, NocKind
from repro.perf.system import simulate
from tests.helpers import assert_quiescent, make_network


class TestDeterminism:
    @pytest.mark.parametrize("kind", list(NocKind))
    def test_network_level(self, kind):
        results = []
        for _ in range(2):
            rng = random.Random(99)
            net = make_network(kind)
            latencies = []
            net.on_delivery(lambda p, now: latencies.append(
                (p.src, p.dst, p.network_latency())))
            for _ in range(60):
                src = rng.randrange(16)
                dst = (src + rng.randrange(1, 16)) % 16
                net.send(Packet(src=src, dst=dst,
                                msg_class=rng.choice(list(MessageClass)),
                                created=net.cycle))
                net.step()
            net.drain(max_cycles=20000)
            results.append(latencies)
        assert results[0] == results[1]

    def test_system_level(self):
        a = simulate("Data Serving", NocKind.MESH_PRA, warmup=200,
                     measure=1000, seed=42)
        b = simulate("Data Serving", NocKind.MESH_PRA, warmup=200,
                     measure=1000, seed=42)
        assert a.instructions == b.instructions
        assert a.packets == b.packets
        assert a.lag_distribution == b.lag_distribution

    def test_different_seeds_differ(self):
        a = simulate("Data Serving", NocKind.MESH, warmup=200,
                     measure=1000, seed=1)
        b = simulate("Data Serving", NocKind.MESH, warmup=200,
                     measure=1000, seed=2)
        assert a.instructions != b.instructions


class TestRingQuiescence:
    def test_ring_drains_clean(self):
        rng = random.Random(31)
        net = make_network(NocKind.MESH, 12, 1, topology="ring")
        for _ in range(200):
            src = rng.randrange(12)
            dst = (src + rng.randrange(1, 12)) % 12
            net.send(Packet(src=src, dst=dst,
                            msg_class=rng.choice(list(MessageClass)),
                            created=net.cycle))
            net.step()
        net.drain(max_cycles=30000)
        assert_quiescent(net)


class TestLlcBankQueueing:
    def test_serial_bank_occupancy(self):
        """Back-to-back hits to one slice serialize at tag+data spacing."""
        from repro.params import default_chip
        from repro.tile.chip import Chip
        from repro.tile.llc import Transaction

        chip = Chip(default_chip(NocKind.MESH), llc_hit_ratio=1.0, seed=0)
        done = []
        chip.on_complete = lambda txn, now: done.append(txn)
        # Two local accesses to slice 3, issued together.
        for _ in range(2):
            chip.issue(Transaction(core_node=3, addr=3 * 64,
                                   is_instruction=False))
        chip.run(100)
        assert len(done) == 2
        spacing = abs(done[1].completed_at - done[0].completed_at)
        # The second lookup waits for the first's tag+data occupancy.
        assert spacing >= chip.params.cache.tag_lookup_cycles + \
            chip.params.cache.data_lookup_cycles
