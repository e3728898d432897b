"""Tests for the tiled-CMP substrate: address map, LLC, directory, memory."""

import json
import random

import pytest

from repro.params import NocKind, default_chip
from repro.tile.address import block_of, home_slice, memory_channel, BLOCK_BYTES
from repro.tile.chip import Chip
from repro.tile.directory import DirectorySlice
from repro.tile.llc import Transaction
from repro.tile.memory import MemoryChannel
from repro.params import MemoryParams


class TestAddress:
    def test_block_of(self):
        assert block_of(0) == 0
        assert block_of(BLOCK_BYTES - 1) == 0
        assert block_of(BLOCK_BYTES) == 1

    def test_home_slice_interleaving(self):
        homes = [home_slice(b * BLOCK_BYTES, 64) for b in range(128)]
        assert homes[:64] == list(range(64))
        assert homes[64:] == list(range(64))

    def test_memory_channel_range(self):
        for b in range(100):
            assert 0 <= memory_channel(b * BLOCK_BYTES, 4) < 4

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            block_of(-1)


class TestDirectory:
    def test_read_then_write_invalidates_sharers(self):
        d = DirectorySlice(node=0)
        d.record_read(100, requester=1)
        d.record_read(100, requester=2)
        to_inv = d.record_write(100, requester=3)
        assert sorted(to_inv) == [1, 2]
        assert d.sharers_of(100) == {3}

    def test_write_by_sharer_excludes_self(self):
        d = DirectorySlice(node=0)
        d.record_read(5, requester=7)
        assert d.record_write(5, requester=7) == []

    def test_bounded_tracking(self):
        d = DirectorySlice(node=0, max_tracked=10)
        for b in range(100):
            d.record_read(b, requester=0)
        assert d.tracked_blocks <= 10

    def test_write_to_untracked_block_keeps_the_bound(self):
        d = DirectorySlice(node=0, max_tracked=2)
        d.record_read(1, requester=4)
        d.record_read(2, requester=5)
        assert d.record_write(3, requester=6) == []
        assert d.tracked_blocks == 2
        # The oldest block went, as a read of a new block would evict it.
        assert d.sharers_of(1) == set()
        assert d.sharers_of(2) == {5}
        assert d.sharers_of(3) == {6}

    def test_invalidations_leave_in_set_order(self):
        """A write invalidates in the order a set built by the same
        ``add`` calls iterates, whatever form the entry is kept in."""
        rng = random.Random(3)
        for _ in range(200):
            d = DirectorySlice(node=0)
            reference = set()
            for _ in range(rng.randint(1, 40)):
                requester = rng.randrange(64)
                if rng.random() < 0.85:
                    d.record_read(9, requester)
                    reference.add(requester)
                else:
                    expected = [s for s in reference if s != requester]
                    assert d.record_write(9, requester) == expected
                    reference = {requester}
            assert d.sharers_of(9) == reference

    def test_restore_keeps_invalidation_order(self):
        """A restored slice invalidates in the order the original
        does (sorting the snapshot's sharers reordered them)."""
        d = DirectorySlice(node=0)
        d.record_read(7, requester=13)
        d.record_read(7, requester=5)
        restored = DirectorySlice(node=0)
        restored.load_state(json.loads(json.dumps(d.state_dict())))
        assert restored.record_write(7, requester=0) \
            == d.record_write(7, requester=0)


class TestMemoryChannel:
    def test_deterministic_completion(self):
        events = []

        def scheduler(time, fn, *args):
            events.append((time, fn, args))

        ch = MemoryChannel(0, MemoryParams(), scheduler)
        done1 = ch.access(10, lambda: None)
        done2 = ch.access(10, lambda: None)
        assert done1 == 11 + MemoryParams().access_cycles
        # Second access waits for the channel service interval.
        assert done2 == done1 + MemoryParams().service_cycles


class TestChip:
    def test_remote_request_completes(self):
        chip = Chip(default_chip(NocKind.MESH), llc_hit_ratio=1.0, seed=1)
        done = []
        chip.on_complete = lambda txn, now: done.append((txn, now))
        txn = Transaction(core_node=0, addr=5 * 64, is_instruction=True)
        chip.issue(txn)
        chip.run(200)
        assert len(done) == 1
        assert done[0][0].llc_hit is True
        assert done[0][0].latency > 0

    def test_local_request_never_uses_network(self):
        chip = Chip(default_chip(NocKind.MESH), llc_hit_ratio=1.0, seed=1)
        done = []
        chip.on_complete = lambda txn, now: done.append(txn)
        txn = Transaction(core_node=3, addr=3 * 64, is_instruction=False)
        assert home_slice(txn.addr, 64) == 3
        chip.issue(txn)
        chip.run(100)
        assert len(done) == 1
        assert chip.network.stats.packets_injected == 0

    def test_miss_goes_to_memory(self):
        chip = Chip(default_chip(NocKind.MESH), llc_hit_ratio=0.0, seed=1)
        done = []
        chip.on_complete = lambda txn, now: done.append(txn)
        txn = Transaction(core_node=0, addr=9 * 64, is_instruction=False)
        chip.issue(txn)
        chip.run(400)
        assert len(done) == 1
        assert done[0].llc_hit is False
        assert done[0].latency > chip.params.memory.access_cycles
        assert sum(c.accesses for c in chip.channels) == 1

    def test_write_generates_coherence(self):
        chip = Chip(default_chip(NocKind.MESH), llc_hit_ratio=1.0, seed=1)
        chip.on_complete = lambda txn, now: None
        addr = 17 * 64
        # Two readers register as sharers, then a third core writes.
        for reader in (1, 2):
            chip.issue(Transaction(core_node=reader, addr=addr,
                                   is_instruction=False))
        chip.run(100)
        chip.issue(Transaction(core_node=5, addr=addr, is_instruction=False,
                               is_write=True))
        chip.run(100)
        assert chip.coherence_sent == 2
