"""Chip assembly: network + LLC slices + directories + memory channels.

The :class:`Chip` owns the clock (delegated to the network), routes
delivered packets to the right component, and offers the core-model
layer a small API:

* :meth:`issue` — a core's L1 miss becomes a request (local or remote),
* ``on_complete`` — callback fired when the response reaches the core.

Coherence messages use the third message class and are modeled as
fire-and-forget single-flit invalidations (the paper: coherence traffic
is negligible but needs its own class for deadlock freedom).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.noc.network import Network, build_network
from repro.noc.packet import Packet
from repro.params import ChipParams, MessageClass
from repro.tile.address import home_slice, memory_channel
from repro.tile.directory import DirectorySlice
from repro.tile.llc import LlcSlice, Transaction
from repro.tile.memory import MemoryChannel

#: Fixed NI/controller overhead for LLC accesses that stay on-tile.
LOCAL_ACCESS_OVERHEAD = 2


class Chip:
    """A 64-tile server processor with the configured NoC."""

    def __init__(
        self,
        params: ChipParams,
        llc_hit_ratio: float = 0.9,
        seed: int = 0,
    ):
        self.params = params
        self.rng = random.Random(seed)
        self.network: Network = build_network(params.noc)
        self.network.on_delivery(self._on_delivery)
        self.network.on_head_arrival(self._on_head_arrival)
        num_tiles = params.num_tiles
        self.slices: List[LlcSlice] = [
            LlcSlice(node, self, hit_ratio=llc_hit_ratio)
            for node in range(num_tiles)
        ]
        self.directories = [DirectorySlice(n) for n in range(num_tiles)]
        self.channels = [
            MemoryChannel(c, params.memory, self.schedule)
            for c in range(params.memory.num_channels)
        ]
        #: Completion callback: ``fn(txn, now)``; set by the core layer.
        self.on_complete: Optional[Callable[[Transaction, int], None]] = None
        self.coherence_sent = 0

    # -- clock ----------------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.network.cycle

    def step(self) -> None:
        self.network.step()

    def run(self, cycles: int) -> None:
        self.network.run(cycles)

    def schedule(self, time: int, fn, *args) -> None:
        self.network.schedule_call(time, fn, *args)

    # -- core-facing API ---------------------------------------------------------

    def issue(self, txn: Transaction) -> None:
        """An L1 miss: route the request to the block's home slice."""
        txn.issued_at = self.cycle
        txn.home = home_slice(txn.addr, self.params.num_tiles)
        if not txn.is_write:
            self.slices[txn.home].record_read_sharer(txn)
        if txn.home == txn.core_node:
            # Local slice: no network traversal, only controller overhead.
            self.schedule(
                self.cycle + LOCAL_ACCESS_OVERHEAD,
                self.slices[txn.home].handle_request,
                txn,
                self.cycle + LOCAL_ACCESS_OVERHEAD,
            )
            return
        request = Packet(
            txn.core_node,
            txn.home,
            MessageClass.REQUEST,
            created=self.cycle,
            payload=txn,
        )
        self.network.send(request)

    def complete_local(self, txn: Transaction) -> None:
        """A local-slice access finished (no response packet needed)."""
        self._complete(txn, self.cycle + LOCAL_ACCESS_OVERHEAD)

    # -- internals ------------------------------------------------------------------

    def _on_delivery(self, packet: Packet, now: int) -> None:
        if packet.msg_class is MessageClass.REQUEST:
            self.slices[packet.dst].handle_request(packet.payload, now)
        elif packet.msg_class is MessageClass.RESPONSE:
            # Critical-word-first: completion fired at head arrival; the
            # tail event is only a fallback for single-flit responses or
            # exotic configurations.
            self._complete(packet.payload, now)
        # Coherence invalidations are fire-and-forget (sunk here).

    def _on_head_arrival(self, packet: Packet, now: int) -> None:
        if packet.msg_class is MessageClass.RESPONSE:
            # The requested word leads the block (critical-word-first);
            # the core restarts one cycle after the head lands while the
            # remaining flits stream into the L1 fill buffer.
            self._complete(packet.payload, now + 1)

    def _complete(self, txn: Transaction, when: int) -> None:
        if txn.completed_at is not None:
            return
        txn.completed_at = when
        if self.on_complete is not None:
            if when <= self.cycle:
                self.on_complete(txn, when)
            else:
                self.schedule(when, self.on_complete, txn, when)

    def channel_for(self, addr: int) -> MemoryChannel:
        return self.channels[
            memory_channel(addr, self.params.memory.num_channels)
        ]

    def send_coherence(self, src: int, dst: int) -> None:
        self.coherence_sent += 1
        self.network.send(
            Packet(
                src,
                dst,
                MessageClass.COHERENCE,
                created=self.cycle,
            )
        )

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        from repro.checkpoint.codec import rng_state

        return {
            "rng": rng_state(self.rng),
            "coherence_sent": self.coherence_sent,
            "network": self.network.state_dict(ctx),
            "slices": [llc.state_dict() for llc in self.slices],
            "directories": [d.state_dict() for d in self.directories],
            "channels": [ch.state_dict() for ch in self.channels],
        }

    def load_state(self, state: dict, ctx) -> None:
        from repro.checkpoint.codec import set_rng_state

        set_rng_state(self.rng, state["rng"])
        self.coherence_sent = state["coherence_sent"]
        self.network.load_state(state["network"], ctx)
        for llc, sub in zip(self.slices, state["slices"]):
            llc.load_state(sub)
        for directory, sub in zip(self.directories, state["directories"]):
            directory.load_state(sub)
        for channel, sub in zip(self.channels, state["channels"]):
            channel.load_state(sub)
