"""LLC slices: serial tag + data lookup, the PRA trigger point.

The paper (Section III, citing [9]-[11]) assumes an energy-optimized LLC
with a serial tag lookup (1 cycle) followed by a data lookup (4 cycles);
the whole data-lookup window is available for proactive resource
allocation.  On a hit, the LLC controller notifies the network interface
at tag-lookup completion, which is exactly when this model calls
``network.announce(response, ready_in=data_lookup_cycles)``.

A slice services lookups serially (one SRAM bank per tile): an arriving
request waits for the bank, spends one cycle in the tag array, and on a
hit another four cycles in the data array.  Misses release the bank at
tag-done and go to a memory channel.

Hit or miss is drawn from the workload profile's LLC hit ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.noc.packet import Packet
from repro.params import MessageClass
from repro.tile.address import block_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.tile.chip import Chip

#: Module-wide transaction id counter; a plain int (not itertools.count)
#: so checkpoints can save and restore it.
_next_tid = 0


def _new_tid() -> int:
    global _next_tid
    tid = _next_tid
    _next_tid += 1
    return tid


def peek_next_tid() -> int:
    return _next_tid


def set_next_tid(value: int) -> None:
    global _next_tid
    _next_tid = value


@dataclass
class Transaction:
    """One core-initiated LLC access and its life-cycle timestamps."""

    core_node: int
    addr: int
    is_instruction: bool
    is_write: bool = False
    issued_at: int = 0
    tid: int = field(default_factory=_new_tid)
    #: Filled in as the transaction progresses.
    home: int = -1
    llc_hit: Optional[bool] = None
    completed_at: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    # -- checkpointing ---------------------------------------------------

    def to_state(self) -> dict:
        return {
            "core_node": self.core_node,
            "addr": self.addr,
            "is_instruction": self.is_instruction,
            "is_write": self.is_write,
            "issued_at": self.issued_at,
            "tid": self.tid,
            "home": self.home,
            "llc_hit": self.llc_hit,
            "completed_at": self.completed_at,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Transaction":
        # ``tid`` is passed explicitly, so the id factory is not called.
        return cls(**state)


class LlcSlice:
    """One 128 KB slice of the distributed NUCA LLC."""

    def __init__(
        self,
        node: int,
        chip: "Chip",
        hit_ratio: float,
    ):
        self.node = node
        self.chip = chip
        self.hit_ratio = hit_ratio
        self._busy_until = 0
        self.hits = 0
        self.misses = 0

    @property
    def params(self):
        return self.chip.params.cache

    # -- request handling --------------------------------------------------

    def handle_request(self, txn: Transaction, now: int) -> None:
        """A request arrived (over the NoC or from the local core)."""
        start = max(now, self._busy_until)
        tag_done = start + self.params.tag_lookup_cycles
        hit = self.chip.rng.random() < self.hit_ratio
        txn.llc_hit = hit
        if hit:
            self.hits += 1
            self._busy_until = tag_done + self.params.data_lookup_cycles
            self.chip.schedule(tag_done, self._tag_hit, txn)
        else:
            self.misses += 1
            self._busy_until = tag_done
            self.chip.schedule(tag_done, self._tag_miss, txn)
        if txn.is_write:
            self._handle_write_coherence(txn)

    # -- hit path: the PRA window --------------------------------------------

    def _tag_hit(self, txn: Transaction) -> None:
        """Tag lookup done; data will be ready in data_lookup_cycles."""
        data_cycles = self.params.data_lookup_cycles
        if txn.core_node == self.node:
            # Local hit: the response never enters the network.
            now = self.chip.network.cycle
            self.chip.schedule(
                now + data_cycles, self.chip.complete_local, txn
            )
            return
        response = Packet(
            self.node,
            txn.core_node,
            MessageClass.RESPONSE,
            created=self.chip.network.cycle,
            payload=txn,
        )
        # The LLC controller notifies the NI: the PRA LLC-hit trigger.
        self.chip.network.announce(response, ready_in=data_cycles)
        self.chip.schedule(
            self.chip.network.cycle + data_cycles,
            self._send_response,
            response,
        )

    def _send_response(self, response: Packet) -> None:
        response.created = self.chip.network.cycle
        self.chip.network.send(response)

    # -- miss path ---------------------------------------------------------------

    def _tag_miss(self, txn: Transaction) -> None:
        now = self.chip.network.cycle
        channel = self.chip.channel_for(txn.addr)
        response: Optional[Packet] = None
        if txn.core_node != self.node:
            response = Packet(
                src=self.node,
                dst=txn.core_node,
                msg_class=MessageClass.RESPONSE,
                created=now,
                payload=txn,
            )
        # Arguments are passed positionally (not closed over) so the
        # pending completion is checkpointable.
        done = channel.access(now, self._mem_done, txn, response)
        if response is not None and self._memory_trigger_enabled():
            # Extension: the DRAM completion time is deterministic at
            # issue, so the controller can pre-allocate the miss
            # response's path just like a hit's (see PraParams).
            self.chip.network.announce(response, ready_in=done - now)

    def _memory_trigger_enabled(self) -> bool:
        noc = self.chip.params.noc
        return noc.pra.use_memory_trigger

    def _mem_done(self, txn: Transaction,
                  response: Optional[Packet]) -> None:
        if response is None:
            self.chip.complete_local(txn)
            return
        response.created = self.chip.network.cycle
        self.chip.network.send(response)

    # -- coherence ------------------------------------------------------------------

    def _handle_write_coherence(self, txn: Transaction) -> None:
        directory = self.chip.directories[self.node]
        to_invalidate = directory.record_write(block_of(txn.addr), txn.core_node)
        for sharer in to_invalidate:
            if sharer == self.node:
                continue
            self.chip.send_coherence(self.node, sharer)

    def record_read_sharer(self, txn: Transaction) -> None:
        self.chip.directories[self.node].record_read(
            block_of(txn.addr), txn.core_node
        )

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "busy_until": self._busy_until,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        self._busy_until = state["busy_until"]
        self.hits = state["hits"]
        self.misses = state["misses"]
