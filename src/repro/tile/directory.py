"""Directory slices: sharer tracking and coherence traffic.

Each tile holds a directory slice for the blocks homed there.  The paper
notes coherence traffic is negligible for server workloads ([4], [16],
[17]) and gives it a dedicated message class only to avoid protocol
deadlock.  We model the directory faithfully enough to generate that
message class: reads register sharers; writes invalidate other sharers
with single-flit coherence messages.  This runs in every LLC mode: the
statistical one decides hits and misses, never sharers."""

from __future__ import annotations

from typing import Dict, List, Set, Union


class DirectorySlice:
    """Sharer bookkeeping for the blocks homed at one tile.

    An entry is the reader's tile id while a block has one sharer, which
    is nearly every block of a server workload, and a list of the
    sharers in first-insertion order once a second one arrives.  A
    write iterates the set that the same ``add`` calls build, so
    invalidations leave in the order a set of sharers has always given
    them, and the insertion order is all a snapshot has to keep."""

    def __init__(self, node: int, max_tracked: int = 65536):
        self.node = node
        self._sharers: Dict[int, Union[int, List[int]]] = {}
        self._max_tracked = max_tracked
        self.invalidations_sent = 0

    def _make_room(self) -> None:
        """Evict the oldest tracked block when the slice is full (called
        before a new block is inserted)."""
        if len(self._sharers) >= self._max_tracked:
            self._sharers.pop(next(iter(self._sharers)))

    def record_read(self, block: int, requester: int) -> None:
        entry = self._sharers.get(block)
        if entry is None:
            self._make_room()
            self._sharers[block] = requester
        elif entry.__class__ is list:
            if requester not in entry:
                entry.append(requester)
        elif entry != requester:
            self._sharers[block] = [entry, requester]

    def record_write(self, block: int, requester: int) -> List[int]:
        """Register a writer; returns the sharers to invalidate."""
        entry = self._sharers.get(block)
        if entry is None:
            self._make_room()
            to_invalidate = []
        elif entry.__class__ is list:
            to_invalidate = [s for s in set(entry) if s != requester]
        else:
            to_invalidate = [] if entry == requester else [entry]
        self._sharers[block] = requester
        self.invalidations_sent += len(to_invalidate)
        return to_invalidate

    def sharers_of(self, block: int) -> Set[int]:
        entry = self._sharers.get(block)
        if entry is None:
            return set()
        return set(entry) if entry.__class__ is list else {entry}

    @property
    def tracked_blocks(self) -> int:
        return len(self._sharers)

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Blocks in insertion order (the eviction policy pops the
        oldest entry), flattened to ``[block, n, s1..sn, ...]`` with
        each block's ``n`` sharers in first-insertion order:
        :meth:`record_write` rebuilds the set from that order, so a
        restored slice invalidates in the order the original would."""
        flat: List[int] = []
        for block, entry in self._sharers.items():
            members = entry if entry.__class__ is list else [entry]
            flat += [block, len(members), *members]
        return {
            "sharers": flat,
            "invalidations_sent": self.invalidations_sent,
        }

    def load_state(self, state: dict) -> None:
        flat = state["sharers"]
        sharers: Dict[int, Union[int, List[int]]] = {}
        at = 0
        while at < len(flat):
            block, count = flat[at], flat[at + 1]
            if count < 1:
                raise ValueError(f"block {block} has {count} sharers")
            at += 2 + count
            sharers[block] = flat[at - 1] if count == 1 \
                else flat[at - count:at]
        if at != len(flat):
            raise ValueError("truncated sharer list")
        self._sharers = sharers
        self.invalidations_sent = state["invalidations_sent"]
