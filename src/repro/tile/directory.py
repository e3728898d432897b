"""Directory slices: sharer tracking and coherence traffic.

Each tile holds a directory slice for the blocks homed there.  The paper
notes coherence traffic is negligible for server workloads ([4], [16],
[17]) and gives it a dedicated message class only to avoid protocol
deadlock.  We model the directory faithfully enough to generate that
message class: reads register sharers; writes invalidate other sharers
with single-flit coherence messages.  This runs in every LLC mode: the
statistical one decides hits and misses, never sharers."""

from __future__ import annotations

from typing import Dict, List, Set


class DirectorySlice:
    """Sharer bookkeeping for the blocks homed at one tile."""

    def __init__(self, node: int, max_tracked: int = 65536):
        self.node = node
        self._sharers: Dict[int, Set[int]] = {}
        self._max_tracked = max_tracked
        self.invalidations_sent = 0

    def record_read(self, block: int, requester: int) -> None:
        sharers = self._sharers.get(block)
        if sharers is None:
            if len(self._sharers) >= self._max_tracked:
                self._sharers.pop(next(iter(self._sharers)))
            sharers = set()
            self._sharers[block] = sharers
        sharers.add(requester)

    def record_write(self, block: int, requester: int) -> List[int]:
        """Register a writer; returns the sharers to invalidate."""
        sharers = self._sharers.get(block, set())
        to_invalidate = [s for s in sharers if s != requester]
        self._sharers[block] = {requester}
        self.invalidations_sent += len(to_invalidate)
        return to_invalidate

    def sharers_of(self, block: int) -> Set[int]:
        return set(self._sharers.get(block, set()))

    @property
    def tracked_blocks(self) -> int:
        return len(self._sharers)

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Blocks in insertion order (the eviction policy pops the
        oldest entry); each sharer set sorted.  A sharer set built by
        ``add`` alone iterates by value layout, not insertion history,
        so re-adding the sorted members reproduces the original
        invalidation order in :meth:`record_write`."""
        return {
            "sharers": [
                [block, sorted(members)]
                for block, members in self._sharers.items()
            ],
            "invalidations_sent": self.invalidations_sent,
        }

    def load_state(self, state: dict) -> None:
        self._sharers = {}
        for block, members in state["sharers"]:
            sharers: Set[int] = set()
            for member in members:
                sharers.add(member)
            self._sharers[block] = sharers
        self.invalidations_sent = state["invalidations_sent"]
