"""Synthetic per-core memory access traces.

Generates every core's L1-miss stream: instruction fetches walk a large
instruction footprint (the defining property of server workloads [1],
[2]), data accesses mix a hot working set with a cold zipf-ish tail.
Every :class:`~repro.perf.core_model.CoreModel` draws its misses and
the instruction gaps between them from here, and each miss's address
picks its home LLC slice, its memory channel and its directory
sharers — in the statistical LLC mode as much as in the detailed one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.tile.address import BLOCK_BYTES
from repro.workloads.profiles import WorkloadProfile


@dataclass
class Access:
    addr: int
    is_instruction: bool
    is_write: bool


class AccessTraceGenerator:
    """Per-core generator of L1-miss accesses for one workload."""

    #: Instruction footprint far beyond L1-I capacity (paper Section I).
    INSTRUCTION_FOOTPRINT_BYTES = 16 * 1024 * 1024
    #: Hot data working set per core.
    HOT_DATA_BYTES = 2 * 1024 * 1024
    #: Cold data region (shared, rarely re-referenced).
    COLD_DATA_BYTES = 512 * 1024 * 1024

    #: Address-space bases keep the regions disjoint.
    _INSTR_BASE = 0x0000_0000
    _HOT_BASE = 0x4000_0000
    _COLD_BASE = 0x8000_0000

    def __init__(self, profile: WorkloadProfile, core_id: int, seed: int = 0):
        self.profile = profile
        self.core_id = core_id
        self.rng = random.Random(hash((seed, core_id)) & 0x7FFFFFFF)
        # Each core executes its own service threads but shares the
        # instruction footprint (OS + application code).
        self._instr_blocks = self.INSTRUCTION_FOOTPRINT_BYTES // BLOCK_BYTES
        self._hot_blocks = self.HOT_DATA_BYTES // BLOCK_BYTES
        self._cold_blocks = self.COLD_DATA_BYTES // BLOCK_BYTES

    def next_gap(self) -> int:
        """Instructions executed before the next L1 miss (geometric)."""
        mean = self.profile.mean_instructions_between_misses
        # Exponential (geometric in the limit) with the given mean.
        u = self.rng.random()
        gap = int(-mean * math.log(u)) if u > 0 else 1
        return max(1, gap)

    def next_access(self) -> Access:
        """The next missing access (its type and address)."""
        is_instruction = (
            self.rng.random() < self.profile.instruction_miss_fraction
        )
        if is_instruction:
            block = self.rng.randrange(self._instr_blocks)
            return Access(
                addr=self._INSTR_BASE + block * BLOCK_BYTES,
                is_instruction=True,
                is_write=False,
            )
        is_write = self.rng.random() < self.profile.write_fraction
        if self.rng.random() < 0.8:
            block = self.rng.randrange(self._hot_blocks)
            base = self._HOT_BASE + self.core_id * self.HOT_DATA_BYTES
        else:
            block = self.rng.randrange(self._cold_blocks)
            base = self._COLD_BASE
        return Access(
            addr=base + block * BLOCK_BYTES,
            is_instruction=False,
            is_write=is_write,
        )

    def stream(self, count: int) -> Iterator[Tuple[int, Access]]:
        """Yield ``count`` (instruction_gap, access) pairs."""
        for _ in range(count):
            yield self.next_gap(), self.next_access()

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        from repro.checkpoint.codec import rng_state

        return {"rng": rng_state(self.rng)}

    def load_state(self, state: dict) -> None:
        from repro.checkpoint.codec import set_rng_state

        set_rng_state(self.rng, state["rng"])
