"""The tiled-CMP substrate: caches, LLC slices, directory, memory.

A 64-tile Scale-Out-Processor-style chip (Table I): each tile holds a
core, its L1 caches, one 128 KB slice of the 8 MB NUCA LLC, a directory
slice, and a network interface.  Four DDR3-1600 memory channels sit at
the mesh edges.  Blocks are interleaved across slices by block address.
"""

from repro.tile.address import home_slice, memory_channel, block_of
from repro.tile.llc import LlcSlice, Transaction
from repro.tile.memory import MemoryChannel
from repro.tile.directory import DirectorySlice
from repro.tile.chip import Chip

__all__ = [
    "home_slice",
    "memory_channel",
    "block_of",
    "LlcSlice",
    "Transaction",
    "MemoryChannel",
    "DirectorySlice",
    "Chip",
]
