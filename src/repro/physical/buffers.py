"""Buffer models: flip-flop based, as in DSENT for small buffer counts.

All organizations have few buffers (5 ports x 3 VCs x 5 flits of 128
bits per router), so flip-flop storage is the right model (paper Section
IV-B).  The per-bit cell area is the calibration constant that anchors
the mesh total at the paper's 3.5 mm².
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.topology import Direction
from repro.params import NUM_MESSAGE_CLASSES, ChipParams

#: Flip-flop storage cell (incl. local control overhead), mm² per bit at
#: 32 nm.  Calibration anchor for the Figure 8 totals.
FLIPFLOP_AREA_MM2_PER_BIT = 3.3e-6

#: Dynamic energy per bit written to or read from a flip-flop buffer.
BUFFER_ENERGY_FJ_PER_BIT = 18.0

#: Leakage per buffered bit (flip-flops leak little vs. SRAM arrays).
BUFFER_LEAKAGE_UW_PER_BIT = 0.035


@dataclass(frozen=True)
class BufferModel:
    """Aggregate flit-buffer storage of one router."""

    bits: int

    @property
    def area_mm2(self) -> float:
        return self.bits * FLIPFLOP_AREA_MM2_PER_BIT

    @property
    def leakage_w(self) -> float:
        return self.bits * BUFFER_LEAKAGE_UW_PER_BIT * 1e-6


def router_vc_buffer_bits(chip: ChipParams) -> int:
    """Standard VC storage of one router (all organizations): a mesh
    router's five input ports (one per :class:`Direction`), each with
    one VC per message class, as Figure 8's single-layer mesh builds."""
    r = chip.noc.router
    return (len(Direction) * NUM_MESSAGE_CLASSES * r.flits_per_vc
            * r.link_width_bits)


def pra_extra_buffer_bits(chip: ChipParams) -> int:
    """Mesh+PRA additions per router: one latch per input port plus the
    per-output-port reservation bit vectors (Figure 4)."""
    r = chip.noc.router
    latch_bits = len(Direction) * r.link_width_bits
    # Per slot: valid + input select (3b) + local VC select (3b, incl.
    # bypass/latch encodings) + downstream VC select (3b).
    slot_bits = 1 + 3 + 3 + 3
    vector_bits = (len(Direction) * chip.noc.pra.reservation_horizon
                   * slot_bits)
    return latch_bits + vector_bits
