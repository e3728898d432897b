"""Crossbar area/energy: a matrix crossbar in the wire-dominated regime.

Area scales with (ports x width)² at the wire pitch; energy per
traversal scales with the bits moved across the switch span.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.topology import Direction
from repro.params import ChipParams

#: Matrix-crossbar area coefficient (wire pitch squared with layout
#: overhead), mm² per (port·bit)² at 200 nm pitch.
XBAR_AREA_COEFF = 3.4e-8

#: Dynamic energy per bit crossing the switch.
XBAR_ENERGY_FJ_PER_BIT = 22.0


@dataclass(frozen=True)
class CrossbarModel:
    """One router's switch fabric."""

    ports: int
    width_bits: int
    #: Extra input legs for bypass paths (SMART pass-through, PRA's
    #: bypass and latch inputs) widen the switch.
    extra_input_fraction: float = 0.0

    @property
    def area_mm2(self) -> float:
        eff_ports = self.ports * (1.0 + self.extra_input_fraction)
        return XBAR_AREA_COEFF * (eff_ports * self.width_bits) ** 2 / self.ports

    def traversal_energy_j(self, bits: int) -> float:
        return bits * XBAR_ENERGY_FJ_PER_BIT * 1e-15


def data_crossbar(chip: ChipParams, extra_input_fraction: float = 0.0) -> CrossbarModel:
    """A mesh router's switch: one leg per :class:`Direction`."""
    return CrossbarModel(
        ports=len(Direction),
        width_bits=chip.noc.router.link_width_bits,
        extra_input_fraction=extra_input_fraction,
    )
