"""Flits: the unit of link bandwidth and buffering.

A packet of ``size`` flits is decomposed into one head flit, ``size - 2``
body flits, and one tail flit (a single-flit packet's flit is both head
and tail).  Flits carry a reference to their packet; routing state lives
on the packet.

Flits are a pure function of ``(packet, index)`` with no mutable state
of their own: a packet materializes its flits on first access, and
checkpoints reference a flit as ``(pid, index)``.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.packet import Packet


class FlitType(Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    HEAD_TAIL = "head_tail"  # single-flit packet


class Flit:
    """One flit of a packet.

    ``index`` is the flit's position within the packet (0 = head).
    """

    __slots__ = ("packet", "index", "kind", "is_head", "is_tail")

    def __init__(self, packet: "Packet", index: int):
        size = packet.size
        if not (0 <= index < size):
            raise ValueError(f"flit index {index} outside packet of {size}")
        self.packet = packet
        self.index = index
        #: Materialized head/tail flags: the arbiters read these on
        #: every flit move, so a property would dominate the hot path.
        self.is_head = index == 0
        self.is_tail = index == size - 1
        if size == 1:
            self.kind = FlitType.HEAD_TAIL
        elif index == 0:
            self.kind = FlitType.HEAD
        elif index == size - 1:
            self.kind = FlitType.TAIL
        else:
            self.kind = FlitType.BODY

    def __repr__(self) -> str:
        return f"Flit(pkt={self.packet.pid}, idx={self.index}, {self.kind.value})"
