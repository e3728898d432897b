"""Virtual channels and input units.

Each router port has one VC per message class (request, coherence,
response), five flits deep — the minimum that covers the round-trip
credit time (Table I).  A VC is *allocated* to a packet from the moment
an upstream router (or NI) wins VC allocation for the packet's head flit
until the packet's tail flit leaves the buffer; flits of two packets
never interleave within a VC.

The Mesh+PRA input unit adds two extra entries (paper Figure 4): a
*bypass* path that feeds the crossbar combinationally and a *latch* used
as one-cycle storage in the middle of a pre-allocated multi-hop path.
Those live in :mod:`repro.core.pra_router`; here we provide the plain
buffered VC.
"""

from __future__ import annotations

from typing import List, Optional

from repro.noc.flit import Flit
from repro.noc.packet import Packet


class VirtualChannel:
    """A FIFO flit buffer with single-packet occupancy.

    The buffer is a plain list: it never holds more than ``capacity``
    (five) flits, so ``pop(0)`` shifts at most four pointers, and an
    empty list is 56 bytes against an empty deque's 760.
    """

    __slots__ = ("index", "capacity", "flits", "allocated_to", "next_claim",
                 "unit", "rr_key", "rr_id")

    def __init__(self, index: int, capacity: int):
        if capacity < 1:
            raise ValueError("VC capacity must be positive")
        self.index = index
        self.capacity = capacity
        self.flits: List[Flit] = []
        #: Packet that currently owns this VC (set at VC allocation time
        #: by the upstream arbiter, cleared when the tail flit departs).
        self.allocated_to: Optional[Packet] = None
        #: Chained proactive ownership: takes effect the moment the
        #: current owner's tail departs (used by PRA at a source NI whose
        #: injection schedule makes the hand-over deterministic).
        self.next_claim: Optional[Packet] = None
        #: Owning InputUnit (backref set by the unit).
        self.unit: Optional["InputUnit"] = None
        #: Arbitration key ``(input direction, vc index)`` (set by the
        #: unit); round-robin order is defined over it.
        self.rr_key: tuple = ()
        #: Dense router-wide rank of ``rr_key`` (assigned by the router);
        #: lets round-robin picks use modular arithmetic instead of a
        #: sort.
        self.rr_id: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.flits

    @property
    def occupancy(self) -> int:
        return len(self.flits)

    def can_accept_packet(self, packet: Packet) -> bool:
        """True when a new packet may be allocated this VC."""
        return self.allocated_to is None and self.is_empty

    def push(self, flit: Flit) -> None:
        if len(self.flits) >= self.capacity:
            raise OverflowError(
                f"VC{self.index} overflow: credit discipline violated"
            )
        self.flits.append(flit)

    def front(self) -> Optional[Flit]:
        return self.flits[0] if self.flits else None

    def pop(self) -> Flit:
        """Remove the front flit; releases the VC on tail departure (a
        chained proactive claim, if any, takes ownership immediately)."""
        flit = self.flits.pop(0)
        if flit.is_tail:
            self.allocated_to = self.next_claim
            self.next_claim = None
        return flit

    def state_dict(self, ctx) -> Optional[dict]:
        """None for an idle VC (no flits, no owner, no claim), which is
        most of a chip's VCs at any cycle."""
        if not self.flits and self.allocated_to is None \
                and self.next_claim is None:
            return None
        return {
            "flits": [ctx.flit_ref(flit) for flit in self.flits],
            "allocated_to": ctx.packet_ref(self.allocated_to),
            "next_claim": ctx.packet_ref(self.next_claim),
        }

    def load_state(self, state: Optional[dict], ctx) -> None:
        if state is None:
            self.flits = []
            self.allocated_to = self.next_claim = None
            return
        self.flits = [ctx.flit(ref) for ref in state["flits"]]
        self.allocated_to = ctx.packet(state["allocated_to"])
        self.next_claim = ctx.packet(state["next_claim"])

    def __repr__(self) -> str:
        owner = self.allocated_to.pid if self.allocated_to else None
        return f"VC(idx={self.index}, occ={len(self.flits)}, owner={owner})"


class InputUnit:
    """The per-port set of input VCs of a router."""

    __slots__ = ("direction", "vcs", "feeder_port")

    def __init__(self, direction, num_vcs: int, depth: int):
        self.direction = direction
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(i, depth) for i in range(num_vcs)
        ]
        for vc in self.vcs:
            vc.unit = self
            vc.rr_key = (int(direction), vc.index)
        #: Upstream OutputPort feeding this unit (set by Network wiring);
        #: credits return to it when flits are dequeued here.
        self.feeder_port = None
