"""Pre-allocated paths: the product of a successful control-packet run.

A :class:`PraPlan` records, slot by slot, how a data packet will cross a
stretch of the network once proactive resource allocation has succeeded:
a sequence of :class:`PlanStep`\\ s, each one single-cycle traversal of
one or two hops.  The data-network routers execute the plan through
the windows promised to it (:mod:`repro.core.reservation`), which die
with the plan's ``cancelled`` flag; the plan object itself tracks only
the claims that hold a resource *now* — the landing VC's credits and the
source NI's VC and pin — so they can be refunded if the packet misses
its window.

Terminology mapping to the paper (Figures 3-5):

* a 2-hop step's middle router is *bypassed* — its mux/demux are set so
  the flit goes link → crossbar → link combinationally ("bypass VC");
* each step's landing router stores the flit for one cycle in the
  *latch* when the chain continues there, or in a standard VC (with
  full-packet buffer space claimed) when the chain ends there;
* the upstream conversion of a standard-VC landing into a latch landing
  when the next reservation succeeds models the ACK signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.noc.packet import Packet
from repro.noc.topology import Direction

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.ports import OutputPort

#: Landing kinds.
LAND_VC = "vc"
LAND_LATCH = "latch"
LAND_NI = "ni"

#: Source kinds at a step's driver router.
SRC_VC = "vc"
SRC_LATCH = "latch"


@dataclass
class PlanStep:
    """One single-cycle traversal (1 or 2 hops) of a pre-allocated path."""

    #: Router where the flit starts this cycle.
    driver_node: int
    #: Output direction at the driver (and at the bypassed router).
    out_dir: Direction
    #: Cycle the step's first (head) flit traverses.
    slot: int
    #: 1 or 2 hops this cycle.
    hops: int
    #: Where the flit is read from at the driver.
    source_kind: str
    source_dir: Direction = Direction.LOCAL
    source_vc: int = 0
    #: Bypassed router (only for 2-hop steps).
    via_node: Optional[int] = None
    #: Router (or NI) the flit lands in at the end of the cycle.
    landing_node: int = 0
    #: One of LAND_VC / LAND_LATCH / LAND_NI; VC landings are converted
    #: to latch landings by the ACK when the chain extends.
    landing_kind: str = LAND_VC
    #: Entry direction at the landing router (for latch/VC addressing).
    landing_entry: Direction = Direction.LOCAL

    def state_dict(self) -> dict:
        return {
            "driver_node": self.driver_node,
            "out_dir": int(self.out_dir),
            "slot": self.slot,
            "hops": self.hops,
            "source_kind": self.source_kind,
            "source_dir": int(self.source_dir),
            "source_vc": self.source_vc,
            "via_node": self.via_node,
            "landing_node": self.landing_node,
            "landing_kind": self.landing_kind,
            "landing_entry": int(self.landing_entry),
        }

    @classmethod
    def from_state(cls, state: dict) -> "PlanStep":
        return cls(
            driver_node=state["driver_node"],
            out_dir=Direction(state["out_dir"]),
            slot=state["slot"],
            hops=state["hops"],
            source_kind=state["source_kind"],
            source_dir=Direction(state["source_dir"]),
            source_vc=state["source_vc"],
            via_node=state["via_node"],
            landing_node=state["landing_node"],
            landing_kind=state["landing_kind"],
            landing_entry=Direction(state["landing_entry"]),
        )


class PraPlan:
    """A data packet's active pre-allocated path and its claims."""

    def __init__(self, packet: Packet, start_slot: int):
        self.packet = packet
        self.start_slot = start_slot
        self.steps: List[PlanStep] = []
        self.cancelled = False
        #: True once the last step's tail flit has been driven; finished
        #: plans keep their (already consumed) windows until the row's
        #: next claim, which the leak checkers must not flag.
        self.finished = False
        #: Current standard-VC claim at the chain's tail:
        #: (port feeding the landing router, vc index, credits claimed).
        self.vc_claim: Optional[Tuple["OutputPort", int, int]] = None
        #: True when the source NI's local VC was claimed (or chained)
        #: for this packet and the injection slot pinned.
        self.injection_claim = False
        #: The source NI, for releasing a pin on cancellation.
        self.source_interface = None

    @property
    def size(self) -> int:
        return self.packet.size

    # -- claims -----------------------------------------------------------

    def claim_landing_vc(self, port: "OutputPort", vc_index: int) -> None:
        assert self.vc_claim is None, "only one VC claim may be active"
        vc = port.downstream_vc(vc_index)
        vc.allocated_to = self.packet
        port.claim_buffer(vc_index, self.size)
        self.vc_claim = (port, vc_index, self.size)

    def release_landing_vc(self) -> None:
        """Undo the current VC claim (ACK received or plan cancelled)."""
        if self.vc_claim is None:
            return
        port, vc_index, remaining = self.vc_claim
        vc = port.downstream_vc(vc_index)
        if vc.allocated_to is self.packet and vc.is_empty:
            vc.allocated_to = None
        port.refund_buffer(vc_index, remaining)
        self.vc_claim = None

    def consume_landing_credit(self) -> None:
        """One proactively delivered flit occupied its promised slot."""
        assert self.vc_claim is not None
        port, vc_index, remaining = self.vc_claim
        port.consume_claim(vc_index)
        if remaining - 1 == 0:
            self.vc_claim = None
        else:
            self.vc_claim = (port, vc_index, remaining - 1)

    # -- lifecycle ---------------------------------------------------------

    def cancel(self) -> None:
        """Release every outstanding claim; the packet proceeds normally.

        Called when the data packet misses its first slot (it was delayed
        by events the control packet could not foresee) or when a run
        aborts after partial construction failure.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.packet.pra_plan = None
        self.packet.pra_pending = False
        self.release_landing_vc()
        if self.source_interface is not None:
            if self.injection_claim:
                vc = self.source_interface.port.downstream_vc(
                    self.packet.vc_index
                )
                if vc.next_claim is self.packet:
                    vc.next_claim = None
                elif vc.allocated_to is self.packet and vc.is_empty:
                    # Promote a chained claim immediately: the VC is
                    # free, so the successor owns it from now on.
                    vc.allocated_to = vc.next_claim
                    vc.next_claim = None
            self.source_interface.release_pin(self.packet)

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        """Scalar plan state plus the VC claim by port locator."""
        vc_claim = None
        if self.vc_claim is not None:
            port, vc_index, remaining = self.vc_claim
            vc_claim = [ctx.port_ref(port), vc_index, remaining]
        return {
            "packet": ctx.packet_ref(self.packet),
            "start_slot": self.start_slot,
            "steps": [step.state_dict() for step in self.steps],
            "cancelled": self.cancelled,
            "finished": self.finished,
            "vc_claim": vc_claim,
            "injection_claim": self.injection_claim,
            "source_interface": (
                self.source_interface.node
                if self.source_interface is not None else None
            ),
        }

    @classmethod
    def from_state(cls, state: dict, ctx) -> "PraPlan":
        plan = cls(ctx.packet(state["packet"]), state["start_slot"])
        plan.steps = [PlanStep.from_state(s) for s in state["steps"]]
        plan.cancelled = state["cancelled"]
        plan.finished = state["finished"]
        if state["vc_claim"] is not None:
            port_ref, vc_index, remaining = state["vc_claim"]
            plan.vc_claim = (ctx.port(port_ref), vc_index, remaining)
        plan.injection_claim = state["injection_claim"]
        if state["source_interface"] is not None:
            plan.source_interface = ctx.network.interfaces[
                state["source_interface"]
            ]
        return plan

    def __repr__(self) -> str:
        return (
            f"PraPlan(pkt={self.packet.pid}, start={self.start_slot}, "
            f"steps={len(self.steps)}, cancelled={self.cancelled})"
        )
