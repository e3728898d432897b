"""Packets: the unit of routing, allocation, and (for PRA) reservation.

The paper's PRA pre-allocates resources for *whole packets* (not
individual flits, unlike flit-reservation flow control) so that flits of
a packet are never reordered on a single-cycle multi-hop path.  The
packet object therefore carries the PRA plan produced by a successful
control-packet run (see :mod:`repro.core.control_network`).

Packets and flits are plain objects.  On delivery the network drops a
settled packet's flit list, so the packet/flit reference cycle dies by
refcount rather than waiting for the cyclic collector.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.noc.flit import Flit
from repro.params import MessageClass, PACKET_FLITS

#: Next packet id to hand out.  A plain module int (rather than
#: ``itertools.count``) so checkpoints can capture and restore it.
_next_pid = 0


def _new_pid() -> int:
    global _next_pid
    pid = _next_pid
    _next_pid = pid + 1
    return pid


def peek_next_pid() -> int:
    """The id the next ``Packet()`` will receive (checkpoint support)."""
    return _next_pid


def set_next_pid(value: int) -> None:
    """Restart packet numbering from ``value`` (checkpoint restore)."""
    global _next_pid
    _next_pid = value


def reset_packet_ids() -> None:
    """Restart packet numbering (test isolation helper)."""
    set_next_pid(0)


class Packet:
    """A message traveling from ``src`` to ``dst``.

    Timestamps (all in cycles):

    * ``created`` — handed to the source network interface,
    * ``injected`` — head flit entered the source router,
    * ``ejected`` — tail flit delivered to the destination NI.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "msg_class",
        "size",
        "vc_index",
        "is_multi_flit",
        "flits",
        "created",
        "injected",
        "ejected",
        "payload",
        "pra_plan",
        "pra_pending",
        "pra_blocked_cycles",
        "hops_taken",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        msg_class: MessageClass,
        size: Optional[int] = None,
        created: int = 0,
        payload: Any = None,
    ):
        if size is None:
            size = PACKET_FLITS[msg_class]
        if size < 1:
            raise ValueError("packet size must be at least one flit")
        self.pid = _new_pid()
        self.src = src
        self.dst = dst
        self.msg_class = msg_class
        self.size = size
        #: Message classes map one-to-one onto VC indices; materialized
        #: here because the hot paths read it constantly.
        self.vc_index = msg_class.value
        self.is_multi_flit = size > 1
        self.created = created
        self.injected: Optional[int] = None
        self.ejected: Optional[int] = None
        self.payload = payload
        #: Active pre-allocated path, set by the PRA control network.
        self.pra_plan: Any = None
        #: True while a control packet is in flight (or a plan is active)
        #: for this packet; suppresses duplicate LSD injections.
        self.pra_pending = False
        #: Cycles this packet spent blocked behind resources that were
        #: proactively allocated to *another* packet (Section V-B stat).
        self.pra_blocked_cycles = 0
        #: Link traversals of the head flit (for stats / energy).
        self.hops_taken = 0

    def __getattr__(self, name: str) -> Any:
        # ``flits`` is materialized on first access: the ideal network
        # moves whole packets and never looks at individual flits, so
        # eager construction would waste a third of its runtime.
        if name == "flits":
            flits: List[Flit] = [Flit(self, i) for i in range(self.size)]
            self.flits = flits
            return flits
        raise AttributeError(name)

    def state_dict(self, ctx) -> Dict[str, Any]:
        """Serializable snapshot of this packet (see ``repro.checkpoint``).

        ``flits`` is deliberately absent: flits are a pure function of
        ``(packet, index)`` and references to them serialize as
        ``["flit", pid, index]``, which rematerializes them on demand.
        """
        return {
            "pid": self.pid,
            "src": self.src,
            "dst": self.dst,
            "msg_class": self.msg_class.value,
            "size": self.size,
            "vc_index": self.vc_index,
            "created": self.created,
            "injected": self.injected,
            "ejected": self.ejected,
            "payload": ctx.ref(self.payload),
            "pra_plan": ctx.plan_ref(self.pra_plan),
            "pra_pending": self.pra_pending,
            "pra_blocked_cycles": self.pra_blocked_cycles,
            "hops_taken": self.hops_taken,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Packet":
        """Rebuild a packet shell without consuming a fresh pid.

        ``payload`` and ``pra_plan`` are cross-references wired by the
        restore context after every registry object exists.
        """
        packet = cls.__new__(cls)
        packet.pid = state["pid"]
        packet.src = state["src"]
        packet.dst = state["dst"]
        packet.msg_class = MessageClass(state["msg_class"])
        packet.size = state["size"]
        packet.vc_index = state["vc_index"]
        packet.is_multi_flit = state["size"] > 1
        packet.created = state["created"]
        packet.injected = state["injected"]
        packet.ejected = state["ejected"]
        packet.payload = None
        packet.pra_plan = None
        packet.pra_pending = state["pra_pending"]
        packet.pra_blocked_cycles = state["pra_blocked_cycles"]
        packet.hops_taken = state["hops_taken"]
        return packet

    def network_latency(self) -> Optional[int]:
        if self.injected is None or self.ejected is None:
            return None
        return self.ejected - self.injected

    def total_latency(self) -> Optional[int]:
        if self.ejected is None:
            return None
        return self.ejected - self.created

    def __repr__(self) -> str:
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
            f"{self.msg_class.name}, {self.size}f)"
        )


def pool_summary() -> Dict[str, int]:
    """Zero counters: packets and flits have no free list (the benchmark
    ledger still reads them)."""
    return dict.fromkeys(("packets_acquired", "packets_reused",
                          "flits_acquired", "flits_reused"), 0)
