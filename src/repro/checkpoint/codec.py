"""Reference codec for checkpoint save/restore.

The ``state_dict``/``load_state`` methods across the simulator exchange
*references* instead of nested object dumps whenever an object is shared
(packets appear in VC buffers, event queues, reservation tables, and
plans all at once).  A :class:`SaveContext` assigns every live object a
stable reference and serializes each exactly once, in registries keyed
by id; a :class:`RestoreContext` materializes the registries first and
then resolves references while the component tree loads.

Reference encodings (JSON-safe tagged lists):

========================  ================================================
``["v", x]``              plain scalar (int/float/str/bool/None)
``["dir", d]``            :class:`~repro.noc.topology.Direction`
``["mc", v]``             :class:`~repro.params.MessageClass`
``["pkt", pid]``          :class:`~repro.noc.packet.Packet`
``["flit", pid, idx]``    :class:`~repro.noc.flit.Flit` (flit ``idx`` of
                          packet ``pid`` — flits are a pure function of
                          their packet, so they rematerialize on demand)
``["txn", tid]``          :class:`~repro.tile.llc.Transaction`
``["plan", plid]``        :class:`~repro.core.plan.PraPlan` (a control
                          packet in flight is its plan)
``["rp", node, d]``       a router's :class:`~repro.noc.ports.OutputPort`
``["nip", node]``         an NI's injection port
``["cb", key, name]``     bound method ``name`` of the owner registered
                          under ``key`` (e.g. ``["slice", 3]``)
========================  ================================================
"""

from __future__ import annotations

import base64
import random
import struct
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.plan import PraPlan
from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.topology import Direction, as_port
from repro.params import MessageClass
from repro.tile.llc import Transaction

#: Bumped whenever a change invalidates previously written snapshots or
#: persisted evaluation-grid cells.
CODE_VERSION = "9"

_SCALARS = (bool, int, float, str)

#: A Mersenne Twister state: 624 key words and the position index, each
#: below 2**32, packed little-endian.
_MT_WORDS = struct.Struct("<625I")


def rng_state(rng: random.Random) -> list:
    """``random.Random`` state as a JSON-safe ``[version, words,
    gauss_next]``, the 625 state words as one base64 string: a list of
    625 ints is 2.5x the JSON and 625 objects in the snapshot dict, and
    a system snapshot carries a generator per core."""
    version, words, gauss_next = rng.getstate()
    packed = base64.b64encode(_MT_WORDS.pack(*words)).decode("ascii")
    return [version, packed, gauss_next]


def set_rng_state(rng: random.Random, state: list) -> None:
    version, packed, gauss_next = state
    raw = base64.b64decode(packed, validate=True)
    if len(raw) != _MT_WORDS.size:
        raise ValueError(f"packed RNG state is {len(raw)} bytes, "
                         f"expected {_MT_WORDS.size}")
    rng.setstate((version, _MT_WORDS.unpack(raw), gauss_next))


class SaveContext:
    """Reference assignment + registry serialization for one snapshot."""

    def __init__(self) -> None:
        self._packets: Dict[int, Packet] = {}
        self._txns: Dict[int, Transaction] = {}
        #: Plans have no intrinsic id; they get sequential ones at first
        #: reference (keyed by object identity).
        self._plan_ids: Dict[int, int] = {}
        self._plans: Dict[int, PraPlan] = {}
        self._owner_keys: Dict[int, Tuple] = {}

    # -- typed references -------------------------------------------------

    def packet_ref(self, packet: Optional[Packet]) -> Optional[list]:
        if packet is None:
            return None
        self._packets[packet.pid] = packet
        return ["pkt", packet.pid]

    def flit_ref(self, flit: Optional[Flit]) -> Optional[list]:
        if flit is None:
            return None
        self._packets[flit.packet.pid] = flit.packet
        return ["flit", flit.packet.pid, flit.index]

    def txn_ref(self, txn: Optional[Transaction]) -> Optional[list]:
        if txn is None:
            return None
        self._txns[txn.tid] = txn
        return ["txn", txn.tid]

    def plan_ref(self, plan: Optional[PraPlan]) -> Optional[list]:
        if plan is None:
            return None
        plid = self._plan_ids.get(id(plan))
        if plid is None:
            plid = len(self._plan_ids)
            self._plan_ids[id(plan)] = plid
            self._plans[plid] = plan
        return ["plan", plid]

    def port_ref(self, port: OutputPort) -> list:
        if port.router is None:
            return ["nip", port.node]
        return ["rp", port.router.node, int(port.direction)]

    def register_owner(self, key: Tuple, obj: Any) -> None:
        """Register a callback owner under a stable key (both sides of a
        snapshot must register the same owners)."""
        self._owner_keys[id(obj)] = key

    def callback_ref(self, fn: Callable) -> list:
        owner = getattr(fn, "__self__", None)
        if owner is None:
            raise TypeError(
                f"only bound methods are checkpointable, got {fn!r}"
            )
        key = self._owner_keys.get(id(owner))
        if key is None:
            raise TypeError(
                f"callback owner {type(owner).__name__} is not registered"
            )
        return ["cb", list(key), fn.__name__]

    # -- generic encode ---------------------------------------------------

    def ref(self, value: Any) -> Any:
        """Encode an arbitrary supported value (event/call arguments)."""
        # Enums first: IntEnum instances would pass the int check below.
        if isinstance(value, Direction):
            return ["dir", int(value)]
        if isinstance(value, MessageClass):
            return ["mc", value.value]
        if isinstance(value, Enum):
            raise TypeError(f"unsupported enum type {type(value).__name__}")
        if value is None or isinstance(value, _SCALARS):
            return ["v", value]
        if isinstance(value, Packet):
            return self.packet_ref(value)
        if isinstance(value, Flit):
            return self.flit_ref(value)
        if isinstance(value, Transaction):
            return self.txn_ref(value)
        if isinstance(value, PraPlan):
            return self.plan_ref(value)
        if isinstance(value, OutputPort):
            return self.port_ref(value)
        raise TypeError(
            f"cannot checkpoint value of type {type(value).__name__}"
        )

    # -- registry output --------------------------------------------------

    def finalize(self) -> dict:
        """Serialize every registered object (fixpoint: serializing one
        object may register more — a plan references its packet, a
        packet its plan)."""
        packets: Dict[int, dict] = {}
        plans: Dict[int, dict] = {}
        txns: Dict[int, dict] = {}
        progress = True
        while progress:
            progress = False
            for pid in list(self._packets):
                if pid not in packets:
                    packets[pid] = self._packets[pid].state_dict(self)
                    progress = True
            for plid in list(self._plans):
                if plid not in plans:
                    plans[plid] = self._plans[plid].state_dict(self)
                    progress = True
            for tid in list(self._txns):
                if tid not in txns:
                    txns[tid] = self._txns[tid].to_state()
                    progress = True
        return {
            "packets": [[pid, packets[pid]] for pid in sorted(packets)],
            "plans": [[plid, plans[plid]] for plid in sorted(plans)],
            "txns": [[tid, txns[tid]] for tid in sorted(txns)],
        }


class RestoreContext:
    """Registry materialization + reference resolution for one restore."""

    def __init__(self, network, registries: dict) -> None:
        #: The freshly built network the state is being loaded into;
        #: ``from_state`` implementations resolve node-indexed structure
        #: (interfaces, routers) through it.
        self.network = network
        self._registries = registries
        self._packets: Dict[int, Packet] = {}
        self._plans: Dict[int, PraPlan] = {}
        self._txns: Dict[int, Transaction] = {}
        self._owners: Dict[Tuple, Any] = {}

    def register_owner(self, key: Tuple, obj: Any) -> None:
        self._owners[key] = obj

    def materialize(self) -> None:
        """Build registry objects in dependency order, then wire the
        cross-references that ``from_state`` shells left out."""
        reg = self._registries
        for tid, state in reg.get("txns", []):
            self._txns[tid] = Transaction.from_state(state)
        packet_states: List[Tuple[Packet, dict]] = []
        for pid, state in reg.get("packets", []):
            packet = Packet.from_state(state)
            self._packets[pid] = packet
            packet_states.append((packet, state))
        for plid, state in reg.get("plans", []):
            self._plans[plid] = PraPlan.from_state(state, self)
        # Packet shells reference payloads/plans that now all exist.
        for packet, state in packet_states:
            packet.payload = self.deref(state["payload"])
            packet.pra_plan = self.plan(state["pra_plan"])

    # -- typed resolution -------------------------------------------------

    def packet(self, ref: Optional[list]) -> Optional[Packet]:
        if ref is None:
            return None
        return self._packets[ref[1]]

    def flit(self, ref: Optional[list]) -> Optional[Flit]:
        if ref is None:
            return None
        return self._packets[ref[1]].flits[ref[2]]

    def txn(self, ref: Optional[list]) -> Optional[Transaction]:
        if ref is None:
            return None
        return self._txns[ref[1]]

    def plan(self, ref: Optional[list]) -> Optional[PraPlan]:
        if ref is None:
            return None
        return self._plans[ref[1]]

    def port(self, ref: list) -> OutputPort:
        if ref[0] == "nip":
            return self.network.interfaces[ref[1]].port
        return self.network.routers[ref[1]].output_ports[as_port(ref[2])]

    def callback(self, ref: list) -> Callable:
        _, key, name = ref
        owner = self._owners.get(tuple(key))
        if owner is None:
            raise KeyError(f"callback owner {key!r} is not registered")
        return getattr(owner, name)

    # -- generic decode ---------------------------------------------------

    def deref(self, value: Any) -> Any:
        if value is None:
            return None
        tag = value[0]
        if tag == "v":
            return value[1]
        if tag == "dir":
            return as_port(value[1])
        if tag == "mc":
            return MessageClass(value[1])
        if tag == "pkt":
            return self.packet(value)
        if tag == "flit":
            return self.flit(value)
        if tag == "txn":
            return self.txn(value)
        if tag == "plan":
            return self.plan(value)
        if tag in ("rp", "nip"):
            return self.port(value)
        if tag == "cb":
            return self.callback(value)
        raise ValueError(f"unknown reference tag {tag!r}")
