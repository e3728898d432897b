"""Synthetic network-level traffic for validation and load sweeps.

These patterns drive a bare network (no tiles/cores) the way BookSim's
standalone mode does; they back the load-latency ablation benches and
the property tests.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import List, Optional

from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.params import MessageClass


class TrafficPattern(Enum):
    UNIFORM_RANDOM = "uniform_random"
    TRANSPOSE = "transpose"
    HOTSPOT = "hotspot"
    NEIGHBOR = "neighbor"
    #: Request to a uniform destination; the destination replies with a
    #: 5-flit response (the server request-reply shape).
    REQUEST_REPLY = "request_reply"


class SyntheticTraffic:
    """Open-loop injector: Bernoulli per node per cycle."""

    def __init__(
        self,
        network: Network,
        pattern: TrafficPattern,
        injection_rate: float,
        seed: int = 0,
        hotspot_nodes: Optional[List[int]] = None,
        response_size: int = 5,
    ):
        if not (0.0 <= injection_rate <= 1.0):
            raise ValueError("injection rate must be a probability")
        if response_size < 1:
            raise ValueError(
                f"response_size must be at least 1 flit, got {response_size}"
            )
        self.network = network
        self.pattern = pattern
        self.rate = injection_rate
        self.rng = random.Random(seed)
        self.hotspot_nodes = hotspot_nodes or [0]
        self.response_size = response_size
        self.offered = 0
        #: Optional ``node -> bool`` predicate.  When set, packets whose
        #: source node fails it are *dropped after* every RNG draw has
        #: been made, so the random stream (and therefore every other
        #: node's injections) is bit-identical with or without the
        #: filter.  The sharded engine uses this to let each shard
        #: replay only its own rows of the global injection sequence.
        self.inject_filter = None
        if pattern is TrafficPattern.REQUEST_REPLY:
            network.on_delivery(self._maybe_reply)

    # -- injection ---------------------------------------------------------

    def inject(self) -> None:
        """Inject this cycle's packets (without stepping the network)."""
        # Endpoints only: pure-routing nodes (a chiplet star's IO die)
        # never source or sink traffic.  Equal to num_nodes everywhere
        # else, so mesh/ring random streams are unchanged.
        num_nodes = self.network.topology.num_endpoints
        rng_random = self.rng.random
        rate = self.rate
        for node in range(num_nodes):
            if rng_random() >= rate:
                continue
            dst = self._destination(node, num_nodes)
            if dst is None or dst == node:
                continue
            msg_class = (
                MessageClass.REQUEST
                if self.pattern is TrafficPattern.REQUEST_REPLY
                else self._random_class()
            )
            if self.inject_filter is not None \
                    and not self.inject_filter(node):
                continue
            pkt = Packet(node, dst, msg_class, created=self.network.cycle)
            self.network.send(pkt)
            self.offered += 1

    def step(self) -> None:
        """Inject this cycle's packets, then advance the network."""
        self.inject()
        self.network.step()

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def _destination(self, node: int, num_nodes: int) -> Optional[int]:
        if self.pattern in (TrafficPattern.UNIFORM_RANDOM,
                            TrafficPattern.REQUEST_REPLY):
            return self.rng.randrange(num_nodes)
        if self.pattern is TrafficPattern.TRANSPOSE:
            topo = self.network.topology
            x, y = topo.coords(node)
            if x >= topo.height or y >= topo.width:
                return None
            return topo.node_at(y, x)
        if self.pattern is TrafficPattern.HOTSPOT:
            if self.rng.random() < 0.5:
                return self.rng.choice(self.hotspot_nodes)
            return self.rng.randrange(num_nodes)
        if self.pattern is TrafficPattern.NEIGHBOR:
            topo = self.network.topology
            limit = topo.num_endpoints
            neighbors = [n for _, n in topo.neighbors(node) if n < limit]
            return self.rng.choice(neighbors)
        raise ValueError(f"unhandled pattern {self.pattern}")

    def _random_class(self) -> MessageClass:
        # Server-like mix: mostly single-flit requests, some multi-flit
        # responses, a little coherence.
        r = self.rng.random()
        if r < 0.55:
            return MessageClass.REQUEST
        if r < 0.95:
            return MessageClass.RESPONSE
        return MessageClass.COHERENCE

    def _maybe_reply(self, packet: Packet, now: int) -> None:
        if packet.msg_class is not MessageClass.REQUEST:
            return
        reply = Packet(
            packet.dst,
            packet.src,
            MessageClass.RESPONSE,
            size=self.response_size,
            created=now,
        )
        self.network.send(reply)
        self.offered += 1

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        from repro.checkpoint.codec import rng_state

        return {
            "pattern": self.pattern.value,
            "rate": self.rate,
            "hotspot_nodes": list(self.hotspot_nodes),
            "response_size": self.response_size,
            "offered": self.offered,
            "rng": rng_state(self.rng),
        }

    @classmethod
    def from_state(cls, network: Network, state: dict) -> "SyntheticTraffic":
        from repro.checkpoint.codec import set_rng_state

        # The constructor re-registers the REQUEST_REPLY delivery hook.
        traffic = cls(
            network,
            TrafficPattern(state["pattern"]),
            state["rate"],
            hotspot_nodes=list(state["hotspot_nodes"]),
            response_size=state["response_size"],
        )
        traffic.offered = state["offered"]
        set_rng_state(traffic.rng, state["rng"])
        return traffic
