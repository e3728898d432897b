"""The baseline mesh organization (Table I, "Mesh").

An 8x8 grid of 1-stage speculative routers, 3 VCs per port (request,
coherence, response), 5 flits per VC, 2 cycles per hop at zero load.

Wiring is topology-driven: routers expose whatever port set the
topology graph declares for their node, links connect through
``topology.entry_port`` (the far-side input port), and each link takes
its hop latency from ``topology.link_latency`` — so the same wiring
code builds plain meshes, rings, and chiplet hierarchies.
"""

from __future__ import annotations

from repro.noc.interface import NetworkInterface
from repro.noc.network import Network
from repro.noc.router import MeshRouter
from repro.noc.topology import Direction
from repro.params import NocParams


class MeshNetwork(Network):
    """Baseline mesh: wiring of routers and network interfaces."""

    router_class = MeshRouter
    interface_class = NetworkInterface

    def __init__(self, params: NocParams):
        super().__init__(params)
        self.routers = [
            self.router_class(node, self) for node in range(self.topology.num_nodes)
        ]
        self._wire_links()
        self.interfaces = [
            self.interface_class(node, self, self.routers[node])
            for node in range(self.topology.num_nodes)
        ]
        self._wire_ejection()

    def _wire_links(self) -> None:
        topo = self.topology
        for router in self.routers:
            for direction, neighbor in topo.neighbors(router.node):
                port = router.output_ports[direction]
                port.connect(self.routers[neighbor],
                             topo.entry_port(router.node, direction))
                # Only impose topology latencies that deviate from the
                # single-hop default: router classes own their pipeline
                # depth (SMART sets 3 on every port at construction).
                latency = topo.link_latency(router.node, direction)
                if latency != 2:
                    port.link_hop_latency = latency

    def _wire_ejection(self) -> None:
        for router, ni in zip(self.routers, self.interfaces):
            router.output_ports[Direction.LOCAL].connect_sink(ni)
