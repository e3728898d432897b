"""The baseline mesh organization (Table I, "Mesh").

An 8x8 grid of 1-stage speculative routers, 3 VCs per port (request,
coherence, response), 5 flits per VC, 2 cycles per hop at zero load.

Wiring is topology-driven: routers expose whatever port set the
topology graph declares for their node, and one pass over the
topology's link table (``topology.links``) connects each link to its
far-side entry port with its hop latency — so the same wiring code
builds plain meshes, rings, and chiplet hierarchies.
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
        for router in self.routers:
            for link in self.topology.links[router.node]:
                port = router.output_ports[link.port]
                port.connect(self.routers[link.neighbor], link.entry)
                # Only impose topology latencies that deviate from the
                # single-hop default: router classes own their pipeline
                # depth (SMART sets 3 on every port at construction).
                if link.latency != 2:
                    port.link_hop_latency = link.latency

    def _wire_ejection(self) -> None:
        for router, ni in zip(self.routers, self.interfaces):
            router.output_ports[Direction.LOCAL].connect_sink(ni)
