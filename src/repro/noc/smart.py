"""SMART: the single-cycle multi-hop network (Krishna et al., HPCA'13).

A SMART hop is a two-stage router pipeline followed by a single-cycle,
potentially multi-tile link traversal — three cycles per hop at zero
load (Table I).  The first stage performs routing, VC allocation, and
speculative crossbar allocation; the second broadcasts the SMART setup
request (SSR) on dedicated multi-drop wires to reserve a multi-hop path;
the third traverses crossbar(s) and link(s), covering up to ``HPC_max``
(= 2 at server-class tile sizes and 2 GHz) tiles.

Pipeline modeling: the two stages are *pipelined*, so they add latency
(a flit becomes visible at its next stop three cycles after its grant
instead of two) without costing link bandwidth — flits still stream one
per cycle through a held port.  The SSR outcome is resolved at grant
time against the intermediate router's state.

Bypass rules (SMART_1D with local priority):

* bypass only continues *straight* — a packet that turns or ejects at
  the next router stops there;
* a locally buffered flit competing for the intermediate router's output
  beats the SSR, which then falls back to a one-hop traversal;
* the bypass path is held for the whole packet, so flits of a packet are
  never reordered or interleaved (the hazard the paper attributes to
  per-flit reservation schemes).
"""

from __future__ import annotations

from typing import Optional

from repro.noc.mesh import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.router import MeshRouter
from repro.noc.topology import Direction

#: Grant-to-visibility latency: 2-stage pipeline + link (vs. 2 for mesh).
#: Ejection takes the extra pipeline stage too (a router ejects one
#: cycle under the port's hop latency).
SMART_HOP_LATENCY = 3


class SmartRouter(MeshRouter):
    """Mesh router with SSR-based 2-tile bypass and a 3-cycle hop.

    A won bypass is port data: the granted port's ``credit_port`` is
    the intermediate router's port, which the mesh router's pass
    streams the packet through and ``OutputPort.release`` frees, so
    only the grant differs here.
    """

    def __init__(self, node: int, network):
        super().__init__(node, network)
        self.hpc_max = network.params.smart.hops_per_cycle
        for port in self.output_ports.values():
            port.link_hop_latency = SMART_HOP_LATENCY

    # -- grant: resolve the SSR, then stream at line rate ----------------------

    def _claim_downstream(self, port: OutputPort, packet: Packet,
                          dst_vc: int, now: int) -> None:
        via_port = self._try_bypass(packet, port.direction, now)
        if via_port is None:
            super()._claim_downstream(port, packet, dst_vc, now)
            return
        via_port.downstream_vc(packet.vc_index).allocated_to = packet
        via_port.hold(packet, source_vc=None)
        port.credit_port = via_port

    # -- SSR arbitration -------------------------------------------------------------

    def _try_bypass(self, packet: Packet, direction: Direction,
                    now: int) -> Optional[OutputPort]:
        """Return the intermediate router's output port if the SSR wins."""
        if direction is Direction.LOCAL or self.hpc_max < 2:
            return None
        inter_node = self.topology.neighbor(self.node, direction)
        if inter_node is None:
            return None
        inter: SmartRouter = self.network.routers[inter_node]
        if inter._route_row[packet.dst] is not direction:
            return None  # the packet turns or ejects at the next router
        via_port = inter.output_ports.get(direction)
        if via_port is None or via_port.held_by is not None:
            return None
        faults = self.network.faults
        if faults.enabled and via_port.fault_stalled(now):
            return None  # SSR refused across a stalled link
        if via_port.waiting:
            return None  # local flits have priority over SSRs
        unit = via_port.downstream_unit
        if unit is None:
            return None
        landing_vc = unit.vcs[packet.vc_index]
        if landing_vc.allocated_to is not None or landing_vc.flits:
            return None
        if via_port.credits[packet.vc_index] < 1:
            return None
        return via_port

    # -- checkpointing -----------------------------------------------------

    def state_dict(self, ctx) -> dict:
        state = super().state_dict(ctx)
        state["bypasses"] = [
            [int(port.direction),
             port.credit_port.router.node, int(port.credit_port.direction)]
            for port in self.port_list if port.credit_port is not port
        ]
        return state

    def load_state(self, state: dict, ctx) -> None:
        super().load_state(state, ctx)
        for direction_value, via_node, via_dir in state["bypasses"]:
            via_port = self.network.routers[via_node].output_ports[
                Direction(via_dir)
            ]
            self.output_ports[Direction(direction_value)].credit_port = (
                via_port
            )


class SmartNetwork(MeshNetwork):
    """The SMART organization: mesh wiring with SMART routers."""

    router_class = SmartRouter
