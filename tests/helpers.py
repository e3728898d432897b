"""Shared test helpers: network construction and leak detection.

``assert_quiescent`` is the strongest invariant in the suite: after a
network drains, every buffer must be empty, every credit returned, every
ownership and proactive claim released.  Any leak in the PRA claim
machinery (promised windows, VC ownership, credit accounting)
turns into a crisp assertion failure here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.reservation import OUT
from repro.noc.network import Network, build_network
from repro.noc.topology import Topology
from repro.params import NocKind, NocParams


def make_network(kind: NocKind, width: int = 4, height: int = 4,
                 **noc_kwargs) -> Network:
    return build_network(
        NocParams(kind=kind, mesh_width=width, mesh_height=height,
                  **noc_kwargs)
    )


def occupied_vc(net: Network, packet) -> int:
    """Index of the one input VC that buffers flits of ``packet``."""
    (index,) = {
        vc.index
        for router in net.routers
        for unit in router.input_units.values()
        for vc in unit.vcs
        if any(flit.packet is packet for flit in vc.flits)
    }
    return index


def channel_dependency_cycle(topo: Topology) -> Optional[List[Tuple]]:
    """A cycle in the channel-dependency graph of ``topo``, or None.

    A channel is ``(node, out_port, layer)`` — the VCs of one escape
    layer at the far end of one directed link.  A packet holding a
    channel waits for the next channel of its route, so every
    consecutive pair on every endpoint-to-endpoint route is an edge;
    the routing law plus ``advances_layer`` is deadlock-free iff the
    graph is acyclic (Dally & Seitz).  Needs nothing but the topology.
    """
    succ: Dict[Tuple, Set[Tuple]] = {}
    endpoints = range(topo.num_endpoints)
    for src in endpoints:
        for dst in endpoints:
            layer, held = 0, None
            for node, port in topo.route(src, dst)[:-1]:
                if topo.advances_layer(node, port):
                    layer = 1
                channel = (node, port, layer)
                if held is not None:
                    succ.setdefault(held, set()).add(channel)
                held = channel
    # Depth-first search in sorted order, so a reported cycle is stable.
    done: Dict[Tuple, bool] = {}  # False while on the current path
    for start in sorted(succ):
        if start in done:
            continue
        done[start] = False
        path, pending = [start], [iter(sorted(succ[start]))]
        while path:
            for channel in pending[-1]:
                if channel not in done:
                    done[channel] = False
                    path.append(channel)
                    pending.append(iter(sorted(succ.get(channel, ()))))
                    break
                if not done[channel]:
                    return path[path.index(channel):]
            else:
                done[path.pop()] = True
                pending.pop()
    return None


class SlotPromises:
    """Brute-force reference for :class:`repro.core.reservation.Promises`:
    one dict cell per promised ``(resource, cycle)``, written and popped
    a cycle at a time the way the per-port ring and the per-router claim
    dicts did before windows.  The model test requires equal answers."""

    def __init__(self, directions):
        self.directions = list(directions)
        #: (resource, cycle) -> (plan, flit index, is_driver)
        self.cells: Dict[Tuple, Tuple] = {}

    def _live(self, resource, cycle) -> bool:
        cell = self.cells.get((resource, cycle))
        return cell is not None and not cell[0].cancelled

    def free(self, resource, first: int, count: int) -> bool:
        return not any(self._live(resource, first + i) for i in range(count))

    def claim(self, resource, first: int, count: int, plan,
              is_driver: bool = False) -> None:
        for i in range(count):
            self.cells[resource, first + i] = (plan, i, is_driver)

    def due(self, now: int) -> List[Tuple]:
        cells = (self.cells.pop(((OUT, direction), now), None)
                 for direction in self.directions)
        return [cell for cell in cells
                if cell is not None and not cell[0].cancelled]

    def scheduled(self, cycle: int) -> bool:
        return any(self._live((OUT, d), cycle) for d in self.directions)


def assert_quiescent(net: Network) -> None:
    """All traffic delivered and every resource back to its idle state."""
    assert net.stats.in_flight == 0, "packets still in flight"
    # Let trailing credit returns and control-network events land.
    net.run(12)
    if not net.routers:  # the ideal network has no router state
        return
    depth = net.params.router.flits_per_vc
    for router in net.routers:
        assert router.active_flits == 0, f"router {router.node} holds flits"
        for unit in router.input_units.values():
            for vc in unit.vcs:
                assert vc.is_empty, f"VC not drained at {router.node}"
                assert vc.allocated_to is None, (
                    f"VC ownership leaked at router {router.node}, "
                    f"port {unit.direction.name}, vc {vc.index}: "
                    f"{vc.allocated_to}"
                )
                assert vc.next_claim is None, "chained claim leaked"
        for port in router.output_ports.values():
            assert not port.is_held, f"port held at {router.node}"
            for vc_index, credits in enumerate(port.credits):
                assert credits == depth, (
                    f"credit leak at router {router.node} port "
                    f"{port.direction.name} vc {vc_index}: {credits}/{depth}"
                )
            assert all(r == 0 for r in port.reserved), "claim stat leaked"
        latches = getattr(router, "_latches", None)
        if latches is not None:
            for direction, latch in latches.items():
                assert not latch, f"latch not drained at {router.node}"
        # PRA bookkeeping: an output-port window is removed with its
        # last executed cycle, so one left behind must be cancelled; a
        # latch or crossbar-input window may also belong to a finished
        # plan (both merely await the row's next claim).
        promises = getattr(router, "promises", None)
        if promises is not None:
            for (kind, direction), window in promises.windows():
                plan = window.plan
                assert plan.cancelled or (kind != OUT and plan.finished), (
                    f"promise leaked at router {router.node} on "
                    f"{(kind, direction.name)} [{window.first}, "
                    f"{window.end}): {plan}"
                )
    for ni in net.interfaces:
        assert not ni.port.is_held, f"NI port held at {ni.node}"
        for queue in ni.queues:
            assert not queue, f"NI queue not drained at {ni.node}"
        for vc_index, credits in enumerate(ni.port.credits):
            assert credits == depth, f"NI credit leak at {ni.node}"
