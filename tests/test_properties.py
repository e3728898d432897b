"""Property-based tests (hypothesis) on the core invariants.

The central theorems of the simulator:

* every injected packet is delivered, on every organization, under any
  traffic (no loss, no deadlock at server-class loads);
* flits of a packet never reorder or interleave (delivery implies the
  tail arrived after all other flits of the packet);
* after draining, the network is *quiescent*: every credit returned,
  every VC ownership and proactive claim released (no resource leaks);
* XY routes are minimal and stay inside the mesh.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc.packet import Packet
from repro.noc.topology import (
    Direction,
    MeshTopology,
    RingTopology,
    build_topology,
)
from repro.params import MessageClass, NocKind
from tests.helpers import (
    assert_quiescent,
    channel_dependency_cycle,
    make_network,
)

KINDS = [NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA, NocKind.IDEAL]

traffic_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def traffic_case(draw):
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(KINDS))
    num_packets = draw(st.integers(1, 60))
    spacing = draw(st.integers(0, 2))
    return seed, kind, num_packets, spacing


@traffic_settings
@given(traffic_case())
def test_all_packets_delivered_and_network_quiescent(case):
    seed, kind, num_packets, spacing = case
    rng = random.Random(seed)
    net = make_network(kind, width=4, height=4)
    packets = []
    for _ in range(num_packets):
        src = rng.randrange(16)
        dst = (src + rng.randrange(1, 16)) % 16
        mc = rng.choice(list(MessageClass))
        pkt = Packet(src=src, dst=dst, msg_class=mc, created=net.cycle)
        packets.append(pkt)
        net.send(pkt)
        net.run(spacing)
    net.drain(max_cycles=30000)
    assert all(p.ejected is not None for p in packets)
    assert net.stats.packets_ejected == num_packets
    assert net.stats.flits_ejected == sum(p.size for p in packets)
    assert_quiescent(net)


@traffic_settings
@given(st.integers(0, 2**16), st.integers(1, 30))
def test_pra_with_announces_is_leak_free(seed, num_responses):
    """Announce/send pairs under load: claims must always unwind."""
    rng = random.Random(seed)
    net = make_network(NocKind.MESH_PRA, width=4, height=4)
    pending = []
    sent = 0
    for _ in range(num_responses):
        src = rng.randrange(16)
        dst = (src + rng.randrange(1, 16)) % 16
        pkt = Packet(src=src, dst=dst, msg_class=MessageClass.RESPONSE,
                     created=net.cycle)
        delay = rng.choice([4, 4, 4, 7])  # some announces are late
        net.announce(pkt, ready_in=4)
        pending.append((net.cycle + delay, pkt))
        if rng.random() < 0.5:
            net.send(Packet(src=dst, dst=src,
                            msg_class=MessageClass.REQUEST,
                            created=net.cycle))
            sent += 1
        net.step()
        ready = [p for t, p in pending if t <= net.cycle]
        for pkt_ready in ready:
            net.send(pkt_ready)
            sent += 1
        pending = [(t, p) for t, p in pending if t > net.cycle]
    for t, pkt in sorted(pending, key=lambda x: x[0]):
        while net.cycle < t:
            net.step()
        net.send(pkt)
        sent += 1
    net.drain(max_cycles=30000)
    assert net.stats.packets_ejected == sent
    assert_quiescent(net)


@given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 80),
       st.integers(0, 80))
@settings(max_examples=60, deadline=None)
def test_xy_route_is_minimal_and_terminates(w, h, a, b):
    topo = MeshTopology(w, h)
    src = a % topo.num_nodes
    dst = b % topo.num_nodes
    route = topo.route(src, dst)
    # Route length = Manhattan distance + the ejection hop.
    assert len(route) == topo.hop_distance(src, dst) + 1
    assert route[0][0] == src
    assert route[-1] == (dst, Direction.LOCAL)
    # Each step moves to the adjacent node in the recorded direction.
    for (node, direction), (next_node, _) in zip(route, route[1:]):
        assert topo.neighbor(node, direction) == next_node
    # X travel strictly precedes Y travel (dimension order).
    dirs = [d for _, d in route[:-1]]
    seen_y = False
    for d in dirs:
        if d in (Direction.NORTH, Direction.SOUTH):
            seen_y = True
        else:
            assert not seen_y, "turned back to X after Y travel"


@given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 80),
       st.integers(0, 80))
@settings(max_examples=60, deadline=None)
def test_turn_node_lies_on_route(w, h, a, b):
    topo = MeshTopology(w, h)
    src, dst = a % topo.num_nodes, b % topo.num_nodes
    # Where XY routing turns: the destination's column, the source's row.
    turn = topo.node_at(topo.coords(dst)[0], topo.coords(src)[1])
    nodes = [n for n, _ in topo.route(src, dst)]
    assert turn in nodes


@given(st.integers(2, 9), st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_neighbor_symmetry(w, h):
    topo = MeshTopology(w, h)
    for node in range(topo.num_nodes):
        for direction, other in topo.neighbors(node):
            assert topo.neighbor(other, direction.opposite) == node


def test_channel_dependency_graph_is_acyclic():
    """Deadlock freedom, checked structurally from the bare topology:
    the routing law plus the escape-layer rule (``vc_layers`` /
    ``advances_layer``) leaves no cycle of channels on any topology the
    repository runs — and the check does see one when the rule is
    taken away."""
    for spec, width, height in [
        ("mesh", 8, 8), ("ring", 8, 1), ("ring", 16, 1),
        ("chiplet:2x2x4x4", 0, 0), ("chiplet:2x2x4x4:star", 0, 0),
        ("chiplet:2x2x2x2", 0, 0), ("chiplet:3x2x3x3:ilat=6", 0, 0),
    ]:
        topo = build_topology(spec, width, height)
        assert channel_dependency_cycle(topo) is None, spec

    class RingWithoutDateline(RingTopology):
        def _links(self, node):
            for link in super()._links(node):
                yield link._replace(advances=False)

    assert channel_dependency_cycle(RingWithoutDateline(8)) == [
        (stop, Direction.EAST, 0) for stop in range(8)
    ]
