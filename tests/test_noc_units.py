"""Unit tests for the NoC building blocks: flits, VCs, ports, NIs."""

import pytest

from repro.noc.flit import Flit, FlitType
from repro.noc.interface import NetworkInterface
from repro.noc.mesh import MeshNetwork
from repro.noc.network import build_network
from repro.noc.packet import Packet, reset_packet_ids
from repro.noc.router import MeshRouter
from repro.noc.topology import (
    MeshTopology,
    RingTopology,
    build_topology,
)
from repro.noc.vc import VirtualChannel
from repro.params import (
    NUM_MESSAGE_CLASSES,
    MessageClass,
    NocKind,
    NocParams,
)
from tests.helpers import make_network


class TestFlit:
    def test_single_flit_is_head_and_tail(self):
        pkt = Packet(src=0, dst=1, msg_class=MessageClass.REQUEST)
        assert pkt.size == 1
        flit = pkt.flits[0]
        assert flit.kind is FlitType.HEAD_TAIL
        assert flit.is_head and flit.is_tail

    def test_multi_flit_structure(self):
        pkt = Packet(src=0, dst=1, msg_class=MessageClass.RESPONSE)
        kinds = [f.kind for f in pkt.flits]
        assert kinds[0] is FlitType.HEAD
        assert kinds[-1] is FlitType.TAIL
        assert all(k is FlitType.BODY for k in kinds[1:-1])

    def test_bad_index_rejected(self):
        pkt = Packet(src=0, dst=1, msg_class=MessageClass.REQUEST)
        with pytest.raises(ValueError):
            Flit(pkt, 5)


class TestPacket:
    def test_vc_index_matches_class(self):
        for mc in MessageClass:
            pkt = Packet(src=0, dst=1, msg_class=mc)
            assert pkt.vc_index == mc.value

    def test_latencies_none_until_delivered(self):
        pkt = Packet(src=0, dst=1, msg_class=MessageClass.REQUEST)
        assert pkt.network_latency() is None
        assert pkt.total_latency() is None

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, msg_class=MessageClass.REQUEST, size=0)

    def test_ids_monotonic(self):
        reset_packet_ids()
        a = Packet(src=0, dst=1, msg_class=MessageClass.REQUEST)
        b = Packet(src=0, dst=1, msg_class=MessageClass.REQUEST)
        assert b.pid == a.pid + 1


class TestVirtualChannel:
    def _packet(self):
        return Packet(src=0, dst=1, msg_class=MessageClass.RESPONSE)

    def test_fifo_order(self):
        vc = VirtualChannel(0, 5)
        pkt = self._packet()
        for flit in pkt.flits:
            vc.push(flit)
        assert [vc.pop().index for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_overflow_raises(self):
        vc = VirtualChannel(0, 2)
        pkt = self._packet()
        vc.push(pkt.flits[0])
        vc.push(pkt.flits[1])
        with pytest.raises(OverflowError):
            vc.push(pkt.flits[2])

    def test_tail_pop_releases_ownership(self):
        vc = VirtualChannel(0, 5)
        pkt = self._packet()
        vc.allocated_to = pkt
        for flit in pkt.flits:
            vc.push(flit)
        for _ in range(4):
            vc.pop()
            assert vc.allocated_to is pkt
        vc.pop()
        assert vc.allocated_to is None

    def test_chained_claim_hands_over(self):
        vc = VirtualChannel(0, 5)
        first = self._packet()
        second = self._packet()
        vc.allocated_to = first
        vc.next_claim = second
        for flit in first.flits:
            vc.push(flit)
        for _ in range(5):
            vc.pop()
        assert vc.allocated_to is second
        assert vc.next_claim is None

    def test_can_accept_requires_free_and_empty(self):
        vc = VirtualChannel(0, 5)
        pkt = self._packet()
        assert vc.can_accept_packet(pkt)
        vc.allocated_to = pkt
        assert not vc.can_accept_packet(self._packet())


class TestNetworkInterface:
    def test_round_robin_across_classes(self):
        net = make_network(NocKind.MESH)
        a = Packet(src=0, dst=1, msg_class=MessageClass.REQUEST,
                   created=net.cycle)
        b = Packet(src=0, dst=1, msg_class=MessageClass.COHERENCE,
                   created=net.cycle)
        net.send(a)
        net.send(b)
        net.drain(max_cycles=100)
        # Both delivered; no starvation of either class.
        assert a.ejected is not None and b.ejected is not None

    def test_injection_is_packet_granular(self):
        """A response's flits are never interleaved with another
        packet's flits on the local port."""
        net = make_network(NocKind.MESH)
        resp = Packet(src=0, dst=3, msg_class=MessageClass.RESPONSE,
                      created=net.cycle)
        req = Packet(src=0, dst=3, msg_class=MessageClass.REQUEST,
                     created=net.cycle)
        net.send(resp)
        net.send(req)
        net.drain(max_cycles=200)
        # Whichever packet wins the port first holds it for its full
        # flit count before the other may start.
        first, second = sorted((resp, req), key=lambda p: p.injected)
        assert second.injected >= first.injected + first.size

    def test_queue_counts(self):
        net = make_network(NocKind.MESH)
        ni = net.interfaces[0]
        net.send(Packet(src=0, dst=1, msg_class=MessageClass.REQUEST,
                        created=net.cycle))
        assert ni.queued_packets(MessageClass.REQUEST) == 1
        assert ni.queued_packets(MessageClass.RESPONSE) == 0


class TestEjectionPort:
    def test_local_port_serializes_ejection(self):
        """Two packets to the same destination eject one flit/cycle."""
        net = make_network(NocKind.MESH)
        a = Packet(src=0, dst=5, msg_class=MessageClass.RESPONSE,
                   created=net.cycle)
        b = Packet(src=10, dst=5, msg_class=MessageClass.RESPONSE,
                   created=net.cycle)
        net.send(a)
        net.send(b)
        net.drain(max_cycles=300)
        assert a.ejected != b.ejected


# -- dense route tables vs. the memoized oracle -----------------------------


def _all_topologies():
    return [
        ("mesh", MeshTopology(4, 4)),
        ("ring", RingTopology(8)),
        ("chiplet", build_topology("chiplet:2x2x3x3", 3, 3)),
        ("chiplet-star", build_topology("chiplet:2x2x3x3:star", 3, 3)),
    ]


@pytest.mark.parametrize(
    "name,topo", _all_topologies(), ids=lambda v: v if isinstance(v, str)
    else ""
)
def test_route_rows_match_next_port_oracle(name, topo):
    """Satellite 2: the flattened tables agree with ``next_port`` for
    every (src, dst) pair, and indexing matches the lazy builder."""
    n = topo.num_nodes
    for src in range(n):
        row = topo.route_row(src)
        assert len(row) == n
        for dst in range(n):
            if dst == src:
                continue
            assert row[dst] is topo.next_port(src, dst), (
                f"{name}: dense row disagrees at ({src}, {dst})"
            )
            assert topo.route_port(src, dst) is row[dst]


def test_route_memo_stays_bounded_and_correct():
    """The per-instance ``route()`` memo evicts wholesale at its cap
    instead of growing per (src, dst) pair forever."""
    from repro.noc.topology import _ROUTE_CACHE_CAP

    topo = MeshTopology(8, 8)
    pairs = [(s, d) for s in range(64) for d in range(64) if s != d]
    assert len(pairs) < _ROUTE_CACHE_CAP  # one mesh fits entirely
    for src, dst in pairs:
        topo.route(src, dst)
    assert len(topo._route_cache) <= _ROUTE_CACHE_CAP
    expected = topo.route(5, 58)
    # Stuff the memo to its cap with foreign keys: the next miss must
    # evict wholesale instead of growing without bound.
    topo._route_cache = {
        ("stuffed", i): () for i in range(_ROUTE_CACHE_CAP)
    }
    route = topo.route(5, 58)
    assert route == expected
    assert len(topo._route_cache) < _ROUTE_CACHE_CAP
    assert route[0][0] == 5 and route[-1][0] == 58


# -- the escape layer as per-port data --------------------------------------


@pytest.mark.parametrize("build", [
    lambda: make_network(NocKind.MESH, 8, 1, topology="ring"),
    lambda: make_network(NocKind.MESH, topology="chiplet:2x2x4x4"),
    lambda: make_network(NocKind.MESH, topology="chiplet:2x2x4x4:star"),
], ids=["ring", "chiplet", "chiplet-star"])
def test_next_vc_rows_follow_the_topology_escape_rule(build):
    """Every output port's ``next_vc`` is the escape rule written out
    from ``vc_layers`` / ``advances_layer``: a hop keeps the VC, a
    layer-advancing link lands in the class's layer-1 VC, and an NI
    injects class ``c`` on its layer-0 VC."""
    net = build()
    topo = net.topology
    layers = topo.vc_layers
    num_vcs = net.num_vcs
    assert layers == 2 and num_vcs == NUM_MESSAGE_CLASSES * layers
    advancing = 0
    for router in net.routers:
        for port_id, port in router.output_ports.items():
            advances = topo.advances_layer(router.node, port_id)
            advancing += advances
            assert list(port.next_vc) == [
                (vc // layers) * layers + 1 if advances else vc
                for vc in range(num_vcs)
            ], f"router {router.node} port {port_id}"
    assert advancing  # the rule is not vacuous on this topology
    for ni in net.interfaces:
        assert list(ni.port.next_vc) == [
            cls * layers for cls in range(NUM_MESSAGE_CLASSES)
        ]


@pytest.mark.parametrize("vcs", [3])
def test_every_mesh_port_aliases_the_identity_row(vcs):
    net = make_network(NocKind.MESH, 8, 8)
    assert net.num_vcs == vcs
    assert net.same_vcs == tuple(range(vcs))
    assert all(port.next_vc is net.same_vcs
               for router in net.routers
               for port in router.output_ports.values())
    assert all(ni.port.next_vc == (0, 1, 2) for ni in net.interfaces)


@pytest.mark.parametrize("topology", ["ring", "chiplet:2x2x2x2"])
def test_one_network_class_serves_every_topology(topology):
    net = build_network(NocParams(topology=topology))
    assert type(net) is MeshNetwork
    assert {type(router) for router in net.routers} == {MeshRouter}
    assert {type(ni) for ni in net.interfaces} == {NetworkInterface}


@pytest.mark.parametrize("topology,kind,supported", [
    ("ring", NocKind.SMART, "mesh"),
    ("ring", NocKind.MESH_PRA, "mesh"),
    ("ring", NocKind.IDEAL, "mesh"),
    ("chiplet:2x2x2x2", NocKind.SMART, "mesh, ideal"),
    ("chiplet:2x2x2x2", NocKind.MESH_PRA, "mesh, ideal"),
])
def test_unsupported_organization_names_the_supported_kinds(
        topology, kind, supported):
    with pytest.raises(ValueError) as err:
        build_network(NocParams(kind=kind, topology=topology))
    assert str(err.value) == (
        f"{topology.split(':')[0]} topology supports kinds {supported}, "
        f"not {kind.value}"
    )


@pytest.mark.parametrize("kind", list(NocKind), ids=lambda k: k.value)
def test_run_steps_every_cycle_of_an_idle_span(kind):
    # The only work is one event far past the span: every cycle of it
    # is still one ``step`` (the ideal network's included).
    net = build_network(NocParams(kind=kind, mesh_width=4, mesh_height=4))
    net.schedule_call(10_000, lambda: None)
    steps = []
    step = net.step

    def counted_step():
        steps.append(net.cycle)
        step()

    net.step = counted_step
    net.run(300)
    assert steps == list(range(300))
    assert net.cycle == 300
    assert net.cycles_skipped == 0
