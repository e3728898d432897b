"""Behavioral tests of router arbitration, blocking, and backpressure."""

import pytest

from repro.noc.network import build_network
from repro.noc.packet import Packet, reset_packet_ids
from repro.noc.topology import Direction
from repro.params import MessageClass, NocKind, NocParams
from tests.helpers import assert_quiescent, make_network


class TestArbitration:
    def test_round_robin_shares_a_port(self):
        """Two flows merging at one router should share the contended
        output roughly evenly."""
        net = make_network(NocKind.MESH, width=8, height=1)
        # Flows from nodes 0 and 1 (via its NI) both heading east
        # through node 1's east port.
        done = {0: [], 1: []}
        net.on_delivery(lambda p, now: done[p.src].append(now))
        for i in range(30):
            net.send(Packet(src=0, dst=7, msg_class=MessageClass.REQUEST,
                            created=net.cycle))
            net.send(Packet(src=1, dst=7, msg_class=MessageClass.COHERENCE,
                            created=net.cycle))
            net.run(2)
        net.drain(max_cycles=5000)
        assert len(done[0]) == len(done[1]) == 30
        # Neither flow finishes wholesale before the other: interleaved
        # service means the last arrivals are close together.
        assert abs(max(done[0]) - max(done[1])) < 40

    def test_wormhole_blocking_chains_backwards(self):
        """When a multi-flit packet stalls, upstream links stall too
        (wormhole), but independent VCs keep flowing."""
        net = make_network(NocKind.MESH, width=8, height=1)
        # Saturate node 6..7 with responses so buffers fill back.
        for _ in range(12):
            net.send(Packet(src=0, dst=7, msg_class=MessageClass.RESPONSE,
                            created=net.cycle))
        # Requests on their own VC should still make progress.
        req = Packet(src=0, dst=7, msg_class=MessageClass.REQUEST,
                     created=net.cycle)
        net.send(req)
        net.drain(max_cycles=10000)
        assert req.ejected is not None
        assert_quiescent(net)

    def test_credit_backpressure_limits_inflight_flits(self):
        """With the destination NI ejecting one flit per cycle, buffer
        occupancy anywhere never exceeds VC capacity (credits hold)."""
        net = make_network(NocKind.MESH, width=4, height=1)
        for _ in range(20):
            net.send(Packet(src=0, dst=3, msg_class=MessageClass.RESPONSE,
                            created=net.cycle))
        for _ in range(40):
            net.step()
            for router in net.routers:
                for unit in router.input_units.values():
                    for vc in unit.vcs:
                        assert vc.occupancy <= vc.capacity
        net.drain(max_cycles=5000)
        assert_quiescent(net)


class TestRoundRobinFairness:
    def test_churning_membership_cannot_starve_a_competitor(self):
        """Regression: three persistent competitors for one output where
        the previous winner sits out the following round (its next head
        flit is still in flight).  An index-modulo pointer over the
        changing candidate list alternates between two of them and
        starves the third forever; anchoring to the last-granted key
        serves all three evenly."""
        from collections import Counter

        net = make_network(NocKind.MESH)
        router = net.routers[5]  # interior node: N/E/S/W all present
        competitors = [
            router.input_units[Direction.WEST].vcs[0],
            router.input_units[Direction.NORTH].vcs[0],
            router.input_units[Direction.SOUTH].vcs[0],
        ]
        grants = Counter()
        absent = None
        for _ in range(30):
            candidates = [vc for vc in competitors if vc is not absent]
            choice = router._round_robin_pick(Direction.EAST, candidates)
            grants[choice.unit.direction] += 1
            absent = choice
        assert len(grants) == 3, f"a competitor was starved: {grants}"
        assert max(grants.values()) - min(grants.values()) <= 1, grants

    def test_stable_membership_rotates(self):
        """With a fixed candidate set the arbiter is a plain rotor."""
        net = make_network(NocKind.MESH)
        router = net.routers[5]
        competitors = [
            router.input_units[d].vcs[0]
            for d in (Direction.WEST, Direction.NORTH, Direction.SOUTH)
        ]
        picks = [
            router._round_robin_pick(Direction.EAST, list(competitors))
            for _ in range(6)
        ]
        assert picks[:3] == picks[3:6]
        assert len(set(picks[:3])) == 3


class TestSmartBypass:
    def test_bypass_denied_when_local_candidate_waits(self):
        """Local flits have priority over SSRs: a packet buffered at the
        intermediate router kills the bypass."""
        net = make_network(NocKind.SMART, width=8, height=1)
        # A local packet at node 1 wants east.
        local = Packet(src=1, dst=7, msg_class=MessageClass.REQUEST,
                       created=net.cycle)
        net.send(local)
        # A through packet from node 0 would bypass node 1.
        through = Packet(src=0, dst=7, msg_class=MessageClass.REQUEST,
                         created=net.cycle)
        net.send(through)
        net.drain(max_cycles=500)
        # Both delivered; the through packet stopped at node 1 at least
        # once (its head cannot have covered the path purely in 2-hop
        # jumps: 7 hops with a contested first bypass).
        assert local.ejected is not None and through.ejected is not None

    def test_bypass_works_on_idle_straight_path(self):
        net = make_network(NocKind.SMART, width=8, height=1)
        pkt = Packet(src=0, dst=6, msg_class=MessageClass.REQUEST,
                     created=net.cycle)
        net.send(pkt)
        net.drain(max_cycles=200)
        # 6 hops: stops at 0, 2, 4 (bypassing 1, 3, 5) = 3 stops of 3
        # cycles; vs 6 stops without bypass.  Latency must reflect
        # multi-hop traversal: below the no-bypass bound.
        no_bypass_bound = 2 + 6 * 3 + 2
        assert pkt.network_latency() < no_bypass_bound


class TestIdealBounds:
    @pytest.mark.parametrize("dst,hops", [(1, 1), (3, 3), (7, 7)])
    def test_latency_lower_bound(self, dst, hops):
        """Ideal latency >= ceil(hops / 2) move cycles + ejection."""
        net = make_network(NocKind.IDEAL, width=8, height=1)
        pkt = Packet(src=0, dst=dst, msg_class=MessageClass.REQUEST,
                     created=net.cycle)
        net.send(pkt)
        net.drain(max_cycles=100)
        lower = -(-hops // 2) + 1
        assert pkt.network_latency() >= lower


# -- batched dispatch: wake order must never matter -------------------------


def _burst(net, order):
    """Inject one single-flit packet at each node of ``order`` (in that
    order) targeting the opposite corner, then run to completion."""
    reset_packet_ids()
    deliveries = {}
    net.on_delivery(
        lambda packet, now: deliveries.setdefault(
            (packet.src, packet.dst), now
        )
    )
    n = net.topology.num_nodes
    for node in order:
        net.send(Packet(node, n - 1 - node, MessageClass.REQUEST,
                        created=net.cycle))
    net.drain(max_cycles=20000)
    return deliveries


def test_out_of_order_wakes_are_sorted_and_deterministic():
    """Satellite 6: wakes arriving in descending node order dirty the
    sorted flag, and the results match the ascending-order run."""
    params = NocParams(kind=NocKind.MESH, mesh_width=4, mesh_height=4)
    net = build_network(params)
    order = list(range(net.topology.num_nodes))
    forward = _burst(net, order)

    net = build_network(params)
    assert net._ni_sorted
    backward = _burst(net, list(reversed(order)))
    assert forward == backward


def test_wake_flags_track_out_of_order_appends():
    net = build_network(NocParams(kind=NocKind.MESH, mesh_width=4,
                                  mesh_height=4))
    net.wake_ni(5)
    assert net._ni_sorted
    net.wake_ni(2)  # out of order: flag must go dirty
    assert not net._ni_sorted
    net.wake_router(1)
    net.wake_router(4)
    assert net._router_sorted  # ascending appends stay clean
    net.step()
    # The step loop consumed both queues and restored the invariant.
    assert net._ni_sorted


@pytest.mark.parametrize("kind", [NocKind.MESH, NocKind.MESH_PRA],
                         ids=lambda k: k.value)
def test_router_steps_track_flits_sent(kind):
    """The wake sets do not over-arm: on the paper's closed-loop
    operating point a router is stepped about once per flit it sends
    (measured 0.81 mesh, 0.96 mesh+pra), so the ledger's 2-3 ``step``
    calls per packet *hop* are flits per packet, not idle steps."""
    from repro.perf.system import SystemSimulator

    sim = SystemSimulator("Web Search", kind, seed=3)
    net = sim.chip.network
    steps = [0]

    def counted(step):
        def counting_step(now):
            steps[0] += 1
            step(now)
        return counting_step

    for router in net.routers:
        router.step = counted(router.step)
    sim.run_sample(warmup=100, measure=400)
    flits = sum(port.flits_sent
                for router in net.routers for port in router.port_list)
    assert flits > 10_000
    assert steps[0] <= 1.1 * flits
