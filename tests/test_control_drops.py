"""Regression tests for control-network media claims and drop paths.

Covers the transactional multi-drop claim fix (a failed 2-hop segment
must not leak its partner's latch claim), the per-cycle bucketing of the
claim structure, and every ``control_drop_reasons`` bucket including a
plan cancelled while its control packet is still in flight.
"""

import pytest

from repro.core.control_network import (
    DROP_CONTROL_CONFLICT,
    DROP_LAG_ZERO,
    DROP_REACHED_DESTINATION,
    DROP_RESOURCE_BUSY,
    SEGMENT_CYCLES,
)
from repro.core.reservation import Promises
from repro.noc.packet import Packet, reset_packet_ids
from repro.noc.topology import Direction
from repro.params import MessageClass
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern
from tests.helpers import assert_quiescent
from tests.test_control_network import make_pra

# Timing of the canonical scenario used below: an 8x8 PRA mesh, one
# response announced 0 -> east at cycle 0 with ready_in=4.  The control
# packet is processed at cycle 1 (reserving the first step at node 0)
# and transmits its next multi-drop segment at cycle 3, claiming the
# receivers' input latches at (next node, EAST, 3) and — for a 2-hop
# segment — (via node, EAST, 3).
SEGMENT_CLAIM_CYCLE = 3


def announce_response(net, src, dst, ready_in=4):
    pkt = Packet(src=src, dst=dst, msg_class=MessageClass.RESPONSE,
                 created=net.cycle)
    net.announce(pkt, ready_in=ready_in)
    return pkt


class TestTransactionalMediaClaims:
    """A 2-hop segment's two latch claims commit together or not at all."""

    def test_failed_via_claim_leaks_nothing(self):
        """Regression: with the via latch busy, the segment is dropped
        and the *next-node* latch must remain unclaimed.  A leaked claim
        here drops an unrelated later control packet with a spurious
        conflict at (2, EAST, 3)."""
        net = make_pra()
        pkt = announce_response(net, src=0, dst=4)
        # Occupy the via router's input latch for the transmit cycle.
        assert net.control._claim_all([(1, Direction.EAST, SEGMENT_CLAIM_CYCLE)])
        net.run(2)  # segment processed at cycle 1, dropped at transmit
        assert (net.stats.control_drop_reasons[DROP_CONTROL_CONFLICT] == 1)
        assert not net.control.claimed(2, Direction.EAST, SEGMENT_CLAIM_CYCLE)
        assert net.control.claimed(1, Direction.EAST, SEGMENT_CLAIM_CYCLE)
        # The partially planned packet still delivers and unwinds.
        net.run(2)
        net.send(pkt)
        net.drain(max_cycles=500)
        assert pkt.ejected is not None
        assert_quiescent(net)

    def test_failed_next_claim_leaks_nothing(self):
        """The symmetric case: the next node's latch is busy; the via
        node's latch must remain unclaimed."""
        net = make_pra()
        pkt = announce_response(net, src=0, dst=4)
        assert net.control._claim_all([(2, Direction.EAST, SEGMENT_CLAIM_CYCLE)])
        net.run(2)
        assert (net.stats.control_drop_reasons[DROP_CONTROL_CONFLICT] == 1)
        assert not net.control.claimed(1, Direction.EAST, SEGMENT_CLAIM_CYCLE)
        net.run(2)
        net.send(pkt)
        net.drain(max_cycles=500)
        assert pkt.ejected is not None
        assert_quiescent(net)


class TestMediaBuckets:
    """Claims live in per-cycle buckets; a claim drops the reached ones."""

    def test_past_cycle_claims_are_unreachable(self):
        net = make_pra()
        control = net.control
        assert control._claim_all([(5, "inject", 6)])
        assert control.claimed(5, "inject", 6)
        net.run(8)  # idle: nothing sweeps, but no query sees cycle 6
        assert not control.claimed(5, "inject", 6)
        # The next claim drops every reached bucket, and the slot is
        # claimable again (nothing stale blocks it).
        assert control._claim_all([(5, "inject", net.cycle + 2)])
        assert all(cycle > net.cycle for cycle in control._media)

    def test_structure_stays_bounded_under_traffic(self):
        """After a busy run the claim table holds at most one bucket per
        cycle a claim can reach ahead — not one per historical claim.
        Buckets from before an idle tail stay until the next claim."""
        net = make_pra()
        for src in range(8):
            announce_response(net, src=src, dst=src + 16)
            net.run(1)
        net.run(30)
        assert net.stats.control_packets_injected
        assert len(net.control._media) <= SEGMENT_CYCLES
        assert all(cycle <= net.cycle + SEGMENT_CYCLES
                   for cycle in net.control._media)


def test_promise_rows_hold_no_window_older_than_their_last_claim(
        monkeypatch):
    """The window-table counterpart of the media bound: a claim drops
    its row's dead windows, so after a contested run no row holds a
    window that was already over at that row's last claim."""
    last_claim = {}
    claim = Promises.claim

    def recording_claim(self, now, resource, *args, **kwargs):
        last_claim[id(self), resource] = now
        return claim(self, now, resource, *args, **kwargs)

    monkeypatch.setattr(Promises, "claim", recording_claim)
    reset_packet_ids()
    net = make_pra()
    SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 0.1,
                     seed=3).run(400)
    assert net.stats.pra_planned_packets
    for router in net.routers:
        promises = router.promises
        for resource, window in promises.windows():
            assert window.end > last_claim[id(promises), resource]


def _no_setup(net):
    return None


def _preclaim_next_latch(net):
    """Force a control conflict at the first transmit segment."""
    net.control._claim_all([(2, Direction.EAST, SEGMENT_CLAIM_CYCLE)])
    return None


def _block_landing_vc(net):
    """Make the first step's landing VC unclaimable: resource busy."""
    blocker = Packet(src=1, dst=1, msg_class=MessageClass.RESPONSE,
                     created=0)
    vc = net.routers[0].output_ports[Direction.EAST].downstream_vc(
        blocker.vc_index
    )
    vc.allocated_to = blocker

    def cleanup():
        vc.allocated_to = None

    return cleanup


class TestDropReasons:
    """Every drop path lands in its own ``control_drop_reasons`` bucket."""

    @pytest.mark.parametrize(
        "reason,dst,setup",
        [
            pytest.param(DROP_LAG_ZERO, 63, _no_setup, id="lag_zero"),
            pytest.param(DROP_REACHED_DESTINATION, 2, _no_setup,
                         id="reached_destination"),
            pytest.param(DROP_CONTROL_CONFLICT, 4, _preclaim_next_latch,
                         id="control_conflict"),
            pytest.param(DROP_RESOURCE_BUSY, 1, _block_landing_vc,
                         id="resource_busy"),
        ],
    )
    def test_drop_reason_recorded(self, reason, dst, setup):
        net = make_pra()
        cleanup = setup(net)
        pkt = announce_response(net, src=0, dst=dst)
        net.run(4)
        if cleanup is not None:
            cleanup()
        net.send(pkt)
        net.drain(max_cycles=500)
        assert net.stats.control_drop_reasons[reason] == 1
        assert sum(net.stats.control_drop_reasons.values()) == 1
        assert pkt.ejected is not None
        assert_quiescent(net)

    def test_plan_cancelled_mid_flight(self):
        """A plan torn down while its control packet is still in flight:
        the next segment must drop (resource busy, current lag) instead
        of reserving into a cancelled plan."""
        net = make_pra()
        pkt = announce_response(net, src=0, dst=63)
        net.run(2)  # first segment reserved at cycle 1; next due at 3
        assert pkt.pra_plan is not None and len(pkt.pra_plan.steps) == 1
        pkt.pra_plan.cancel()
        net.run(2)  # the in-flight control packet lands on the cancel
        assert net.stats.control_drop_reasons[DROP_RESOURCE_BUSY] == 1
        # Lag after one segment of the initial 4: recorded at drop.
        assert net.stats.control_lag_at_drop[3] == 1
        net.send(pkt)
        net.drain(max_cycles=500)
        assert pkt.ejected is not None
        assert_quiescent(net)
