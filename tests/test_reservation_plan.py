"""Unit tests for the PRA bookkeeping: promised windows and plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import PlanStep, PraPlan, LAND_VC, SRC_VC
from repro.core.reservation import IN, LATCH, OUT, Promises
from repro.noc.packet import Packet
from repro.noc.topology import Direction
from repro.params import MessageClass
from tests.helpers import SlotPromises

EAST = (OUT, Direction.EAST)
DIRECTIONS = (Direction.LOCAL, Direction.EAST, Direction.WEST)


def make_plan(size_class=MessageClass.RESPONSE):
    pkt = Packet(src=0, dst=3, msg_class=size_class)
    return PraPlan(pkt, start_slot=10), pkt


def make_step(slot=10, out_dir=Direction.EAST):
    return PlanStep(
        driver_node=0, out_dir=out_dir, slot=slot, hops=1,
        source_kind=SRC_VC, source_dir=Direction.LOCAL, source_vc=2,
        landing_node=1, landing_kind=LAND_VC,
        landing_entry=Direction.WEST,
    )


def make_promises(horizon=12):
    return Promises(horizon, DIRECTIONS)


class TestReservationTable:
    def test_reserve_and_pop(self):
        promises = make_promises()
        plan, _ = make_plan()
        step = make_step()
        promises.claim(0, EAST, 10, 2, plan, step, is_driver=True)
        assert not promises.free(EAST, 11, 1)
        (window,) = promises.due(10)
        assert (window.plan, window.step, 10 - window.first) == (plan, step, 0)
        assert promises.scheduled(11)
        (window,) = promises.due(11)
        assert 11 - window.first == 1 and window.is_driver
        # Executed to its last cycle: the window is gone.
        assert promises.free(EAST, 10, 2)
        assert not any(promises.scheduled(cycle) for cycle in range(11, 20))
        assert not list(promises.windows())

    def test_double_booking_rejected(self):
        promises = make_promises()
        plan, _ = make_plan()
        promises.claim(0, EAST, 10, 3, plan, make_step())
        with pytest.raises(RuntimeError):
            promises.claim(0, EAST, 12, 3, plan, make_step(12))

    def test_cancelled_plan_frees_slot(self):
        promises = make_promises()
        plan, _ = make_plan()
        promises.claim(0, EAST, 10, 1, plan, make_step())
        plan.cancelled = True
        assert promises.free(EAST, 10, 1)
        assert not any(promises.scheduled(cycle) for cycle in range(0, 20))
        # A new reservation may take the slot.
        plan2, _ = make_plan()
        promises.claim(0, EAST, 10, 1, plan2, make_step())
        (window,) = promises.due(10)
        assert window.plan is plan2

    def test_window_free(self):
        promises = make_promises()
        plan, _ = make_plan()
        promises.claim(0, EAST, 12, 1, plan, make_step(12))
        assert promises.free(EAST, 8, 4)
        assert not promises.free(EAST, 10, 4)
        # Resources are independent of one another.
        assert promises.free((IN, Direction.EAST), 10, 4)
        assert promises.free((OUT, Direction.WEST), 10, 4)

    def test_horizon(self):
        promises = make_promises(horizon=8)
        assert promises.within_horizon(now=100, first=104, count=5)
        assert not promises.within_horizon(now=100, first=105, count=5)

    def test_claim_drops_dead_windows(self):
        promises = make_promises()
        plan, _ = make_plan()
        dead, _ = make_plan()
        promises.claim(0, EAST, 5, 1, plan, make_step(5))
        promises.claim(0, EAST, 9, 1, plan, make_step(9))
        promises.claim(0, EAST, 11, 1, dead, make_step(11))
        promises.claim(0, (LATCH, Direction.WEST), 3, 5, plan)
        dead.cancel()
        # Nothing sweeps: the over and cancelled windows stay until the
        # row is next claimed, and only that row drops them.
        promises.claim(8, EAST, 12, 1, plan, make_step(12))
        assert [(resource, window.first)
                for resource, window in promises.windows()] == [
            (EAST, 9), (EAST, 12), ((LATCH, Direction.WEST), 3)]
        assert promises.free(EAST, 5, 1) and not promises.free(EAST, 9, 1)


#: One operation of the model test.  A claim asks for ``count`` cycles
#: starting ``lead`` cycles ahead on resource number ``resource``.
_OPS = st.one_of(
    st.tuples(st.just("claim"), st.integers(0, 8), st.integers(1, 14),
              st.integers(1, 5), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("advance"), st.integers(1, 7)),
)


@given(st.lists(_OPS, max_size=60))
@settings(max_examples=150, deadline=None)
def test_promises_agree_with_the_per_slot_reference(ops):
    """Random claim / cancel / advance sequences give the same
    ``free`` / ``due`` / ``scheduled`` answers from the window table as
    from one dict cell per promised cycle."""
    resources = [(kind, d) for kind in (OUT, IN, LATCH) for d in DIRECTIONS]
    promises, model = make_promises(), SlotPromises(DIRECTIONS)
    plans, now = [], 100
    for op, *args in ops:
        if op == "claim":
            index, lead, count, driver = args
            resource = resources[index]
            free = model.free(resource, now + lead, count)
            assert promises.free(resource, now + lead, count) == free
            if not free:
                continue
            plan, _ = make_plan()
            plans.append(plan)
            step = (make_step(now + lead, resource[1])
                    if resource[0] == OUT else None)
            promises.claim(now, resource, now + lead, count, plan, step,
                           driver)
            model.claim(resource, now + lead, count, plan, driver)
        elif op == "cancel" and plans:
            plans[args[0] % len(plans)].cancel()
        elif op == "advance":
            # A router is stepped at every cycle it has work pending.
            for now in range(now, now + args[0]):
                assert [
                    (w.plan, now - w.first, w.is_driver)
                    for w in promises.due(now)
                ] == model.due(now)
                assert (promises.scheduled(now + 1)
                        == model.scheduled(now + 1))
            now += 1
        for cycle in range(now, now + 20):
            assert promises.scheduled(cycle) == model.scheduled(cycle)
        for resource in resources:
            for first in range(now, now + 20):
                for count in (1, 3, 5):
                    assert (promises.free(resource, first, count)
                            == model.free(resource, first, count))


class _FakePort:
    """Minimal OutputPort stand-in for claim accounting tests."""

    def __init__(self, depth=5):
        from repro.noc.vc import VirtualChannel

        self._vc = VirtualChannel(2, depth)
        self.credits = [depth, depth, depth]
        self.reserved = [0, 0, 0]

    def downstream_vc(self, idx):
        return self._vc

    def claim_buffer(self, idx, count):
        assert self.credits[idx] >= count
        self.credits[idx] -= count
        self.reserved[idx] += count

    def refund_buffer(self, idx, count):
        self.credits[idx] += count
        self.reserved[idx] -= count

    def consume_claim(self, idx):
        self.reserved[idx] -= 1


class TestPraPlanClaims:
    def test_claim_and_cancel_refunds(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        assert port.credits[2] == 0
        assert port.downstream_vc(2).allocated_to is pkt
        plan.cancel()
        assert port.credits[2] == 5
        assert port.reserved[2] == 0
        assert port.downstream_vc(2).allocated_to is None

    def test_partial_consumption_then_cancel(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        plan.consume_landing_credit()
        plan.consume_landing_credit()
        plan.cancel()
        # Two promised slots were used (flits in flight occupy them);
        # only the remaining three credits are refunded.
        assert port.credits[2] == 3
        assert port.reserved[2] == 0

    def test_full_consumption_clears_claim(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        for _ in range(pkt.size):
            plan.consume_landing_credit()
        assert plan.vc_claim is None
        assert port.reserved[2] == 0

    def test_double_claim_rejected(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        with pytest.raises(AssertionError):
            plan.claim_landing_vc(_FakePort(), pkt.vc_index)

    def test_cancel_clears_packet_state(self):
        plan, pkt = make_plan()
        pkt.pra_plan = plan
        pkt.pra_pending = True
        plan.cancel()
        assert pkt.pra_plan is None
        assert not pkt.pra_pending
        assert plan.cancelled

    def test_cancel_is_idempotent(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        plan.cancel()
        plan.cancel()
        assert port.credits[2] == 5
