"""Invariant-checker tests: observers stay silent on healthy runs,
scream on corrupted state, and the watchdog turns hangs into reports.
"""

import pytest

from repro.core.plan import PlanStep, PraPlan, SRC_VC
from repro.core.reservation import LATCH, OUT, Window
from repro.faults import FaultInjector, FaultSchedule, StallWindow
from repro.invariants import InvariantSuite, InvariantViolation, wait_graph
from repro.noc.chiplet import build_chiplet
from repro.noc.packet import Packet
from repro.noc.ring import build_ring
from repro.noc.topology import Direction
from repro.params import MessageClass, NocKind
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern
from tests.helpers import assert_quiescent, make_network, occupied_vc


def drain(net, limit=4000):
    while net.stats.in_flight and net.cycle < limit:
        net.step()


# -- healthy runs: checkers are observers, not actors ---------------------


@pytest.mark.parametrize("kind", list(NocKind))
def test_clean_runs_have_zero_violations(kind):
    net = make_network(kind)
    suite = InvariantSuite(audit_period=1)
    net.attach(invariants=suite)
    SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, 0.05, seed=4
    ).run(300)
    drain(net)
    assert suite.violations == []
    assert suite.audits_run > 0
    assert not suite.watchdog_fired
    net.attach(invariants=None)
    assert_quiescent(net)


def test_clean_ring_run_has_zero_violations():
    net = build_ring(8)
    suite = InvariantSuite(audit_period=1)
    net.attach(invariants=suite)
    SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, 0.05, seed=4
    ).run(300)
    drain(net)
    assert suite.violations == []
    net.attach(invariants=None)
    assert_quiescent(net)


@pytest.mark.parametrize("kind", [NocKind.MESH, NocKind.MESH_PRA])
def test_checkers_do_not_perturb_the_run(kind):
    """Same seed with and without the suite attached must produce
    bit-identical statistics — the audits only read state."""
    def run(with_suite):
        net = make_network(kind)
        if with_suite:
            net.attach(invariants=InvariantSuite(audit_period=1))
        SyntheticTraffic(
            net, TrafficPattern.UNIFORM_RANDOM, 0.06, seed=9
        ).run(400)
        drain(net)
        return net.stats
    observed, bare = run(True), run(False)
    assert observed.summary() == bare.summary()
    assert observed.network_latencies == bare.network_latencies


# -- the watchdog ---------------------------------------------------------


def test_watchdog_reports_a_hung_network():
    """Freeze every router's arbiter forever: injected packets can never
    advance, and the watchdog must turn that hang into a structured
    violation carrying the blocked-packet wait graph."""
    net = make_network(NocKind.MESH)
    net.attach(faults=FaultInjector(FaultSchedule(router_stalls=tuple(
        StallWindow(node=n, start=0, duration=1 << 20) for n in range(16)
    ))))
    suite = InvariantSuite(audit_period=1 << 20, watchdog_window=64,
                           watchdog_stride=8)
    net.attach(invariants=suite)
    for node in range(4):
        net.send(Packet(src=node, dst=15 - node,
                        msg_class=MessageClass.REQUEST, created=0))
    with pytest.raises(InvariantViolation) as exc:
        net.run(600)
    violation = exc.value
    assert violation.check == "watchdog"
    assert suite.watchdog_fired
    assert violation.cycle > 0
    assert violation.details["in_flight"] > 0
    assert violation.details["blocked"], "wait graph must name the stuck flits"


def test_wait_graph_snapshots_blocked_packets():
    net = make_network(NocKind.MESH)
    net.attach(faults=FaultInjector(FaultSchedule(router_stalls=tuple(
        StallWindow(node=n, start=0, duration=1 << 20) for n in range(16)
    ))))
    net.send(Packet(src=0, dst=5, msg_class=MessageClass.REQUEST, created=0))
    net.run(20)
    graph = wait_graph(net, net.cycle)
    assert graph["cycle"] == net.cycle
    assert graph["blocked"]
    assert all({"pid", "node", "where", "reason"} <= set(b)
               for b in graph["blocked"])


@pytest.mark.parametrize("build,src,dst,stalled", [
    # Stop 7 -> stop 0 clockwise is the ring's dateline link.
    (lambda: build_ring(8), 7, 1, 0),
    # Gateway 0 -> gateway 4 is an inter-chiplet (interposer) link.
    (lambda: build_chiplet("chiplet:2x2x2x2"), 0, 5, 4),
], ids=["ring", "chiplet"])
def test_wait_graph_follows_the_escape_layer(build, src, dst, stalled):
    """Behind a layer-advancing link a head waits for the *layer-1* VC
    of its class, not the class VC: the graph must look at the VC the
    router would allocate and name the packet that owns it."""
    net = build()
    net.attach(faults=FaultInjector(FaultSchedule(router_stalls=(
        StallWindow(node=stalled, start=0, duration=1 << 20),
    ))))
    first, second = (Packet(src=src, dst=dst, msg_class=MessageClass.REQUEST,
                            created=0) for _ in range(2))
    net.send(first)
    net.send(second)
    net.run(30)
    # ``first`` crossed the link and sits in the stalled router's
    # layer-1 VC; ``second`` is still in layer 0, one hop behind it.
    assert (occupied_vc(net, first), occupied_vc(net, second)) == (1, 0)
    graph = wait_graph(net, net.cycle)
    (entry,) = [b for b in graph["blocked"] if b["pid"] == second.pid]
    assert entry["node"] == src and entry["reason"] == "vc_busy"
    assert graph["edges"] == [{"pid": second.pid, "waits_on": first.pid,
                               "reason": "vc_busy"}]


# -- corruption detection -------------------------------------------------


def test_credit_tampering_is_detected():
    net = make_network(NocKind.MESH)
    net.run(4)
    suite = InvariantSuite()
    port = net.routers[0].output_ports[Direction.EAST]
    port.credits[0] -= 1
    with pytest.raises(InvariantViolation) as exc:
        suite.audit(net, net.cycle)
    assert exc.value.check == "credit_accounting"
    port.credits[0] += 1
    suite_ok = InvariantSuite()
    suite_ok.audit(net, net.cycle)
    assert suite_ok.violations == []


def test_flit_counter_tampering_is_detected():
    net = make_network(NocKind.MESH)
    net.run(4)
    net.routers[3].active_flits += 2
    suite = InvariantSuite()
    with pytest.raises(InvariantViolation) as exc:
        suite.audit(net, net.cycle)
    assert exc.value.check == "flit_counter"


def test_lost_packet_is_detected():
    """A packet the stats layer thinks is in flight but no buffer holds
    is a conservation violation (the silent-drop failure mode)."""
    net = make_network(NocKind.MESH)
    net.run(4)
    net.stats.packets_injected += 1
    suite = InvariantSuite()
    with pytest.raises(InvariantViolation) as exc:
        suite.audit(net, net.cycle)
    assert exc.value.check == "flit_conservation"


def test_stale_live_reservation_is_detected():
    net = make_network(NocKind.MESH_PRA)
    net.run(8)
    packet = Packet(src=0, dst=5, msg_class=MessageClass.REQUEST, created=0)
    plan = PraPlan(packet, start_slot=2)
    step = PlanStep(driver_node=0, out_dir=Direction.EAST, slot=2, hops=1,
                    source_kind=SRC_VC)
    # Plant the stale window directly in its row: a live one is only
    # ever left in the past by a router that slept through it (the
    # corruption this audit exists to catch).
    net.routers[0].promises._rows[OUT, Direction.EAST].append(
        Window(2, 3, plan, step, is_driver=True)
    )
    suite = InvariantSuite()
    with pytest.raises(InvariantViolation) as exc:
        suite.audit(net, net.cycle)
    assert exc.value.check == "reservation_leak"


def test_cancelled_plan_claim_is_detected():
    net = make_network(NocKind.MESH_PRA)
    net.run(4)
    packet = Packet(src=0, dst=5, msg_class=MessageClass.REQUEST, created=0)
    plan = PraPlan(packet, start_slot=2)
    promises = net.routers[0].promises
    promises.claim(net.cycle, (LATCH, Direction.EAST), 99, 5, plan)
    assert not promises.free((LATCH, Direction.EAST), 101, 1)
    plan.cancel()
    # Cancellation is the flag alone: every query sees through the dead
    # window at once, it is no leak, and the row's next claim drops it.
    assert promises.free((LATCH, Direction.EAST), 99, 5)
    InvariantSuite().audit(net, net.cycle)
    replacement = PraPlan(packet, start_slot=2)
    promises.claim(net.cycle, (LATCH, Direction.EAST), 99, 5, replacement)
    assert [window.plan for _, window in promises.windows()] == [replacement]


def test_collect_mode_accumulates_instead_of_raising():
    net = make_network(NocKind.MESH)
    net.run(4)
    net.routers[0].output_ports[Direction.EAST].credits[0] -= 1
    net.routers[1].active_flits += 1
    suite = InvariantSuite(raise_on_violation=False)
    suite.audit(net, net.cycle)
    checks = {v.check for v in suite.violations}
    assert "credit_accounting" in checks
    assert "flit_counter" in checks
    report = suite.violations[0].render()
    assert "cycle" in report and suite.violations[0].check in report


def test_violation_render_is_structured():
    violation = InvariantViolation(
        "watchdog", 123, "no progress",
        {"in_flight": 2, "blocked": [{"pid": 7, "reason": "switch_held"}]},
    )
    text = violation.render()
    assert "[watchdog] cycle 123: no progress" in text
    assert "in_flight: 2" in text
    assert "pid" in text
