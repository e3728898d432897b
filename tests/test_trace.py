"""Tests for the cycle-level event-tracing layer (repro.trace)."""

import hashlib
import json

import pytest

from collections import Counter

from repro.cli import main
from repro.faults import FaultInjector, FaultSchedule
from repro.invariants import InvariantSuite
from repro.noc.network import build_network
from repro.noc.packet import Packet, reset_packet_ids
from repro.noc.ports import OutputPort
from repro.params import MessageClass, NocKind, NocParams
from repro.perf.system import SystemSimulator
from repro.trace import (
    EV_CONTROL_DROP,
    EV_CONTROL_INJECT,
    EV_CONTROL_SEGMENT,
    EV_EJECT,
    EV_LATCH_BYPASS,
    EV_LINK,
    EV_PACKET_INJECT,
    EV_RESERVATION_COMMIT,
    EV_SWITCH_GRANT,
    EV_SWITCH_RELEASE,
    NULL_TRACER,
    RingTracer,
    TraceEvent,
    delivered_pids,
    planned_pids,
    read_jsonl,
    reconstruct,
    timelines_by_pid,
)
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern
from tests.helpers import make_network
from tests.test_golden_determinism import _digest


def traced_pra_run(src=0, dst=4, ready_in=4, **tracer_kwargs):
    """One announced response crossing a PRA mesh under tracing."""
    net = make_network(NocKind.MESH_PRA, width=8, height=8)
    tracer = RingTracer(**tracer_kwargs)
    net.attach(tracer=tracer)
    pkt = Packet(src=src, dst=dst, msg_class=MessageClass.RESPONSE,
                 created=net.cycle)
    net.announce(pkt, ready_in=ready_in)
    net.run(ready_in)
    net.send(pkt)
    net.drain(max_cycles=300)
    return net, tracer, pkt


class TestRingTracer:
    def test_emission_and_retrieval(self):
        tracer = RingTracer()
        tracer.emit(3, EV_LINK, pid=7, node=1, direction="EAST")
        tracer.emit(4, EV_EJECT, pid=7, node=2)
        assert len(tracer) == 2
        assert [e.kind for e in tracer.events(pid=7)] == [EV_LINK, EV_EJECT]
        assert tracer.events(kinds=[EV_EJECT])[0].cycle == 4

    def test_ring_bound_evicts_oldest(self):
        tracer = RingTracer(capacity=4)
        for cycle in range(10):
            tracer.emit(cycle, EV_LINK, pid=cycle)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [e.cycle for e in tracer.events()] == [6, 7, 8, 9]

    def test_pid_filter(self):
        tracer = RingTracer(pids=[1])
        tracer.emit(0, EV_LINK, pid=1)
        tracer.emit(0, EV_LINK, pid=2)
        assert [e.pid for e in tracer.events()] == [1]

    def test_cycle_window_filter(self):
        tracer = RingTracer(cycle_window=(5, 8))
        for cycle in range(12):
            tracer.emit(cycle, EV_LINK, pid=0)
        assert [e.cycle for e in tracer.events()] == [5, 6, 7]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)


class TestJsonlRoundtrip:
    def test_write_and_read_back(self, tmp_path):
        tracer = RingTracer()
        tracer.emit(1, EV_PACKET_INJECT, pid=3, node=0, dst=9, size=5)
        tracer.emit(2, EV_LINK, pid=3, node=0, direction="EAST", flit=0)
        path = tmp_path / "t.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        back = read_jsonl(str(path))
        assert [e.to_dict() for e in back] == [
            e.to_dict() for e in tracer.events()
        ]
        # Each line is standalone JSON.
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[0])["kind"] == EV_PACKET_INJECT

    def test_event_dict_roundtrip(self):
        event = TraceEvent(9, EV_CONTROL_DROP, pid=1, node=4,
                           data={"reason": "lag_zero", "lag": 0}, seq=17)
        back = TraceEvent.from_dict(json.loads(event.to_json()))
        assert back.to_dict() == event.to_dict()


class TestNullTracer:
    def test_networks_default_to_null(self):
        net = make_network(NocKind.MESH)
        assert net.tracer is NULL_TRACER
        assert not net.tracer.enabled

    def test_attach_detach(self):
        net = make_network(NocKind.MESH)
        tracer = RingTracer()
        net.attach(tracer=tracer)
        assert net.tracer is tracer
        net.attach(tracer=None)
        assert net.tracer is NULL_TRACER

    def test_tracing_does_not_change_outcomes(self):
        def run(traced):
            net = make_network(NocKind.MESH_PRA, width=4, height=4)
            if traced:
                net.attach(tracer=RingTracer())
            pkts = [
                Packet(src=s, dst=(s + 5) % 16,
                       msg_class=MessageClass.RESPONSE, created=0)
                for s in range(8)
            ]
            for p in pkts:
                net.announce(p, ready_in=4)
            net.run(4)
            for p in pkts:
                net.send(p)
            net.drain(max_cycles=500)
            return (net.stats.packets_ejected, net.stats.avg_network_latency,
                    dict(net.stats.control_drop_reasons))

        assert run(traced=False) == run(traced=True)


class TestPlannedTimeline:
    def test_planned_response_full_sequence(self):
        """The acceptance path: a planned response's timeline recovers
        the exact control-segment/reservation/latch-bypass sequence."""
        net, tracer, pkt = traced_pra_run(src=0, dst=4)
        timeline = reconstruct(tracer.events(), pkt.pid)
        assert timeline.is_planned
        assert timeline.network_latency == pkt.network_latency()
        # Control lifecycle: injection, then (commit, segment) per 2-hop
        # step, the ejection commit, and the terminal drop.
        control_kinds = [e.kind for e in timeline.control_events()]
        assert control_kinds == [
            EV_CONTROL_INJECT,
            EV_RESERVATION_COMMIT, EV_CONTROL_SEGMENT,
            EV_RESERVATION_COMMIT, EV_CONTROL_SEGMENT,
            EV_RESERVATION_COMMIT,
            EV_CONTROL_DROP,
        ]
        drops = timeline.control_events()[-1]
        assert drops.data["reason"] == "reached_destination"
        # Plan geometry: two 2-hop steps then the 1-hop ejection, on
        # consecutive slots, matching the committed plan exactly.
        commits = [e for e in timeline.events
                   if e.kind == EV_RESERVATION_COMMIT]
        assert [c.data["hops"] for c in commits] == [2, 2, 1]
        slots = [c.data["slot"] for c in commits]
        assert slots == list(range(slots[0], slots[0] + 3))
        # Every flit of every step was driven over the bypass/latch path.
        bypasses = [e for e in timeline.events if e.kind == EV_LATCH_BYPASS]
        assert len(bypasses) == 3 * pkt.size
        assert {b.data["landing_kind"] for b in bypasses} == {"latch", "ni"}

    def test_helpers_find_planned_and_delivered(self):
        net, tracer, pkt = traced_pra_run(src=0, dst=2)
        events = tracer.events()
        assert pkt.pid in planned_pids(events)
        assert pkt.pid in delivered_pids(events)
        assert pkt.pid in timelines_by_pid(events)

    def test_unplanned_packet_timeline(self):
        net = make_network(NocKind.MESH)
        tracer = RingTracer()
        net.attach(tracer=tracer)
        pkt = Packet(src=0, dst=3, msg_class=MessageClass.REQUEST, created=0)
        net.send(pkt)
        net.drain(max_cycles=200)
        timeline = reconstruct(tracer.events(), pkt.pid)
        assert not timeline.is_planned
        kinds = timeline.kinds()
        assert kinds[0] == EV_PACKET_INJECT
        assert kinds[-1] == EV_EJECT
        assert EV_LINK in kinds
        assert "vc_alloc" in kinds and "switch_grant" in kinds
        assert timeline.render().startswith(f"packet {pkt.pid}")


class TestTraceCli:
    def test_trace_command_end_to_end(self, tmp_path, capsys):
        """Acceptance: `repro trace --workload web --noc mesh_pra
        --cycles 200` emits JSONL from which the reconstructor recovers
        a planned response's control/reservation/bypass sequence."""
        out = tmp_path / "trace.jsonl"
        rc = main(["trace", "--workload", "web", "--noc", "mesh_pra",
                   "--cycles", "200", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "events" in printed
        events = read_jsonl(str(out))
        assert events, "trace file is empty"
        candidates = planned_pids(events) & delivered_pids(events)
        assert candidates, "no planned packet delivered in the window"
        best = max(candidates,
                   key=lambda p: len(reconstruct(events, p).plan_sequence()))
        timeline = reconstruct(events, best)
        kinds = set(timeline.kinds())
        assert EV_CONTROL_INJECT in kinds
        assert EV_RESERVATION_COMMIT in kinds
        assert EV_LATCH_BYPASS in kinds
        # The reconstructed plan is internally consistent: commits come
        # before the bypass traversals that execute them.
        seq = [e.kind for e in timeline.plan_sequence()]
        assert seq.index(EV_RESERVATION_COMMIT) < seq.index(EV_LATCH_BYPASS)

    def test_trace_command_packet_filter(self, tmp_path, capsys):
        out = tmp_path / "pid.jsonl"
        rc = main(["trace", "--workload", "web", "--noc", "mesh_pra",
                   "--cycles", "60", "--warmup", "60", "--packet", "5",
                   "--out", str(out)])
        assert rc == 0
        events = read_jsonl(str(out))
        assert all(e.pid == 5 for e in events)

    def test_simulate_trace_flag(self, tmp_path, capsys):
        out = tmp_path / "sim.jsonl"
        rc = main(["simulate", "web", "--noc", "mesh_pra",
                   "--warmup", "100", "--measure", "200",
                   "--trace", str(out)])
        assert rc == 0
        assert "trace:" in capsys.readouterr().out
        assert read_jsonl(str(out))

    def test_workload_and_noc_aliases(self, capsys):
        rc = main(["simulate", "web", "--noc", "mesh_pra",
                   "--warmup", "50", "--measure", "100"])
        assert rc == 0
        assert "Web Search" in capsys.readouterr().out


# -- observing must not change what is observed -----------------------------

_ORGANIZATIONS = {
    **{kind.value: NocParams(kind=kind, mesh_width=4, mesh_height=4)
       for kind in NocKind},
    "ring": NocParams(mesh_width=8, mesh_height=1, topology="ring"),
    "chiplet": NocParams(topology="chiplet:2x2x3x3"),
}


def _contested_run(label, tracer=None):
    """A seeded high-load run to quiescence on one organization."""
    reset_packet_ids()
    net = build_network(_ORGANIZATIONS[label])
    if tracer is not None:
        net.attach(tracer=tracer)
    SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 0.08,
                     seed=5).run(400)
    net.drain(max_cycles=20000)
    return net


@pytest.mark.parametrize("label", sorted(_ORGANIZATIONS))
def test_attaching_a_tracer_is_digest_neutral(label):
    """Every router runs its class's one ``step`` (no per-instance
    binding an observer could knock out), and a traced run produces the
    same statistics as an untraced one."""
    plain = _contested_run(label)
    assert all("step" not in vars(router) for router in plain.routers)
    tracer = RingTracer(capacity=1 << 20)
    traced = _contested_run(label, tracer)
    assert tracer.emitted > 0 or not traced.routers  # ideal: no routers
    assert _digest(traced.stats.summary()) == _digest(plain.stats.summary())


def _chaos_digest(kind, tracer=None):
    """One chaos run: an 8x8 network under a seeded random fault
    schedule with the invariant suite attached (recording, not
    raising), 300 cycles of uniform traffic and 1 500 more to drain.
    Returns the stats digest, the injected-fault counts, the audits run
    and the violations found."""
    reset_packet_ids()
    net = build_network(NocParams(kind=kind, mesh_width=8, mesh_height=8))
    schedule = FaultSchedule.random(11, net.topology.num_nodes, 300)
    injector = FaultInjector(schedule)
    suite = InvariantSuite(raise_on_violation=False)
    net.attach(faults=injector, invariants=suite)
    if tracer is not None:
        net.attach(tracer=tracer)
    SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, 0.03, seed=3
    ).run(300)
    net.run(1500)
    return (
        _digest(net.stats.summary()),
        dict(injector.counts),
        suite.audits_run,
        [str(v) for v in suite.violations],
    )


@pytest.mark.parametrize(
    "kind", (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA),
    ids=lambda k: k.value,
)
def test_chaos_sweep_is_tracer_neutral(kind):
    """Fault injection and tracing compose: stalls, audits and results
    of a chaos run are the same with a tracer listening."""
    assert _chaos_digest(kind, RingTracer()) == _chaos_digest(kind)


@pytest.mark.parametrize(
    "label", ["mesh", "smart", "mesh+pra", "ring", "chiplet"]
)
def test_switch_events_balance_per_packet(label):
    """Every delivered packet released every switch it was granted, on
    every router family (the SMART and escape-layer routers used to emit
    no grant events), and was granted at least one — unless Mesh+PRA
    pre-allocated it, since a planned stretch crosses switches on the
    PRA arbiter's reservations instead."""
    tracer = RingTracer(capacity=1 << 20)
    net = _contested_run(label, tracer)
    assert tracer.dropped == 0
    events = tracer.events()
    grants = Counter(e.pid for e in events if e.kind == EV_SWITCH_GRANT)
    releases = Counter(e.pid for e in events if e.kind == EV_SWITCH_RELEASE)
    delivered = delivered_pids(events)
    planned = planned_pids(events)
    assert len(delivered) == net.stats.summary()["packets_ejected"] > 100
    for pid in delivered:
        assert grants[pid] == releases[pid], (pid, grants[pid], releases[pid])
        assert grants[pid] >= 1 or pid in planned, pid


@pytest.mark.parametrize("kind", (NocKind.MESH, NocKind.SMART),
                         ids=lambda k: k.value)
def test_every_link_crossed_is_traced(kind):
    """One ``EV_LINK`` per link a flit crosses: the NI link, each hop
    and the ejection, so ``size x (hops_taken + 2)`` per packet.  A
    SMART pass-through crosses two links in one cycle; the second names
    the bypassed router."""
    net = make_network(kind, width=8, height=8)
    tracer = RingTracer(capacity=1 << 12)
    net.attach(tracer=tracer)
    pkt = Packet(src=0, dst=7, msg_class=MessageClass.RESPONSE, created=0)
    net.send(pkt)
    net.drain(max_cycles=300)
    links = [e for e in tracer.events(pid=pkt.pid) if e.kind == EV_LINK]
    assert pkt.hops_taken == 7
    assert len(links) == pkt.size * (pkt.hops_taken + 2)
    for index in range(pkt.size):
        crossed = [(e.node, e.data["direction"]) for e in links
                   if e.data["flit"] == index and not e.data["ni"]]
        assert sorted(crossed) == [(node, "EAST") for node in range(7)] \
            + [(7, "LOCAL")]


#: sha256 over ``TraceEvent.to_json()`` lines (one per event, newline
#: terminated) of a Web Search run, seed 3, 100 warm-up + 400 measured
#: cycles, with packet ids reset; and the event count.  Captured before
#: the traced and untraced runs shared one send path, so a tracer that
#: changed which code a flit takes, or what it records, fails here.
TRACE_DIGESTS = {
    NocKind.MESH: (
        43957,
        "747a1c78bcfefe5f3ad91ddf7cf551be5504a1d750833777e4391f8dc507d460",
    ),
    NocKind.SMART: (
        36760,
        "778777b705f188ee49c9d6cc551c1bcfd7b42eff9588e1ed6936cec69ded8769",
    ),
    NocKind.MESH_PRA: (
        41079,
        "20210ff45538a8e6099c042095f21b73ac5a4e14ce1518556acca935f3492b68",
    ),
}


@pytest.mark.parametrize("kind", sorted(TRACE_DIGESTS, key=str),
                         ids=lambda k: k.value)
def test_traced_event_stream_is_pinned(kind):
    reset_packet_ids()
    sim = SystemSimulator("Web Search", kind, seed=3)
    tracer = RingTracer(capacity=1 << 17)
    sim.chip.network.attach(tracer=tracer)
    sim.run_sample(warmup=100, measure=400)
    assert tracer.dropped == 0
    digest = hashlib.sha256()
    for event in tracer.events():
        digest.update(event.to_json().encode() + b"\n")
    assert (tracer.emitted, digest.hexdigest()) == TRACE_DIGESTS[kind]


@pytest.mark.parametrize("kind", (NocKind.MESH, NocKind.SMART),
                         ids=lambda k: k.value)
def test_a_tracer_takes_the_untraced_send_path(kind, monkeypatch):
    """``OutputPort.send`` serves a shard's cut row only: with a tracer
    attached, no NI and no other router reaches it."""
    def refuse(self, flit, now):
        raise AssertionError("OutputPort.send called off a shard cut row")

    monkeypatch.setattr(OutputPort, "send", refuse)
    net = _contested_run(kind.value, RingTracer(capacity=1 << 16))
    assert net.stats.packets_ejected > 100
    assert net.tracer.emitted > 0
