"""Event-horizon time skipping must be a *pure* optimization.

Every test here runs the same scenario twice — once with skipping (the
default) and once stepping every cycle — and asserts bit-identical
results: stats digests, final cycle, invariant-audit counts, violations,
fault counters, and traced event streams.  A separate group checks that
checkpoints taken inside a skipped span restore and finish with the
golden digest.  Stepping is a per-network attribute
(``net.time_skip = False``); there is no process-wide switch.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.checkpoint import (
    read_snapshot,
    restore_network,
    snapshot_network,
    write_snapshot,
)
from repro.faults import FaultInjector, FaultSchedule
from repro.invariants import InvariantSuite
from repro.noc.network import build_network
from repro.noc.packet import Packet, reset_packet_ids
from repro.noc.ring import build_ring
from repro.params import MessageClass, NocKind, NocParams
from repro.trace import RingTracer
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

ALL_KINDS = (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA, NocKind.IDEAL)
FAULTABLE_KINDS = (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA)

_PING_CYCLES = 3000
_PING_GAP = 64


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _make(kind) -> object:
    if kind == "ring":
        return build_ring(16)
    return build_network(NocParams(kind=kind, mesh_width=8, mesh_height=8))


def _run_pingpong(net, *, time_skip: bool, observers: bool = False):
    """Closed-loop request ping-pong: long idle spans between replies,
    so the horizon has real distance to cover."""
    reset_packet_ids()  # traced events carry pids; make runs comparable
    net.time_skip = time_skip
    tracer = suite = None
    if observers:
        tracer = RingTracer(capacity=1 << 14)
        suite = InvariantSuite(raise_on_violation=False)
        net.attach(tracer=tracer, invariants=suite)
    n = net.topology.num_nodes

    def send(src: int, dst: int) -> None:
        net.send(Packet(src, dst, MessageClass.REQUEST, created=net.cycle))

    def on_delivery(packet, now: int) -> None:
        if now + _PING_GAP < _PING_CYCLES:
            net.schedule_call(now + _PING_GAP, send, packet.dst, packet.src)

    net.on_delivery(on_delivery)
    send(0, n - 1)
    send(3, n - 4)
    net.run(_PING_CYCLES)
    net.drain(max_cycles=20000)
    return net, tracer, suite


@pytest.mark.parametrize(
    "kind", ALL_KINDS + ("ring",),
    ids=lambda k: k if isinstance(k, str) else k.value,
)
def test_pingpong_digests_match_with_and_without_skipping(kind):
    on, _, _ = _run_pingpong(_make(kind), time_skip=True)
    off, _, _ = _run_pingpong(_make(kind), time_skip=False)
    assert _digest(on.stats.summary()) == _digest(off.stats.summary())
    # The drain must terminate at the exact quiescent cycle either way.
    assert on.cycle == off.cycle
    # The scenario is mostly idle: skipping must have actually engaged.
    assert on.cycles_skipped > 0
    assert off.cycles_skipped == 0


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_observers_see_identical_runs_across_skipping(kind):
    on, tr_on, iv_on = _run_pingpong(
        _make(kind), time_skip=True, observers=True
    )
    off, tr_off, iv_off = _run_pingpong(
        _make(kind), time_skip=False, observers=True
    )
    assert _digest(on.stats.summary()) == _digest(off.stats.summary())
    # Skipped spans replay their audit/watchdog boundaries exactly.
    assert iv_on.audits_run == iv_off.audits_run
    assert len(iv_on.violations) == len(iv_off.violations) == 0
    # Idle cycles emit no events, so the traces are identical streams.
    events_on = [(e.cycle, e.kind, e.pid) for e in tr_on.events()]
    events_off = [(e.cycle, e.kind, e.pid) for e in tr_off.events()]
    assert events_on == events_off


def _run_chaos(kind, *, time_skip: bool):
    # Control-plane fault draws are keyed by packet id; reset the
    # counter so both runs see the same fault decisions.
    reset_packet_ids()
    net = _make(kind)
    net.time_skip = time_skip
    schedule = FaultSchedule.random(11, net.topology.num_nodes, 300)
    injector = FaultInjector(schedule)
    suite = InvariantSuite(raise_on_violation=False)
    net.attach(faults=injector, invariants=suite)
    SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, 0.03, seed=3
    ).run(300)
    # A bounded settle window instead of drain(): faulted runs may leave
    # packets permanently stuck, which is part of what must replay
    # identically (including watchdog boundaries inside skipped spans).
    net.run(1500)
    return net, injector, suite


@pytest.mark.parametrize("kind", FAULTABLE_KINDS, ids=lambda k: k.value)
def test_chaos_runs_match_with_and_without_skipping(kind):
    on, inj_on, iv_on = _run_chaos(kind, time_skip=True)
    off, inj_off, iv_off = _run_chaos(kind, time_skip=False)
    assert _digest(on.stats.summary()) == _digest(off.stats.summary())
    assert dict(inj_on.counts) == dict(inj_off.counts)
    assert iv_on.audits_run == iv_off.audits_run
    assert iv_on.watchdog_fired == iv_off.watchdog_fired
    assert [str(v) for v in iv_on.violations] \
        == [str(v) for v in iv_off.violations]


_GAP_BEFORE_SNAP = 50
_GAP_AFTER_SNAP = 70


def _burst_gap_scenario(tmp_path=None):
    """Two synthetic bursts separated by a 120-cycle idle gap that the
    horizon jumps over.  When ``tmp_path`` is given, the run is
    checkpointed in the middle of the gap and resumed from disk."""
    reset_packet_ids()
    net = build_network(
        NocParams(kind=NocKind.MESH_PRA, mesh_width=8, mesh_height=8)
    )
    net.time_skip = True
    traffic = SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, 0.02, seed=7
    )
    traffic.run(250)
    net.drain(max_cycles=20000)
    skipped_at_gap = net.cycles_skipped
    if tmp_path is None:
        net.run(_GAP_BEFORE_SNAP + _GAP_AFTER_SNAP)
    else:
        net.run(_GAP_BEFORE_SNAP)
        # The quiescent gap is exactly what a skipping run jumps over;
        # the snapshot lands on a cycle that was never stepped.
        assert net.cycles_skipped > skipped_at_gap
        path = str(tmp_path / "mid-gap.json")
        write_snapshot(snapshot_network(net, traffic), path)
        net, traffic = restore_network(read_snapshot(path))
        assert net.cycles_skipped > skipped_at_gap
        net.run(_GAP_AFTER_SNAP)
    traffic.run(250)
    net.drain(max_cycles=20000)
    return net


def test_checkpoint_inside_a_skipped_span_restores_exactly(tmp_path):
    straight = _burst_gap_scenario()
    resumed = _burst_gap_scenario(tmp_path)
    assert _digest(resumed.stats.summary()) \
        == _digest(straight.stats.summary())
    assert resumed.cycle == straight.cycle
    # The skip counter is additive across the snapshot boundary.
    assert resumed.cycles_skipped == straight.cycles_skipped


def test_cycles_skipped_counts_only_fastforwarded_cycles():
    net, _, _ = _run_pingpong(
        _make(NocKind.MESH), time_skip=True
    )
    # Skipped + stepped cycles account for the whole run exactly.
    assert 0 < net.cycles_skipped < net.cycle


def test_full_system_digest_matches_with_and_without_skipping():
    """The closed-loop simulator (cores, caches, directory on top of
    the network) steps to the same digest it skips to."""
    from repro.checkpoint import run_digest
    from repro.perf.system import SystemSimulator

    def run(time_skip: bool) -> str:
        sim = SystemSimulator("Web Search", NocKind.MESH, seed=3)
        sim.chip.network.time_skip = time_skip
        sample = sim.run_sample(warmup=50, measure=200)
        return run_digest(sample, sim.chip.network.stats.summary())

    assert run(True) == run(False)
