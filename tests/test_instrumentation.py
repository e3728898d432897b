"""The PRA latency-attribution counters of ``NetworkStats``.

Every run splits its latency three ways: planned responses
(``planned_response_latency``), unplanned responses (the ``RESPONSE``
class minus the planned pair) and requests; and it keeps the plan length
of every planned packet (``plan_length_histogram()``).  The reference
they are checked against is a fold of the traced event stream.
"""

import json
from collections import Counter

import pytest

from repro.checkpoint import restore_system, snapshot_system
from repro.faults import FaultInjector, FaultSchedule
from repro.noc.packet import reset_packet_ids
from repro.noc.stats import NetworkStats
from repro.params import MessageClass, NocKind
from repro.perf.system import SystemSimulator
from repro.shard.merge import merge_stats
from repro.tile.llc import set_next_tid
from repro.trace import (
    EV_CONTROL_INJECT,
    EV_EJECT,
    EV_PACKET_INJECT,
    EV_RESERVATION_COMMIT,
    RingTracer,
)

RESPONSE = MessageClass.RESPONSE
REQUEST = MessageClass.REQUEST


def fold(events):
    """Attribution from a trace: latency is ejection minus injection
    cycle; a response is planned if any step was ever committed for it;
    a packet's plan length counts the commits since its last accepted
    control injection.  Returns ``[sum, count]`` pairs per population
    and the histogram of non-zero plan lengths."""
    injected, planned, lengths = {}, set(), {}
    pairs = {name: [0, 0] for name in ("planned", "unplanned", "request")}
    for event in events:
        if event.kind == EV_PACKET_INJECT:
            injected[event.pid] = (event.cycle, event.data["msg_class"])
        elif event.kind == EV_RESERVATION_COMMIT:
            planned.add(event.pid)
            lengths[event.pid] = lengths.get(event.pid, 0) + 1
        elif event.kind == EV_CONTROL_INJECT and event.data["accepted"]:
            lengths[event.pid] = 0
        elif event.kind == EV_EJECT:
            injected_at, msg_class = injected.pop(event.pid)
            if msg_class == RESPONSE.name:
                name = "planned" if event.pid in planned else "unplanned"
            elif msg_class == REQUEST.name:
                name = "request"
            else:
                continue
            pairs[name][0] += event.cycle - injected_at
            pairs[name][1] += 1
    return pairs, Counter(steps for steps in lengths.values() if steps)


def counters(stats: NetworkStats):
    """The same attribution, read from the counters."""
    planned = stats.planned_response_latency
    responses = stats.class_latency[RESPONSE]
    pairs = {
        "planned": list(planned),
        "unplanned": [responses[0] - planned[0], responses[1] - planned[1]],
        "request": list(stats.class_latency[REQUEST]),
    }
    return pairs, stats.plan_length_histogram()


def traced_run(kind, warmup, measure, fault_seed=None):
    reset_packet_ids()
    set_next_tid(0)
    sim = SystemSimulator("Web Search", kind, seed=3)
    network = sim.chip.network
    tracer = RingTracer(capacity=1 << 20)
    network.attach(tracer=tracer)
    if fault_seed is not None:
        network.attach(faults=FaultInjector(
            FaultSchedule.random(fault_seed, 64, warmup + measure)))
    sim.run_sample(warmup=warmup, measure=measure)
    assert tracer.dropped == 0
    return network.stats, tracer


def test_planned_and_unplanned_responses_are_every_response():
    stats, tracer = traced_run(NocKind.MESH_PRA, 200, 800)
    (pairs, _) = fold(tracer.events())
    planned, unplanned = pairs["planned"], pairs["unplanned"]
    assert planned[1] > 0 and unplanned[1] > 0
    assert stats.planned_response_latency == planned
    assert planned[1] + unplanned[1] == stats.class_latency[RESPONSE][1]
    assert planned[0] + unplanned[0] == stats.class_latency[RESPONSE][0]
    # Planned responses are faster than unplanned ones.
    assert planned[0] / planned[1] < unplanned[0] / unplanned[1]
    assert stats.plan_length_histogram()


@pytest.mark.parametrize("kind", (NocKind.MESH, NocKind.SMART, NocKind.IDEAL),
                         ids=lambda kind: kind.value)
def test_other_organizations_record_no_plans(kind):
    sim = SystemSimulator("Web Search", kind, seed=1)
    sim.run_sample(warmup=100, measure=400)
    stats = sim.chip.network.stats
    assert stats.class_latency[RESPONSE][1] > 0
    assert stats.plans == {}
    assert stats.planned_response_latency == [0, 0]
    assert stats.plan_length_histogram() == Counter()


@pytest.mark.parametrize("fault_seed", (None, 7), ids=("plain", "chaos"))
def test_counters_equal_the_traced_fold(fault_seed):
    """Web Search on Mesh+PRA, plain and under a seeded fault schedule
    (plan expiries and dropped control packets cancel and restart
    plans)."""
    stats, tracer = traced_run(NocKind.MESH_PRA, 200, 1000, fault_seed)
    expected = fold(tracer.events())
    assert counters(stats) == expected
    assert expected[0]["planned"][1] > 0


def test_counters_survive_a_checkpoint_round_trip():
    """The live plans travel in the snapshot: a run restored while plans
    are in flight ends with the straight run's counters."""
    def run(restore_at=None):
        reset_packet_ids()
        sim = SystemSimulator("Web Search", NocKind.MESH_PRA, seed=2)
        sim.start()
        sim.chip.run(restore_at or 400)
        if restore_at is not None:
            assert sim.chip.network.stats.plans
            snap = json.loads(json.dumps(snapshot_system(sim)))
            sim = restore_system(snap)
            sim.chip.run(400 - restore_at)
        return counters(sim.chip.network.stats)

    assert run(restore_at=151) == run()


def test_shard_merge_folds_the_counters():
    a, b = NetworkStats(), NetworkStats()
    a.plans, b.plans = {1: 2}, {4: 0}
    a.planned_response_latency, b.planned_response_latency = [10, 1], [7, 2]
    a.plan_lengths, b.plan_lengths = Counter({3: 1}), Counter({3: 2, 1: 1})
    merged = merge_stats([a.state_dict(), b.state_dict()])
    assert merged.plans == {1: 2, 4: 0}
    assert merged.planned_response_latency == [17, 3]
    assert merged.plan_lengths == Counter({3: 3, 1: 1})
