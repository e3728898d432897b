"""Serial-vs-sharded equivalence: the golden digests are the oracle.

A sharded run of the pinned golden scenario must produce the exact
stats digest of the serial simulator — for every organization (the
non-mesh ones via the documented serial fallback), for every shard
count, under any sub-cycle schedule, and on both the inline and
worker-process backends.  Any divergence in the boundary-exchange
protocol or the conservative clock discipline shows up here as a
digest mismatch.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial

import pytest

from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology
from repro.params import MessageClass, NocKind
from repro.shard import (
    GOLDEN_SPEC,
    SyntheticSpec,
    merge_stats,
    plan_shards,
    run_sharded,
    summary_digest,
)
from repro.shard.domain import ShardDomain, flush_target
from repro.shard.engine import drive
from repro.shard.process import ProcessPool
from tests.test_golden_determinism import ALL_KINDS, GOLDEN_NETWORK

SHARD_COUNTS = (1, 2, 4)


def _spec(kind: NocKind) -> SyntheticSpec:
    return GOLDEN_SPEC if kind is NocKind.MESH else SyntheticSpec(kind=kind)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_sharded_run_matches_serial_golden_digest(kind, shards):
    result = run_sharded(_spec(kind), shards)
    assert result.digest == GOLDEN_NETWORK[kind]
    if kind is NocKind.MESH and shards > 1:
        assert result.backend == "inline"
        assert result.shards == shards
        assert result.fallback_reason is None
    else:
        # Non-mesh organizations (and shards=1) take the serial path,
        # with a reason recorded whenever the request was downgraded.
        assert result.backend == "serial"
        assert result.shards == 1
        assert (result.fallback_reason is None) == (
            shards == 1 or kind is NocKind.MESH
        )


def test_process_backend_matches_inline():
    result = run_sharded(GOLDEN_SPEC, 2, backend="process")
    assert result.digest == GOLDEN_NETWORK[NocKind.MESH]
    assert result.backend == "process"


def test_shard_count_clamps_to_mesh_height():
    # The golden mesh is 8 rows tall; 16 shards clamp to 8 and still
    # reproduce the serial digest.
    result = run_sharded(GOLDEN_SPEC, 16)
    assert result.shards == 8
    assert "clamped to 8" in result.fallback_reason
    assert result.digest == GOLDEN_NETWORK[NocKind.MESH]


# -- the sub-cycle dependency rule -----------------------------------------

def _drained(spec: SyntheticSpec, domains) -> bool:
    return (all(dom.net.cycle >= spec.cycles for dom in domains)
            and sum(dom.net.stats.in_flight for dom in domains) == 0)


def _merged_digest(domains) -> str:
    stats = merge_stats([dom.net.stats.state_dict() for dom in domains])
    return summary_digest(stats.summary())


def _run_random_schedule(spec: SyntheticSpec, count: int, seed: int) -> str:
    """Drive ``count`` inline domains in an order no backend would pick:
    each step either resumes a random stripe or delivers the oldest
    flush waiting on a random link (links stay FIFO, as pipes are)."""
    rng = random.Random(seed)
    domains = [ShardDomain(spec, i, count) for i in range(count)]
    links = {flush_target(i, side): deque()
             for i in range(count) for side in ("prev", "next")
             if 0 <= flush_target(i, side)[0] < count}
    emits = [lambda side, message, i=i:
             links[flush_target(i, side)].append(message)
             for i in range(count)]
    blocked = set()
    while not _drained(spec, domains):
        waiting = [key for key, queue in links.items() if queue]
        choice = rng.randrange(count + len(waiting))
        if choice >= count:
            target, side = waiting[choice - count]
            domains[target].receive_flush(side, links[target, side].popleft())
            blocked.clear()
        elif domains[choice].advance(emits[choice]):
            blocked.clear()
        else:
            blocked.add(choice)
            assert waiting or len(blocked) < count, (
                f"every stripe blocked with nothing in transit at clocks "
                f"{[dom.net.cycle for dom in domains]}"
            )
    return _merged_digest(domains)


BUSY_SPEC = SyntheticSpec(rate=0.08, seed=3, cycles=300)


@pytest.mark.parametrize("spec,shards", [
    (GOLDEN_SPEC, 2), (GOLDEN_SPEC, 3), (GOLDEN_SPEC, 4), (GOLDEN_SPEC, 8),
    (BUSY_SPEC, 2), (BUSY_SPEC, 4),
], ids=lambda v: "busy" if v is BUSY_SPEC else
        "golden" if v is GOLDEN_SPEC else str(v))
def test_any_subcycle_schedule_matches_serial(spec, shards):
    """The oracle for the dependency rule: whichever stripe resumes
    next and however late a flush arrives, the stripes (one-row stripes
    at 8) reproduce the serial digest and never all block."""
    serial = run_sharded(spec, 1).digest
    for seed in range(3):
        assert _run_random_schedule(spec, shards, seed) == serial


def test_stripes_overlap_under_a_greedy_schedule():
    """The pipeline, pinned as a count: always resuming the lowest
    stripe that can run, stripe 0 starts nearly every cycle while
    stripe 1 is still inside the previous one.  (Whole-cycle
    bookkeeping made that impossible: stripe 1 had to finish cycle t
    before stripe 0 could know it through t.)"""
    spec = SyntheticSpec(width=16, height=16, rate=0.05, seed=11, cycles=300)
    domains = [ShardDomain(spec, i, 2) for i in range(2)]
    def deliver(index, side, message):
        target, arrives_from = flush_target(index, side)
        domains[target].receive_flush(arrives_from, message)

    emits = [partial(deliver, i) for i in range(2)]
    begun = overlapped = 0
    begin_step = domains[0].net._begin_step

    def counting_begin_step(now):
        nonlocal begun, overlapped
        begun += 1
        other = domains[1]
        overlapped += other.mid_cycle and other.net.cycle == now - 1
        return begin_step(now)

    domains[0].net._begin_step = counting_begin_step
    while not _drained(spec, domains):
        assert any(dom.advance(emit) for dom, emit in zip(domains, emits))
    assert _merged_digest(domains) == run_sharded(spec, 1).digest
    assert begun > spec.cycles
    assert overlapped >= 0.9 * begun


class _TappedPool(ProcessPool):
    """A process pool that keeps what its workers said, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.heard_messages = []

    def _messages(self, accept):
        for shard, message in super()._messages(accept):
            self.heard_messages.append((shard, message))
            yield shard, message


def test_process_switch_forwards_a_flush_per_stripe_per_cycle():
    """No lockstep rounds: on two stripes the parent forwards about two
    flushes per simulated cycle (the round protocol: two rounds of up
    to four messages), and a worker it wakes almost always moves — a
    new clock or a flush of its own before it reports idle again."""
    pool = _TappedPool(GOLDEN_SPEC, 2)
    try:
        drive(pool, GOLDEN_SPEC)
        states = pool.stats()
    finally:
        pool.close()
    stats = merge_stats([state["stats"] for state in states])
    assert summary_digest(stats.summary()) == GOLDEN_NETWORK[NocKind.MESH]
    cycles = max(state["clock"] for state in states)
    flushes = wasted = 0
    clock = [None, None]
    spoke = [True, True]
    for shard, message in pool.heard_messages:
        if message[0] == "flush":
            flushes += 1
            spoke[shard] = True
        elif message[0] == "idle":
            wasted += message[2] == clock[shard] and not spoke[shard]
            clock[shard] = message[2]
            spoke[shard] = False
    assert cycles <= flushes <= 4 * cycles
    # A flush can overtake the one before it being consumed; that wakes
    # its reader for nothing now and then, never once a cycle.
    assert wasted <= cycles // 50


def test_midcycle_flush_does_not_promise_past_the_running_cycle():
    """While a cycle is in progress the routers yet to step are off the
    wake queue, so the event horizon cannot see them: a flush composed
    then must cap its promise at the running cycle.  Here a stripe
    skips an idle cycle straight into the one where its only flit sits
    in a last-row router about to cross the cut, and blocks before that
    row with the skipped cycle still to announce.  Uncapped, that flush
    promises the neighbor nothing before cycle 3 — and the next one
    carries a record captured in cycle 2."""
    spec = SyntheticSpec(width=4, height=4, rate=0.0, cycles=0)
    dom = ShardDomain(spec, 0, 2)             # rows 0-1; node 4 is row 1
    dom.net.send(Packet(src=4, dst=8, msg_class=MessageClass.REQUEST,
                        created=0))
    emitted = []
    # The neighbor is known through cycle 0 only: enough to skip the
    # idle cycle 1, not enough for the last row of cycle 2.
    dom.receive_flush("next", {"seq": 1, "records": [], "seen": 0,
                               "through": 0, "promise": 1})
    dom.advance(lambda side, message: emitted.append(message))
    assert dom.mid_cycle and dom.net.cycle == 2 and dom._rows[2] == [4]
    assert emitted[-1]["through"] == 1 and not emitted[-1]["records"]
    assert emitted[-1]["promise"] <= 2
    dom.receive_flush("next", {"seq": 2, "records": [], "seen": 0,
                               "through": 1, "promise": 2})
    dom.advance(lambda side, message: emitted.append(message))
    # No flush may carry a record older than an earlier flush promised.
    promised = 0
    for message in emitted:
        assert all(record[1] >= promised for record in message["records"])
        promised = max(promised, message["promise"])
    assert any(record[1] == 2 for message in emitted
               for record in message["records"])


def test_boundary_is_a_property_of_the_cut_rows():
    """Only a row facing another shard pays for the boundary: interior
    routers (and a stripe's outer edge) keep the flattened send path,
    and a non-owned node is parked awake so that waking it is a no-op."""
    spec = SyntheticSpec(width=4, height=8)
    dom = ShardDomain(spec, 1, 3)             # rows 3-5 of 8
    net = dom.net
    assert not hasattr(net, "boundary")
    cut = {node for node, router in enumerate(net.routers)
           if router.boundary is dom}
    assert cut == set(range(12, 16)) | set(range(20, 24))
    edge = ShardDomain(spec, 0, 3)            # rows 0-2: no prev neighbor
    assert {node for node, router in enumerate(edge.net.routers)
            if router.boundary is edge} == set(range(8, 12))
    for node in (0, 11, 24, 31):
        net.wake_router(node)
        net.wake_ni(node)
    assert net._router_queue == [] and net._ni_queue == []
    net.wake_router(12)
    assert net._router_queue == [12]


# -- planning and plumbing -------------------------------------------------


def test_plan_shards_rejects_non_positive_counts():
    with pytest.raises(ValueError, match="must be positive"):
        plan_shards(GOLDEN_SPEC.params(), 0)


def test_plan_shards_reports_non_mesh_fallback():
    effective, reason = plan_shards(SyntheticSpec(kind=NocKind.SMART).params(),
                                    4)
    assert effective == 1
    assert "only the baseline mesh shards" in reason


def test_run_sharded_validates_arguments():
    with pytest.raises(ValueError, match="backend must be"):
        run_sharded(GOLDEN_SPEC, 2, backend="threads")


def test_row_domains_partition_the_mesh():
    topo = MeshTopology(8, 8)
    assert topo.row_domains(1) == [(0, 63)]
    domains = topo.row_domains(3)
    # Contiguous, ordered, and covering every node exactly once.
    assert domains[0][0] == 0 and domains[-1][1] == 63
    for (_, last), (first, _) in zip(domains, domains[1:]):
        assert first == last + 1
    # Row-aligned: every boundary falls on a row edge.
    assert all((last + 1) % 8 == 0 for _, last in domains[:-1])
    with pytest.raises(ValueError, match="cannot cut"):
        topo.row_domains(9)
    with pytest.raises(ValueError, match="cannot cut"):
        topo.row_domains(0)
