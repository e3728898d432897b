"""Mesh+PRA's promised windows run on time while idle routers sleep.

A PRA router with no buffered flit sleeps until the first cycle of its
next promised ``OUT`` window; the control network files that wake when
it commits the step, and ``has_work`` keeps the router stepping through
the window.  Two checks hold that up:

* **Exhaustive stepping is the reference.**  Stepping every router on
  every cycle can only add no-op steps, so it must give the digest of
  the wake-driven run — on mesh sizes, lags and horizons no golden
  digest pins.
* **Windows execute on time.**  Under the tracer and the invariant
  suite, each committed step's flits cross at ``slot``, ``slot + 1``,
  ... in flit order, and the bypassed router is stepped at each of
  those cycles.  A step may stop early only when its plan is cancelled
  by then.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.checkpoint import run_digest
from repro.core.plan import PraPlan
from repro.invariants import InvariantSuite
from repro.noc.network import build_network
from repro.noc.packet import reset_packet_ids
from repro.params import NocKind, NocParams, PraParams, default_chip
from repro.perf.system import SystemSimulator
from repro.trace import RingTracer
from repro.trace.events import EV_LATCH_BYPASS, EV_RESERVATION_COMMIT
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

from tests.test_golden_determinism import _digest

#: (mesh side, max_lag, reservation_horizon): off the golden 8x8 / 4 / 12.
CONFIGS = [(4, 6, 12), (6, 2, 12), (6, 6, 6), (4, 2, 6)]


def _noc(side: int, max_lag: int, horizon: int) -> NocParams:
    return NocParams(kind=NocKind.MESH_PRA, mesh_width=side,
                     mesh_height=side,
                     pra=PraParams(max_lag=max_lag,
                                   reservation_horizon=horizon))


def _step_every_router(net) -> None:
    """Wake every router at the top of every cycle, so ``has_work`` and
    the wake list decide nothing."""
    begin = net._begin_step
    nodes = range(len(net.routers))

    def begin_step(now):
        for node in nodes:
            net.wake_router(node)
        return begin(now)

    net._begin_step = begin_step


def _contested_digest(noc: NocParams, exhaustive: bool) -> str:
    reset_packet_ids()
    net = build_network(noc)
    if exhaustive:
        _step_every_router(net)
    SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 0.08,
                     seed=3).run(300)
    net.drain(max_cycles=20000)
    return _digest(net.stats.summary())


def _web_search_digest(noc: NocParams, exhaustive: bool) -> str:
    reset_packet_ids()
    chip = replace(default_chip(NocKind.MESH_PRA), noc=noc)
    sim = SystemSimulator("Web Search", NocKind.MESH_PRA, chip, seed=9)
    if exhaustive:
        _step_every_router(sim.chip.network)
    sample = sim.run_sample(warmup=100, measure=400)
    return run_digest(sample, sim.chip.network.stats.summary())


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"{c[0]}x{c[0]}-lag{c[1]}-h{c[2]}")
@pytest.mark.parametrize("run", [_contested_digest, _web_search_digest],
                         ids=["contested", "web_search"])
def test_exhaustive_stepping_gives_the_wake_driven_digest(run, config):
    noc = _noc(*config)
    assert run(noc, exhaustive=True) == run(noc, exhaustive=False)


class _PlanTracer(RingTracer):
    """Keeps only the events the window check reads: reservation
    commits and latch bypasses."""

    def emit(self, cycle, kind, pid=None, node=None, **data):
        if kind in (EV_RESERVATION_COMMIT, EV_LATCH_BYPASS):
            super().emit(cycle, kind, pid, node, **data)


def _check_windows_run_on_time(net, run) -> tuple:
    """Drive ``net`` with ``run()`` under the tracer and a per-cycle
    invariant suite, recording each router step and each plan
    cancellation; check every committed step whose window closed within
    the run.  Returns (steps checked, steps cut short, 2-hop steps)."""
    cancelled_at, stepped = {}, set()
    tracer = _PlanTracer(capacity=1 << 20)
    net.attach(tracer=tracer, invariants=InvariantSuite(audit_period=1))
    for router in net.routers:
        def step(now, inner=router.step, node=router.node):
            stepped.add((node, now))
            inner(now)
        router.step = step
    cancel = PraPlan.cancel

    def recording_cancel(plan):
        if not plan.cancelled:
            cancelled_at.setdefault(plan.packet.pid, []).append(net.cycle)
        cancel(plan)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PraPlan, "cancel", recording_cancel)
        run()

    assert tracer.dropped == 0
    commits = tracer.events(kinds=[EV_RESERVATION_COMMIT])
    crossed = {(event.pid, event.node, event.data["direction"], event.cycle,
                event.data["flit"])
               for event in tracer.events(kinds=[EV_LATCH_BYPASS])}
    checked = cut_short = two_hop = 0
    for event in commits:
        pid, node, data = event.pid, event.node, event.data
        slot, size, direction = data["slot"], data["size"], data["direction"]
        if slot + size > net.cycle:
            continue  # the window outlives the run
        ran = 0
        while (ran < size and (pid, node, direction, slot + ran, ran)
               in crossed):
            ran += 1
        if ran < size:
            cut_short += 1
            assert any(event.cycle <= cycle <= slot + ran
                       for cycle in cancelled_at.get(pid, ())), (
                f"packet {pid}'s step at router {node} {direction} "
                f"(slot {slot}, {size} flits) stopped after {ran} flits "
                "with its plan alive")
        via = data["via"]
        if via is not None:
            two_hop += 1
            for cycle in range(slot, slot + ran):
                assert (via, cycle) in stepped, (
                    f"bypassed router {via} slept through cycle {cycle} "
                    f"of packet {pid}'s window")
        checked += 1
    return checked, cut_short, two_hop


def test_committed_windows_execute_on_time():
    reset_packet_ids()
    net = build_network(_noc(6, 6, 12))
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, 0.08,
                               seed=3)
    contested = _check_windows_run_on_time(net, lambda: traffic.run(300))

    reset_packet_ids()
    chip = replace(default_chip(NocKind.MESH_PRA), noc=_noc(4, 4, 12))
    sim = SystemSimulator("Web Search", NocKind.MESH_PRA, chip, seed=9)
    web_search = _check_windows_run_on_time(
        sim.chip.network, lambda: sim.run_sample(warmup=100, measure=400))

    # Both runs exercise what they check: many windows and many 2-hop
    # steps through a bypassed router; Web Search's LLC-triggered plans
    # also get cut short by a cancellation.
    for checked, _, two_hop in (contested, web_search):
        assert checked > 250 and two_hop > 50
    assert web_search[1] > 5
