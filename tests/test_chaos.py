"""Randomized chaos sweeps: seeded mixed-fault schedules across every
organization, with the invariant suite attached and raising.

The graceful-degradation contract: under any schedule the generator
produces, a network either delivers every packet and drains clean, or
the run dies with a structured InvariantViolation — never a silent hang
or a resource leak.
"""

import pytest

from repro.checkpoint import run_digest
from repro.cli import main
from repro.faults import FaultInjector, FaultSchedule, LinkStall, StallWindow
from repro.invariants import InvariantSuite
from repro.noc.packet import reset_packet_ids
from repro.noc.topology import Direction
from repro.params import NocKind
from repro.perf.system import SystemSimulator
from repro.tile.llc import set_next_tid
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern
from tests.helpers import assert_quiescent, make_network
from tests.test_cli import _parse_error

CYCLES = 500
DRAIN_LIMIT = 5000


def chaos_run(net, fault_seed, rate=0.03, cycles=CYCLES, intensity=1.0):
    """One chaos run with checkers raising; returns the injector."""
    schedule = FaultSchedule.random(
        fault_seed, net.topology.num_nodes, cycles, intensity=intensity
    )
    injector = FaultInjector(schedule)
    net.attach(faults=injector)
    suite = InvariantSuite(audit_period=8)
    net.attach(invariants=suite)
    SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, rate, seed=fault_seed + 1
    ).run(cycles)
    while (net.stats.in_flight and net.cycle < DRAIN_LIMIT
           and not suite.watchdog_fired):
        net.step()
    assert suite.violations == []
    assert net.stats.packets_ejected == net.stats.packets_injected, (
        f"{net.stats.in_flight} packets lost under fault seed {fault_seed}: "
        f"{injector.summary()}"
    )
    net.attach(invariants=None)
    assert_quiescent(net)
    return injector


@pytest.mark.parametrize("fault_seed", [3, 11])
@pytest.mark.parametrize(
    "kind", [NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA]
)
def test_chaos_sweep_mesh_organizations(kind, fault_seed):
    chaos_run(make_network(kind), fault_seed)


@pytest.mark.parametrize("fault_seed", [3, 11])
def test_chaos_sweep_ring(fault_seed):
    chaos_run(make_network(NocKind.MESH, 16, 1, topology="ring"), fault_seed)


def test_chaos_high_intensity_pra():
    """Crank every probability and window count up 3x on the PRA mesh —
    the organization under test is the one with state to corrupt."""
    injector = chaos_run(make_network(NocKind.MESH_PRA), fault_seed=5,
                         rate=0.05, intensity=3.0)
    counts = injector.counts
    assert counts["control_drop"] > 0 or counts["control_blackout"] > 0


#: ``run_digest`` of the faulted full-system run below, per fault seed.
FULL_SYSTEM_DIGESTS = {
    7: "36375c408a5553c15e497bc3fcad5fbea62e9ad56c69647f260d9a14ffad5bc3",
    8: "ad4fa97e28b0ca01572b12775e1df63422f0671de86dff0ad45abef46214c914",
    9: "d0856dc7efdce055f7fcd21c6dfa6175395d165167764277b9d61f6a568ff2c4",
}


@pytest.mark.parametrize("fault_seed", sorted(FULL_SYSTEM_DIGESTS))
def test_chaos_full_system_pra(fault_seed):
    """Synthetic traffic never announces, so only the full system builds
    LLC-triggered plans and pinned injection slots under faults — plan
    expiries included, which cancel pins while their packets wait."""
    reset_packet_ids()  # fault decisions hash packet ids
    set_next_tid(0)
    sim = SystemSimulator("Web Search", NocKind.MESH_PRA, seed=3)
    injector = FaultInjector(FaultSchedule.random(fault_seed, 64, 1500))
    suite = InvariantSuite(raise_on_violation=False)
    sim.chip.network.attach(faults=injector, invariants=suite)
    sample = sim.run_sample(200, 1300)
    assert suite.violations == []
    assert not suite.watchdog_fired
    assert injector.counts["plan_expired"] > 0
    digest = run_digest(sample, sim.chip.network.stats.summary())
    assert digest == FULL_SYSTEM_DIGESTS[fault_seed]


def test_ring_stall_only_schedule():
    net = make_network(NocKind.MESH, 8, 1, topology="ring")
    schedule = FaultSchedule(
        router_stalls=(StallWindow(node=2, start=40, duration=30),),
        link_stalls=(
            LinkStall(node=5, direction=Direction.EAST, start=60,
                      duration=25),
        ),
    )
    net.attach(faults=FaultInjector(schedule))
    suite = InvariantSuite(audit_period=8)
    net.attach(invariants=suite)
    SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, 0.04, seed=6
    ).run(400)
    while net.stats.in_flight and net.cycle < DRAIN_LIMIT:
        net.step()
    assert suite.violations == []
    assert net.stats.packets_ejected == net.stats.packets_injected
    net.attach(invariants=None)
    assert_quiescent(net)


# -- the chaos CLI --------------------------------------------------------


def test_chaos_cli_smoke(capsys):
    rc = main(["chaos", "--noc", "mesh_pra", "--mesh", "4x4",
               "--cycles", "300", "--rate", "0.02",
               "--fault-seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all packets delivered, all invariants held" in out
    assert "faults injected" in out


def test_chaos_cli_ring(capsys):
    rc = main(["chaos", "--noc", "mesh", "--topology", "ring",
               "--mesh", "2x4", "--cycles", "300", "--rate", "0.02",
               "--fault-seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "topology:             ring" in out
    assert "nodes:                8" in out


# -- CLI input validation (exit 2, clean message) -------------------------


def test_sweep_rejects_nonpositive_mesh(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--noc", "mesh", "--mesh", "0x4",
              "--rates", "0.005", "--cycles", "100"])
    assert exc.value.code == 2
    assert "mesh dimensions must be positive" in capsys.readouterr().err


def test_sweep_rejects_malformed_mesh(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--mesh", "4", "--rates", "0.005"])
    assert exc.value.code == 2
    assert "expected WxH" in capsys.readouterr().err


def test_sweep_rejects_out_of_range_vcs(capsys):
    """There is no ``--vcs``: a port has one VC per message class and
    escape layer, so any VC count is an unknown flag."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--noc", "mesh", "--vcs", "99",
              "--rates", "0.005", "--cycles", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --vcs" in capsys.readouterr().err


def test_sweep_accepts_custom_mesh_and_vcs(capsys):
    rc = main(["sweep", "--noc", "mesh", "--mesh", "2x2",
               "--rates", "0.01", "--cycles", "200"])
    assert rc == 0
    assert "mesh" in capsys.readouterr().out


def test_chaos_rejects_bad_rate(capsys):
    error = _parse_error(["chaos", "--noc", "mesh", "--rate", "1.5",
                          "--cycles", "100"], capsys)
    assert "probability" in error
