"""Audit of the routers' wait lists against a full VC scan.

Every ``OutputPort.waiting`` list must hold exactly the input VCs of
its router whose front flit is a head routed to that port — the set a
scan of every input VC finds.  The router keeps the lists at three
events (a head lands in an empty VC, a head leaves, a tail leaves with
a chained head behind it) instead of scanning, so any missed event
shows up here as a stale or missing entry, after the cycle it happened.
"""

import json

import pytest

from repro.checkpoint import restore_network, snapshot_network
from repro.faults import FaultInjector, FaultSchedule
from repro.noc.network import build_network
from repro.noc.packet import reset_packet_ids
from repro.params import NocKind, NocParams
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

NETWORKS = {
    "mesh": (NocParams(kind=NocKind.MESH, mesh_width=8, mesh_height=8),
             0.08),
    "chiplet": (NocParams(kind=NocKind.MESH, topology="chiplet:2x2x4x4"),
                0.03),
    "ring": (NocParams(kind=NocKind.MESH, topology="ring", mesh_width=16,
                       mesh_height=1), 0.1),
    "smart": (NocParams(kind=NocKind.SMART, mesh_width=8, mesh_height=8),
              0.08),
    "mesh+pra": (NocParams(kind=NocKind.MESH_PRA, mesh_width=8,
                           mesh_height=8), 0.08),
}

CYCLES = 300


def audit(net) -> int:
    """Assert every wait list equals the scan; return how many VCs wait
    on a port that at least one other VC waits on too (contention)."""
    contended = 0
    for router in net.routers:
        expected = {id(port): [] for port in router.port_list}
        for vc in router._vc_list:
            if vc.flits and vc.flits[0].is_head:
                port = router.output_ports[router.route_of(vc.flits[0].packet)]
                expected[id(port)].append(vc.rr_id)
        for port in router.port_list:
            found = sorted(vc.rr_id for vc in port.waiting)
            assert found == expected[id(port)], (
                f"router {router.node} port {port.direction!r} at cycle "
                f"{net.cycle}: waiting {found}, scan {expected[id(port)]}"
            )
            if len(found) > 1:
                contended += len(found)
    return contended


def audited_run(net, rate, cycles, seed=5):
    """Contested uniform traffic, audited after every cycle."""
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, rate,
                               seed=seed)
    contended = 0
    for _ in range(cycles):
        traffic.step()
        contended += audit(net)
    return traffic, contended


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_wait_lists_match_a_full_scan(name):
    reset_packet_ids()
    params, rate = NETWORKS[name]
    net = build_network(params)
    _, contended = audited_run(net, rate, CYCLES)
    assert contended > 0, "no two heads ever competed: the audit is vacuous"


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_round_robin_rank_is_scan_order(name):
    """``rr_id`` numbers the input VCs in the order a full scan visits
    them — the order LSD tries stalled requests in."""
    net = build_network(NETWORKS[name][0])
    for router in net.routers:
        assert [vc.rr_id for vc in router._vc_list] == list(
            range(len(router._vc_list)))


def test_wait_lists_rebuild_on_restore():
    """The lists are not in the snapshot: restore derives them from the
    buffers, and the restored run keeps them right."""
    reset_packet_ids()
    params, rate = NETWORKS["mesh+pra"]
    net = build_network(params)
    traffic, _ = audited_run(net, rate, 150)
    snap = json.loads(json.dumps(snapshot_network(net, traffic)))
    net2, traffic2 = restore_network(snap)
    assert audit(net2) > 0
    for _ in range(150):
        traffic2.step()
        audit(net2)


def test_wait_lists_under_random_faults():
    """Router and link stalls leave heads waiting across many cycles."""
    reset_packet_ids()
    params, rate = NETWORKS["smart"]
    net = build_network(params)
    net.attach(faults=FaultInjector(
        FaultSchedule.random(11, net.topology.num_nodes, CYCLES)))
    _, contended = audited_run(net, rate, CYCLES)
    assert contended > 0
