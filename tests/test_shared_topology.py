"""One topology per spec: every network of a ``(spec, width, height)``
shares a single :class:`Topology`, and running on it never changes it."""

import pytest

from repro.checkpoint import restore_system, snapshot_system
from repro.noc.network import build_network
from repro.noc.topology import ChipletTopology, MeshTopology, build_topology
from repro.params import NocKind, NocParams
from repro.perf.system import SystemSimulator
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

CYCLES = 500

#: spec -> (the organizations built on it, its contested load, a
#: directly constructed private instance to compare against).
CASES = {
    "mesh": ((NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA, NocKind.IDEAL),
             0.08, lambda: MeshTopology(8, 8)),
    "chiplet:2x2x4x4": ((NocKind.MESH, NocKind.IDEAL), 0.02,
                        lambda: ChipletTopology(2, 2, 4, 4)),
}


def _params(spec, kind):
    if spec == "mesh":
        return NocParams(kind=kind, mesh_width=8, mesh_height=8)
    return NocParams(kind=kind, topology=spec)


def _assert_same_graph(shared, private):
    n = private.num_nodes
    assert shared.num_nodes == n
    assert shared.links == private.links
    for node in range(n):
        assert shared.route_row(node) == private.route_row(node)
    for src in range(n):
        for dst in range(n):
            assert shared.route(src, dst) == private.route(src, dst)


@pytest.mark.parametrize("spec", list(CASES))
def test_networks_share_one_topology_that_running_leaves_alone(spec):
    kinds, rate, private = CASES[spec]
    nets = [build_network(_params(spec, kind)) for kind in kinds]
    shared = nets[0].topology
    assert all(net.topology is shared for net in nets)
    params = nets[0].params
    assert build_topology(params.topology, params.mesh_width,
                          params.mesh_height) is shared
    for seed, net in enumerate(nets, start=1):
        traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, rate,
                                   seed=seed)
        traffic.run(CYCLES)
        assert net.stats.packets_ejected > 0
    _assert_same_graph(shared, private())


def test_restore_system_reuses_the_shared_topology():
    sim = SystemSimulator("Web Search", NocKind.MESH_PRA, seed=5)
    sim.run_sample(50, 50)
    restored = restore_system(snapshot_system(sim))
    assert restored.chip.network.topology is sim.chip.network.topology
