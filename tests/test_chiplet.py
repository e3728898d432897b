"""Chiplet topologies end to end: graph invariants, routing, chaos,
checkpoints, sharding fallbacks, and pinned golden digests.

The topology-graph contract (docs/simulator_internals.md) is pinned
here against every concrete :class:`~repro.noc.topology.Topology`:
entry ports must be link-symmetric, routes must terminate at the
destination in exactly ``hop_distance`` hops, and per-instance route
memos must never leak between topology instances.  The chiplet network
itself then gets the same treatment as every other organization —
chaos sweeps with the invariant suite raising, bit-for-bit checkpoint
continuation, and a golden determinism digest.
"""

from __future__ import annotations

import pytest

from repro.analytic import validate_chiplet
from repro.analytic.validate import LATENCY_ERROR_MARGIN
from repro.checkpoint import restore_network, snapshot_network
from repro.cli import main
from repro.noc.packet import reset_packet_ids
from repro.noc.topology import (
    CHIPLET_VC_LAYERS,
    FIRST_INTERPOSER_PORT,
    Direction,
    MeshTopology,
    build_topology,
    parse_topology_spec,
    port_name,
)
from repro.params import NUM_MESSAGE_CLASSES, NocKind, NocParams
from repro.shard import SyntheticSpec, plan_shards
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

from tests.helpers import assert_quiescent, make_network
from tests.test_chaos import chaos_run
from tests.test_checkpoint import _json_round_trip
from tests.test_cli import _parse_error
from tests.test_golden_determinism import _digest

#: Deterministic chiplet scenario (mirrors the golden network scenario).
_RATE, _SEED, _CYCLES, _DRAIN = 0.02, 7, 800, 20000

#: Pinned golden digests; an intentional behavior change must update
#: these alongside the mesh/smart/pra/ideal pins.
GOLDEN_CHIPLET = {
    "chiplet:2x2x4x4":
        "8811e97cd2a8035a7f328bb3b44d9863590e12c4c89c29bd174e62ad53e6457c",
    "chiplet:2x2x4x4:star":
        "bce472da2820b9f7685506581f838996b8d1bfdcea52aae6fa998e217c18cdcc",
}


def _topology(spec: str):
    return build_topology(spec, 4, 4)


ALL_TOPOLOGIES = [
    "mesh", "ring", "chiplet:2x2x3x3", "chiplet:2x2x3x3:star",
    "chiplet:2x2x3x3:ilat=6",
]


def _chiplet_run(spec: str):
    reset_packet_ids()
    net = make_network(NocKind.MESH, topology=spec)
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, _RATE,
                               seed=_SEED)
    return net, traffic


# -- the topology-graph contract -------------------------------------------


@pytest.mark.parametrize("spec", ALL_TOPOLOGIES)
def test_entry_ports_are_link_symmetric(spec):
    """Arriving through ``entry_port`` must land on a port whose
    neighbor is the sender — wiring depends on this."""
    topo = _topology(spec)
    for node in range(topo.num_nodes):
        for port, nbr in topo.neighbors(node):
            entry = topo.entry_port(node, port)
            back = dict(topo.neighbors(nbr))
            assert back[entry] == node, (
                f"{spec}: {node} -{port_name(port)}-> {nbr} enters at "
                f"{port_name(entry)}, which is not the reverse link"
            )
            assert topo.link_latency(node, port) >= 1


@pytest.mark.parametrize("spec", ALL_TOPOLOGIES)
def test_every_graph_query_reads_the_link_table(spec):
    """The link table is the graph: a topology writes links and a
    routing law, never a query of its own, and every query answers
    from the table."""
    topo = _topology(spec)
    queries = {"ports", "neighbor", "entry_port", "link_latency",
               "advances_layer"}
    assert not queries & set(vars(type(topo)))
    for node, row in enumerate(topo.links):
        assert topo.ports(node) == tuple(link.port for link in row)
        for link in row:
            port = link.port
            assert (topo.neighbor(node, port), topo.entry_port(node, port),
                    topo.link_latency(node, port),
                    topo.advances_layer(node, port)) == link[1:]
        assert topo.neighbor(node, Direction.LOCAL) is None
        assert not topo.advances_layer(node, Direction.LOCAL)


@pytest.mark.parametrize("spec", ALL_TOPOLOGIES)
def test_routes_terminate_at_destination(spec):
    topo = _topology(spec)
    for src in range(topo.num_endpoints):
        for dst in range(topo.num_endpoints):
            route = topo.route(src, dst)
            assert route[-1] == (dst, Direction.LOCAL)
            assert len(route) - 1 == topo.hop_distance(src, dst)
            node = src
            for hop, port in route[:-1]:
                assert hop == node
                node = topo.neighbor(node, port)
            assert node == dst


def test_route_memo_is_per_instance():
    """Satellite 1: two instances must never share cached routes, even
    when node ids overlap."""
    a = MeshTopology(4, 4)
    b = _topology("chiplet:2x2x3x3")
    assert a._route_cache is not b._route_cache
    assert a._dense_rows is not b._dense_rows
    # Same (node, dst) key, different answers; each table stays correct.
    assert a.route_port(0, 4) == Direction.SOUTH  # 4x4 mesh: 4 is (0, 1)
    assert b.route_port(0, 4) == Direction.EAST   # 3x3 sub-mesh: (1, 1)
    assert a.route_port(0, 4) == Direction.SOUTH
    # A second identical-shape instance builds its own rows from cold.
    c = MeshTopology(4, 4)
    assert not any(c._dense_rows)
    assert c.route_port(0, 4) == Direction.SOUTH
    assert c._dense_rows[0] is not None


def test_chiplet_link_latencies():
    topo = _topology("chiplet:2x2x3x3:ilat=6")
    seen_interposer = 0
    for node in range(topo.num_nodes):
        for port, _ in topo.neighbors(node):
            latency = topo.link_latency(node, port)
            if int(port) >= FIRST_INTERPOSER_PORT:
                assert latency == 6
                seen_interposer += 1
            else:
                assert latency == 2
    assert seen_interposer > 0


def test_chiplet_gateways_and_star_hub():
    mesh_ip = _topology("chiplet:2x2x3x3")
    star = _topology("chiplet:2x2x3x3:star")
    assert mesh_ip.num_nodes == mesh_ip.num_endpoints == 36
    assert star.num_nodes == 37 and star.num_endpoints == 36  # +1 hub
    for topo in (mesh_ip, star):
        gateways = [n for n in range(36) if topo.is_gateway(n)]
        assert len(gateways) == 4
        assert gateways == [topo.gateway(c) for c in range(4)]


def test_parse_topology_spec_rejects_junk():
    for junk in ("chiplet", "chiplet:2x2", "chiplet:axbxcxd", "torus",
                 "chiplet:2x2x3x3:ilat=0", "chiplet:2x2x3x3:frob",
                 "chiplet:2x2x4x4:ilat=1:ilat=9",
                 "chiplet:2x2x4x4:star:star"):
        with pytest.raises(ValueError):
            parse_topology_spec(junk)


def test_params_derive_mesh_dims_from_chiplet_spec():
    params = NocParams(kind=NocKind.MESH, topology="chiplet:2x3x4x2")
    assert (params.mesh_width, params.mesh_height) == (8, 6)
    assert params.num_nodes == 48


# -- chaos + invariants (satellite 3) --------------------------------------


@pytest.mark.parametrize("spec", ["chiplet:2x2x3x3", "chiplet:2x2x3x3:star"])
def test_chaos_sweep_chiplet(spec):
    chaos_run(make_network(NocKind.MESH, topology=spec), fault_seed=3)


def test_chiplet_vcs_cover_escape_layers():
    """Every port has exactly one VC per class and escape layer, and
    every one of them is reachable: from the injection VCs through the
    ports' ``next_vc`` rows.  A VC outside that closure would be
    silicon no packet enters."""
    for net in (make_network(NocKind.MESH, 8, 1, topology="ring"), make_network(NocKind.MESH, topology="chiplet:2x2x3x3"),
                make_network(NocKind.MESH, topology="chiplet:2x2x3x3:star")):
        layers = net.topology.vc_layers
        assert layers == CHIPLET_VC_LAYERS  # the ring has two as well
        assert net.num_vcs == NUM_MESSAGE_CLASSES * layers
        assert {len(unit.vcs) for router in net.routers
                for unit in router.input_units.values()} == {net.num_vcs}
        rows = {port.next_vc for router in net.routers
                for port in router.output_ports.values()}
        reached, frontier = set(), set(net.injection_vcs)
        while frontier:
            reached |= frontier
            frontier = {row[vc] for row in rows for vc in frontier} - reached
        assert reached == set(range(net.num_vcs)), net.params.topology


# -- checkpoint round-trip (bit-for-bit) -----------------------------------


@pytest.mark.parametrize("spec", ["chiplet:2x2x4x4", "chiplet:2x2x4x4:star"])
def test_snapshot_on_chiplet_topology(spec):
    net, traffic = _chiplet_run(spec)
    traffic.run(_CYCLES)
    net.drain(max_cycles=_DRAIN)
    straight = _digest(net.stats.summary())
    assert straight == GOLDEN_CHIPLET[spec]

    net, traffic = _chiplet_run(spec)
    traffic.run(_CYCLES // 2)
    snap = _json_round_trip(snapshot_network(net, traffic))
    assert snap["network_class"] == "mesh@chiplet"
    net2, traffic2 = restore_network(snap)
    assert net2 is not net
    traffic2.run(_CYCLES - _CYCLES // 2)
    net2.drain(max_cycles=_DRAIN)
    assert _digest(net2.stats.summary()) == straight
    assert_quiescent(net2)


# -- analytic model coverage -----------------------------------------------


def test_analytic_matches_chiplet_simulation():
    entries = validate_chiplet(specs=("chiplet:2x2x3x3",), rate=0.005,
                               cycles=1500, seed=5)
    assert {e.kind for e in entries} == {NocKind.MESH, NocKind.IDEAL}
    for entry in entries:
        assert entry.latency_error <= LATENCY_ERROR_MARGIN, (
            f"{entry.topology}/{entry.kind.value}: model "
            f"{entry.predicted_latency:.2f} vs sim "
            f"{entry.simulated_latency:.2f}"
        )


#: ``chiplet_comparison()``'s modeled columns (ModelMesh, ModelIdeal,
#: PRA0(model), SatRate), to the last bit: a change to the pair
#: enumeration or its summation order moves them.
_CHIPLET_MODEL_COLUMNS = {
    "mesh": (15.505392233194497, 5.639997703898835, 10.67460317460315,
             0.18930288461538516),
    "chiplet:2x2x4x4": (16.55983696338685, 5.468807370582311,
                        13.817460317460293, 0.04732572115384632),
    "chiplet:2x2x4x4:star": (18.93192045918074, 5.892944356574501,
                             15.8849206349206, 0.03155048076923088),
}


@pytest.mark.parametrize("topology", list(_CHIPLET_MODEL_COLUMNS))
def test_chiplet_figure_model_columns_are_pinned(topology, monkeypatch):
    from repro.harness.figures import CHIPLET_FIGURE_SPECS, \
        chiplet_comparison

    assert tuple(CHIPLET_FIGURE_SPECS) == tuple(_CHIPLET_MODEL_COLUMNS)
    # The simulated columns need injected traffic; the modeled ones
    # do not.
    monkeypatch.setattr(SyntheticTraffic, "run", lambda self, cycles: None)
    figure = chiplet_comparison()
    row = figure["rows"][CHIPLET_FIGURE_SPECS.index(topology)]
    columns = [figure["headers"].index(name) for name in
               ("ModelMesh", "ModelIdeal", "PRA0(model)", "SatRate")]
    assert tuple(row[c] for c in columns) == \
        _CHIPLET_MODEL_COLUMNS[topology]


# -- shard planning fallbacks (satellite 6) --------------------------------


def test_plan_shards_chiplet_reason_is_structured():
    params = SyntheticSpec(topology="chiplet:2x2x4x4").params()
    effective, reason = plan_shards(params, 4)
    assert effective == 1
    assert reason.startswith("[topology=chiplet]")


def test_plan_shards_ring_reason_is_structured():
    effective, reason = plan_shards(SyntheticSpec(topology="ring").params(), 4)
    assert effective == 1
    assert reason.startswith("[topology=ring]")


def test_plan_shards_kind_and_clamp_reasons_are_structured():
    effective, reason = plan_shards(
        SyntheticSpec(kind=NocKind.SMART).params(), 4)
    assert (effective, reason.split("]")[0]) == (1, "[kind=smart")
    effective, reason = plan_shards(SyntheticSpec().params(), 99)
    assert effective == 8
    assert reason.startswith("[clamp=8]")


# -- CLI -------------------------------------------------------------------


def test_sweep_rejects_junk_topology_spec(capsys):
    error = _parse_error(["sweep", "--topology", "chiplet:bogus",
                          "--rates", "0.005", "--cycles", "100"], capsys)
    assert "chiplet dimensions" in error


def test_neighbor_traffic_skips_a_tile_with_no_endpoint_neighbor():
    # A one-tile star chiplet's only neighbor is the IO die, which is
    # not an endpoint: the tile injects nothing instead of raising.
    net = make_network(NocKind.MESH, topology="chiplet:2x1x1x1:star")
    traffic = SyntheticTraffic(net, TrafficPattern.NEIGHBOR, 1.0, seed=1)
    traffic.run(20)
    assert traffic.offered == 0


def test_sweep_chiplet_smoke(capsys):
    rc = main(["sweep", "--topology", "chiplet:2x2x2x2",
               "--rates", "0.01", "--cycles", "300"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ideal" in out


def test_chaos_cli_chiplet(capsys):
    rc = main(["chaos", "--noc", "mesh", "--topology", "chiplet:2x2x2x2",
               "--cycles", "300", "--rate", "0.02", "--fault-seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all packets delivered, all invariants held" in out
