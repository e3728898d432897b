"""Background (Section II-B): why tiled meshes replaced rings.

The paper: "While appropriate for a modest number of cores, the ring
interconnect stands as a major obstacle for scaling up the core count,
as its delay has linear dependence on the number of interconnected
components."  This bench measures zero-ish-load average latency of a
bidirectional ring vs. a mesh as the tile count grows: the ring's
average distance grows ~N/4 while the mesh's grows ~2*sqrt(N)/3.
"""

import random

from repro.harness.reporting import format_table
from repro.noc.network import build_network
from repro.noc.packet import Packet
from repro.params import MessageClass, NocKind, NocParams

SIZES = ((16, 4, 4), (36, 6, 6), (64, 8, 8))


def _uniform_latency(net, nodes, packets=80, seed=3):
    rng = random.Random(seed)
    for _ in range(packets):
        src = rng.randrange(nodes)
        dst = (src + rng.randrange(1, nodes)) % nodes
        net.send(Packet(src=src, dst=dst, msg_class=MessageClass.REQUEST,
                        created=net.cycle))
        net.run(4)
    net.drain(max_cycles=50000)
    return net.stats.avg_network_latency


def test_background_ring_scaling(benchmark, save_result):
    def run_all():
        rows = []
        for nodes, w, h in SIZES:
            ring = _uniform_latency(
                build_network(NocParams(mesh_width=nodes, mesh_height=1,
                                        topology="ring")),
                nodes,
            )
            mesh = _uniform_latency(
                build_network(NocParams(kind=NocKind.MESH, mesh_width=w,
                                        mesh_height=h)),
                nodes,
            )
            rows.append([nodes, ring, mesh, ring / mesh])
        return rows

    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    save_result(
        "background_ring_scaling",
        format_table(["Tiles", "Ring latency", "Mesh latency", "Ring/Mesh"],
                     rows, "Section II-B: ring vs mesh latency scaling"),
    )
    by_nodes = {r[0]: r for r in rows}
    # The ring's disadvantage grows with the tile count.
    assert by_nodes[36][3] > by_nodes[16][3]
    assert by_nodes[64][3] > by_nodes[36][3]
    # At 64 tiles the ring is clearly worse than the mesh.
    assert by_nodes[64][3] > 1.5
