#!/usr/bin/env python3
"""Why server chips moved from rings to meshes (paper Section II-B).

Measures low-load average network latency of a Xeon-E5-style
bidirectional ring against a mesh as the tile count grows — the ring's
delay depends linearly on the number of interconnected components, the
mesh's on its square root.

Run:  python examples/ring_vs_mesh.py
"""

import random

from repro.noc.network import build_network
from repro.noc.packet import Packet
from repro.params import MessageClass, NocKind, NocParams


def measure(net, nodes, packets=80, seed=11):
    rng = random.Random(seed)
    for _ in range(packets):
        src = rng.randrange(nodes)
        dst = (src + rng.randrange(1, nodes)) % nodes
        net.send(Packet(src=src, dst=dst, msg_class=MessageClass.REQUEST,
                        created=net.cycle))
        net.run(4)
    net.drain(max_cycles=50000)
    return net.stats.avg_network_latency, net.stats.avg_hops


def main() -> None:
    print("Average request latency (cycles) at low load:\n")
    print(f"{'tiles':>6s} {'ring':>8s} {'mesh':>8s} {'ring hops':>10s} "
          f"{'mesh hops':>10s}")
    for nodes, w, h in ((16, 4, 4), (36, 6, 6), (64, 8, 8)):
        ring = build_network(NocParams(mesh_width=nodes, mesh_height=1,
                                       topology="ring"))
        ring_lat, ring_hops = measure(ring, nodes)
        mesh = build_network(NocParams(kind=NocKind.MESH, mesh_width=w,
                                       mesh_height=h))
        mesh_lat, mesh_hops = measure(mesh, nodes)
        print(f"{nodes:>6d} {ring_lat:>8.2f} {mesh_lat:>8.2f} "
              f"{ring_hops:>10.2f} {mesh_hops:>10.2f}")
    print("\nThe ring's average distance grows ~N/4; the mesh's ~(2/3)sqrt(N).")
    print("At 64 tiles the ring is no longer viable — hence the tiled mesh,")
    print("and hence this paper's problem: making that mesh near-ideal.")


if __name__ == "__main__":
    main()
