"""A bidirectional ring interconnect (paper Section II-B).

The paper motivates tiled meshes by noting that the ring interconnect of
contemporary server parts (Intel Xeon E5) "stands as a major obstacle
for scaling up the core count, as its delay has linear dependence on the
number of interconnected components."  This module implements that
baseline so the claim can be reproduced as an experiment
(`benchmarks/test_background_ring_scaling.py`).

Structure: N ring stops, each with a clockwise port, a counter-clockwise
port, and the local NI port.  All of it is
:class:`repro.noc.topology.RingTopology` — the wrap links, the
shorter-direction routing law, and the *dateline* that keeps the
wrap-around cycle deadlock-free (two VC layers per message class; the
two wrap links advance a packet to layer 1) — so the ring runs on the
stock :class:`~repro.noc.mesh.MeshNetwork` with the mesh's 1-stage
speculative pipeline (2 cycles/hop at zero load).  This module is the
convenience constructor.
"""

from __future__ import annotations

from dataclasses import replace

from repro.noc.mesh import MeshNetwork
from repro.params import NocParams


def build_ring(num_stops: int, flits_per_vc: int = 5) -> MeshNetwork:
    """Convenience constructor: a ring of ``num_stops`` tiles."""
    params = NocParams(mesh_width=num_stops, mesh_height=1, topology="ring")
    return MeshNetwork(replace(
        params, router=replace(params.router, flits_per_vc=flits_per_vc),
    ))
