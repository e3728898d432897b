"""Chiplet hierarchies: per-chiplet sub-meshes over an interposer.

A disaggregated server part: ``CX x CY`` compute chiplets, each an
``W x H`` sub-mesh of ordinary tiles, joined through one gateway router
per chiplet.  The gateway's extra ports cross the package substrate —
either to the four neighbouring gateways over an interposer mesh, or up
to a central IO die (star variant) — with a configurable (slower)
inter-chiplet link latency.  All structure lives in
:class:`repro.noc.topology.ChipletTopology`, the escape-layer rule
included (``advances_layer``: any port >= ``FIRST_INTERPOSER_PORT``), so
a chiplet hierarchy runs on the stock
:class:`~repro.noc.mesh.MeshNetwork`; this module is the convenience
constructor.

Deadlock freedom mirrors the ring's dateline argument, keyed on the
hierarchy instead of a wrap link: layer 0 carries a packet's
intra-source-chiplet XY hops (acyclic) and layer 1 everything after its
first inter-chiplet hop — interposer XY or star hops, then
intra-destination XY — which is acyclic because the hierarchical route
never re-enters an earlier phase.  The only cross-layer dependency is
0 → 1, so the layered VC dependency graph is acyclic
(``tests/test_properties.py`` builds that graph and checks it; the
runtime deadlock watchdog keeps watching on every chiplet run).
"""

from __future__ import annotations

from dataclasses import replace

from repro.noc.mesh import MeshNetwork
from repro.params import NocParams


def build_chiplet(spec: str = "chiplet:2x2x4x4",
                  flits_per_vc: int = 5) -> MeshNetwork:
    """Convenience constructor from a spec string."""
    params = NocParams(topology=spec)
    return MeshNetwork(replace(
        params, router=replace(params.router, flits_per_vc=flits_per_vc),
    ))
