"""Cycle-accurate network-on-chip substrate.

This subpackage is the reproduction's analog of BookSim 2.0: a flit-level
wormhole network simulator with virtual channels, credit-based flow
control, dimension-ordered routing, and per-cycle router pipelines.  The
three realistic organizations share this substrate:

* :mod:`repro.noc.mesh` — the baseline 1-stage speculative mesh router
  (two cycles per hop at zero load),
* :mod:`repro.noc.smart` — the SMART single-cycle multi-hop network
  (three cycles per hop at zero load, HPC_max = 2),
* :mod:`repro.core.pra_network` — Mesh+PRA, built on the mesh router with
  proactive resource allocation (lives in :mod:`repro.core`).

The hypothetical zero-router-delay network is :mod:`repro.noc.ideal`.
All of them run over a composable topology graph
(:mod:`repro.noc.topology`): the flat mesh, the background-section
ring, and chiplet + interposer hierarchies
(``--topology chiplet:2x2x4x4[:star][:ilat=N]``).
"""

from repro.noc.flit import Flit, FlitType
from repro.noc.packet import Packet
from repro.noc.topology import (
    ChipletTopology,
    Direction,
    Link,
    MeshTopology,
    RingTopology,
    Topology,
    TopologySpec,
    as_port,
    build_topology,
    parse_topology_spec,
    port_name,
)
from repro.noc.stats import NetworkStats
from repro.noc.network import Network, build_network
# Loaded with the package, so the router modules are in memory before a
# sharded run forks its workers, which then share them.
from repro.noc.mesh import MeshNetwork

__all__ = [
    "Flit",
    "FlitType",
    "Packet",
    "Direction",
    "Link",
    "Topology",
    "TopologySpec",
    "MeshTopology",
    "RingTopology",
    "ChipletTopology",
    "as_port",
    "port_name",
    "parse_topology_spec",
    "build_topology",
    "NetworkStats",
    "Network",
    "MeshNetwork",
    "build_network",
]
