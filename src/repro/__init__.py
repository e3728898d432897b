"""Reproduction of "Near-Ideal Networks-on-Chip for Servers" (HPCA 2017).

Lotfi-Kamran, Modarressi, and Sarbazi-Azad propose Proactive Resource
Allocation (PRA): eliminating per-hop resource-allocation time in a
server processor's NoC by reserving output-port timeslots and
full-packet buffers ahead of data packets, during the LLC's serial
tag-to-data lookup window and during deterministic in-network blocking.

Subpackage map (see DESIGN.md for the full inventory):

* :mod:`repro.params` — the paper's Table I configuration;
* :mod:`repro.noc` — cycle-accurate substrate: Mesh, SMART, Ideal, Ring;
* :mod:`repro.core` — the contribution: Mesh+PRA;
* :mod:`repro.tile` — LLC slices, directory, memory channels, the chip;
* :mod:`repro.workloads` — CloudSuite profiles and synthetic traffic;
* :mod:`repro.perf` — cores and system co-simulation;
* :mod:`repro.physical` — area, power, and density models;
* :mod:`repro.harness` — every table and figure of the evaluation.

Quick start::

    from repro.params import NocKind
    from repro.perf import simulate

    mesh = simulate("Web Search", NocKind.MESH)
    pra = simulate("Web Search", NocKind.MESH_PRA)
    print(pra.ipc / mesh.ipc)
"""

__version__ = "1.0.0"

from repro.params import ChipParams, MessageClass, NocKind, default_chip

__all__ = [
    "__version__",
    "ChipParams",
    "MessageClass",
    "NocKind",
    "default_chip",
]
