"""The paper's contribution: proactive resource allocation (PRA).

Mesh+PRA augments the baseline mesh data network with:

* a per-router table of promised future timeslots, the paper's
  reservation bit vectors (:mod:`repro.core.reservation`),
* a bypass path and a one-cycle latch in each input unit, a PRA arbiter
  beside the local arbiter, and a Long Stall Detection unit
  (:mod:`repro.core.pra_router`),
* a narrow bufferless control network of 2-hop multi-drop segments that
  carries one-flit control packets reserving timeslots and full-packet
  buffer space ahead of data packets (:mod:`repro.core.control_network`).

A pre-allocated packet crosses up to two tiles per cycle; everywhere
else the network behaves exactly like the baseline mesh.
"""

from repro.core.plan import PlanStep, PraPlan
from repro.core.reservation import Promises, Window
from repro.core.control_network import ControlNetwork
from repro.core.pra_network import PraNetwork

__all__ = [
    "PlanStep",
    "PraPlan",
    "Promises",
    "Window",
    "ControlNetwork",
    "PraNetwork",
]
