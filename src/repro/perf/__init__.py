"""Full-system performance model: cores and co-simulation.

The Flexus/SimFlex substitute (DESIGN.md §5): trace-driven cores whose
every L1 miss is a real packet pair through the cycle-accurate NoC, with
per-workload ILP (base CPI) and MLP limits governing how much of the LLC
round-trip each core can hide.  Performance is measured exactly the way
the paper measures it — application instructions per cycle, aggregated
over all 64 cores — and normalized to the mesh baseline.
"""

from repro.perf.core_model import CoreModel
from repro.perf.system import PerfSample, SystemSimulator, simulate
from repro.perf.metrics import geomean

__all__ = [
    "CoreModel",
    "PerfSample",
    "SystemSimulator",
    "simulate",
    "geomean",
]
