"""Per-workload characterization of the six CloudSuite applications.

The parameters encode what the paper's argument actually depends on:

* ``i_mpki`` — L1-I misses per kilo-instruction.  Server instruction
  footprints dwarf the L1-I ([1], [2]), so instruction misses dominate
  NoC traffic and *serialize* the core (fetch stalls hide nothing).
* ``d_mpki`` — L1-D misses per kilo-instruction reaching the LLC.
* ``llc_hit_ratio`` — the modestly sized LLC is engineered to capture
  the instruction footprint and shared OS data ([18]), so hit ratios
  are high; what misses goes to memory.
* ``base_cpi`` — cycles per instruction with a perfect memory system:
  the ILP proxy for the 3-way Cortex-A15-like core.
* ``mlp`` — sustainable overlapping data misses (bounded by the
  16-entry LSQ and the workloads' pointer-chasing behavior).
* ``write_fraction`` — data accesses that are writes; the directory
  turns each into invalidations of the block's other sharers, the
  (negligible) coherence traffic.

Values are calibrated from the CloudSuite characterization the paper
cites ([2]: Ferdman et al., ASPLOS'12; [3]; [7]) — e.g. Media Streaming
has the lowest ILP and MLP of the suite, which the paper names as the
reason it gains the most from PRA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical model of one server workload on one core."""

    name: str
    #: L1-I misses per kilo-instruction (LLC requests, serializing).
    i_mpki: float
    #: L1-D misses per kilo-instruction (LLC requests, overlappable).
    d_mpki: float
    #: Probability an LLC lookup hits.
    llc_hit_ratio: float
    #: Cycles per instruction with a perfect memory hierarchy.
    base_cpi: float
    #: Maximum overlapping outstanding data misses.
    mlp: float
    #: Fraction of data accesses that are writes.
    write_fraction: float = 0.2
    #: Latency-sensitive (vs. batch), per the paper's Table of workloads.
    latency_sensitive: bool = True

    @property
    def total_mpki(self) -> float:
        return self.i_mpki + self.d_mpki

    @property
    def instruction_miss_fraction(self) -> float:
        return self.i_mpki / self.total_mpki

    @property
    def mean_instructions_between_misses(self) -> float:
        return 1000.0 / self.total_mpki


#: The six CloudSuite workloads of the paper's evaluation (Section IV-C).
CLOUDSUITE: Dict[str, WorkloadProfile] = {
    p.name: p
    for p in (
        WorkloadProfile(
            name="Data Serving",
            i_mpki=22.0,
            d_mpki=11.0,
            llc_hit_ratio=0.88,
            base_cpi=0.62,
            mlp=2.0,
        ),
        WorkloadProfile(
            name="MapReduce",
            i_mpki=16.0,
            d_mpki=14.0,
            llc_hit_ratio=0.90,
            base_cpi=0.55,
            mlp=2.6,
            latency_sensitive=False,
        ),
        WorkloadProfile(
            name="Media Streaming",
            i_mpki=24.0,
            d_mpki=8.0,
            llc_hit_ratio=0.92,
            base_cpi=0.85,
            mlp=1.2,
        ),
        WorkloadProfile(
            name="SAT Solver",
            i_mpki=10.0,
            d_mpki=22.0,
            llc_hit_ratio=0.86,
            base_cpi=0.50,
            mlp=3.2,
            latency_sensitive=False,
        ),
        WorkloadProfile(
            name="Web Frontend",
            i_mpki=28.0,
            d_mpki=10.0,
            llc_hit_ratio=0.90,
            base_cpi=0.68,
            mlp=1.6,
        ),
        WorkloadProfile(
            name="Web Search",
            i_mpki=21.0,
            d_mpki=9.0,
            llc_hit_ratio=0.91,
            base_cpi=0.70,
            mlp=1.4,
        ),
    )
}

#: Paper ordering (alphabetical, as in Figures 6 and 9).
WORKLOAD_NAMES: Tuple[str, ...] = tuple(CLOUDSUITE)

#: CLI-friendly short names (lowercase, no spaces).
WORKLOAD_ALIASES: Dict[str, str] = {
    "data": "Data Serving",
    "serving": "Data Serving",
    "mapreduce": "MapReduce",
    "media": "Media Streaming",
    "streaming": "Media Streaming",
    "sat": "SAT Solver",
    "frontend": "Web Frontend",
    "web": "Web Search",
    "search": "Web Search",
}


def resolve_workload(name: str) -> str:
    """Map a workload name or short alias to its canonical name.

    Accepts the exact name ("Web Search"), a case-insensitive variant
    ("web search"), or a registered short alias ("web")."""
    if name in CLOUDSUITE:
        return name
    lowered = name.lower()
    for canonical in CLOUDSUITE:
        if canonical.lower() == lowered:
            return canonical
    alias = WORKLOAD_ALIASES.get(lowered)
    if alias is not None:
        return alias
    raise KeyError(
        f"unknown workload {name!r}; choose from {WORKLOAD_NAMES} "
        f"or aliases {sorted(WORKLOAD_ALIASES)}"
    )


def get_profile(name: str) -> WorkloadProfile:
    return CLOUDSUITE[resolve_workload(name)]
