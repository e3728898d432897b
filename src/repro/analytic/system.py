"""Closed-loop full-system prediction: IPC <-> injection <-> latency.

The evaluation grid's cells are *closed-loop*: cores inject misses at a
rate set by their IPC, and their IPC depends on the miss latency, which
depends on the injection rate.  This module solves that loop as a
damped fixed point over the per-core IPC:

    miss rate  = IPC * MPKI / 1000
    node rate  = 2 * miss rate * P(remote home) + coherence
    latencies  = queueing model at that rate          (per class)
    L_txn      = request + LLC bank + data/memory + response-head + 1
    CPI        = base + i_misses * L + d_misses * stall(L, MLP)
    IPC        = 1 / CPI

The component constants mirror the simulator's transaction path exactly
(``repro.tile.chip``/``llc``/``memory``): serial tag(1)+data(4) LLC
lookups on an M/G/1 bank, a 2-cycle controller overhead each way for
the 1/64 of accesses whose home is the local slice, four 90-cycle
memory channels, and critical-word-first completion one cycle after the
response head lands (4 cycles before its tail under 1-flit/cycle
ejection).  Instruction misses serialize the core.  Data-miss stalls
mirror :class:`repro.perf.core_model.CoreModel`'s actual mechanism —
the MLP *limit* is re-sampled per miss (``int(mlp)`` or one more, by
the fractional part), and the core stalls only when outstanding misses
reach it:

* a limit-1 draw stalls for the full transaction latency (the common
  case for the low-MLP server workloads, and why ``latency / MLP``
  amortization overpredicts stalls badly at MLP > 2);
* larger limits stall only when the in-flight window actually fills,
  which happens with probability ``P(Poisson(L/D) >= limit)`` for
  inter-data-miss core time ``D`` — the geometric inter-miss gaps make
  arrivals into the window memoryless.

Writes additionally trigger directory invalidations (single-flit
coherence packets, ~2-5% of traffic); their expected fan-out is a
fitted constant, since the simulator's sharer lists truncate under
directory eviction in a rate-dependent way no closed form captures.

The result converges in tens of iterations to < 1e-10, is deterministic
and parameter-pure, and takes ~100 microseconds per cell.  It checks
the simulator and never stands in for it: ``analytic --validate``
compares every cell against the cycle-accurate grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from math import exp

from repro.analytic.queueing import TrafficMix, predict_network
from repro.params import ChipParams, NocKind, default_chip
from repro.tile.chip import LOCAL_ACCESS_OVERHEAD
from repro.workloads.profiles import get_profile

#: Expected directory invalidations per write reaching the LLC, fit
#: against the simulator's packet counts (coherence is ~2-5% of
#: traffic; the true fan-out depends on rate-dependent sharer-list
#: eviction).
_COHERENCE_SHARERS_PER_WRITE = 1.0

#: Inflation of the Poisson window-full term in :func:`_data_stall`.
#: The Poisson estimate assumes memoryless arrivals and mean service;
#: the core's post-stall clustering and the bimodal service (LLC hit
#: vs. ~3x-longer memory round trip) both push the real stall up.
#: Fit against the evaluation grid (SAT Solver pins it: MLP 3.2 makes
#: the window term its only data-stall source).
_DATA_STALL_SCALE = 2.25

_FIXED_POINT_ITERS = 200
_FIXED_POINT_TOL = 1e-10


def _mg1_wait(rate: float, e_s: float, e_s2: float) -> float:
    """M/G/1 waiting time, clamped near saturation so the fixed point
    stays finite while it talks itself down from an infeasible rate."""
    rho = rate * e_s
    slack = max(0.02, 1.0 - rho)
    return rate * e_s2 / (2.0 * slack)


def _poisson_tail(rho: float, k: int) -> float:
    """P(N >= k) for N ~ Poisson(rho)."""
    if k <= 0:
        return 1.0
    term = exp(-rho)
    cdf = 0.0
    for i in range(k):
        cdf += term
        term *= rho / (i + 1)
    return max(0.0, 1.0 - cdf)


def _data_stall(l_txn: float, w_exec: float, p_instr: float,
                p_data: float, mlp: float) -> float:
    """Expected stall cycles per *data* miss (see module docstring).

    ``w_exec`` is the mean execution time of one inter-miss window;
    ``p_instr``/``p_data`` split misses by type.  The core issues data
    misses every ``D = (w_exec + p_instr * L) / p_data`` core-cycles
    absent data stalls, so ``rho = L / D`` is the mean in-flight count
    a new miss sees; a limit-``m`` draw stalls when that window is
    full, for roughly the oldest miss's residual ``L / m``.
    """
    m_low = max(1, int(mlp))
    frac = mlp - m_low
    d_free = (w_exec + p_instr * l_txn) / p_data
    rho = l_txn / d_free
    stall = 0.0
    for limit, weight in ((m_low, 1.0 - frac), (m_low + 1, frac)):
        if weight <= 0.0:
            continue
        if limit == 1:
            stall += weight * l_txn
        else:
            stall += (
                weight * _DATA_STALL_SCALE
                * _poisson_tail(rho, limit) * l_txn / limit
            )
    return stall


@dataclass(frozen=True)
class CellPrediction:
    """The model's answer for one evaluation-grid cell."""

    workload: str
    kind: NocKind
    #: Aggregate (64-core) application instructions per cycle.
    ipc: float
    #: Mix-weighted mean packet latency (the grid's
    #: ``avg_network_latency`` analogue).
    avg_network_latency: float


def predict_cell(
    workload: str,
    kind: NocKind,
    chip: Optional[ChipParams] = None,
) -> CellPrediction:
    """Solve the closed loop for one (workload, organization) cell."""
    if chip is None:
        profile = get_profile(workload)
        return _predict_default(profile.name, kind)
    return _solve(workload, kind, chip)


@lru_cache(maxsize=256)
def _predict_default(workload: str, kind: NocKind) -> CellPrediction:
    return _solve(workload, kind, default_chip(kind))


def _solve(workload: str, kind: NocKind,
           chip: ChipParams) -> CellPrediction:
    profile = get_profile(workload)
    noc = chip.noc if chip.noc.kind is kind else chip.noc.with_kind(kind)
    num_tiles = chip.num_tiles
    hit = profile.llc_hit_ratio
    p_remote = (num_tiles - 1) / num_tiles
    tag = chip.cache.tag_lookup_cycles
    data = chip.cache.data_lookup_cycles
    mem_service = chip.memory.service_cycles
    # LLC bank service: tag+data on a hit, tag-only on a miss.
    es_llc = (tag + data) * hit + tag * (1.0 - hit)
    es2_llc = (tag + data) ** 2 * hit + tag ** 2 * (1.0 - hit)

    p_instr = profile.instruction_miss_fraction
    p_data = 1.0 - p_instr
    w_exec = profile.mean_instructions_between_misses * profile.base_cpi

    def rates_and_mix(lam_miss):
        """Per-node packet rates by class at miss rate ``lam_miss``."""
        lam_req = lam_miss * p_remote
        lam_coh = (
            lam_miss * p_data * profile.write_fraction
            * _COHERENCE_SHARERS_PER_WRITE
        )
        node_rate = 2.0 * lam_req + lam_coh
        mix: TrafficMix = (
            ("request", lam_req / node_rate, 1),
            ("response", lam_req / node_rate, 5),
            ("coherence", lam_coh / node_rate, 1),
        )
        return node_rate, mix

    ipc_core = 1.0 / profile.base_cpi
    net = None
    for _ in range(_FIXED_POINT_ITERS):
        lam_miss = ipc_core * profile.total_mpki / 1000.0
        node_rate, mix = rates_and_mix(lam_miss)
        net = predict_network(kind, node_rate, mix, noc)
        if net.saturated:
            # Offered load beyond the bottleneck link: halve and retry
            # (the loop settles onto the saturated branch's fixed point).
            ipc_core *= 0.5
            continue
        w_llc = _mg1_wait(lam_miss, es_llc, es2_llc)
        lam_chan = (
            num_tiles * lam_miss * (1.0 - hit)
            / chip.memory.num_channels
        )
        w_mem = _mg1_wait(lam_chan, mem_service, mem_service ** 2)
        # Critical-word-first: completion fires one cycle after the
        # response head, 4 cycles before the 5-flit tail the network
        # latency is measured at.
        resp_head = net.per_class["response"] - 4.0
        # Network latency is measured head-into-router to ejection; the
        # core's stall additionally covers the source NI: a 1-cycle
        # injection latch plus M/G/1 queueing behind the node's other
        # injections (the port serializes one flit per cycle).
        e_s_ni = sum(w * size for _, w, size in mix)
        e_s2_ni = sum(w * size * size for _, w, size in mix)
        ni_delay = 1.0 + _mg1_wait(node_rate, e_s_ni, e_s2_ni)
        mem_turnaround = 1 + chip.memory.access_cycles + w_mem
        remote_hit = (
            net.per_class["request"] + w_llc + tag + data + resp_head + 1
            + 2 * ni_delay
        )
        remote_miss = (
            net.per_class["request"] + w_llc + tag + mem_turnaround
            + resp_head + 1 + 2 * ni_delay
        )
        local_hit = 2 * LOCAL_ACCESS_OVERHEAD + w_llc + tag + data
        local_miss = 2 * LOCAL_ACCESS_OVERHEAD + w_llc + tag + mem_turnaround
        l_txn = (
            p_remote * (hit * remote_hit + (1.0 - hit) * remote_miss)
            + (1.0 - p_remote)
            * (hit * local_hit + (1.0 - hit) * local_miss)
        )
        cpi = (
            profile.base_cpi
            + profile.i_mpki / 1000.0 * l_txn
            + profile.d_mpki / 1000.0
            * _data_stall(l_txn, w_exec, p_instr, p_data, profile.mlp)
        )
        ipc_new = 1.0 / cpi
        if abs(ipc_new - ipc_core) < _FIXED_POINT_TOL:
            ipc_core = ipc_new
            break
        ipc_core = 0.5 * (ipc_core + ipc_new)
    lam_miss = ipc_core * profile.total_mpki / 1000.0
    node_rate, mix = rates_and_mix(lam_miss)
    net = predict_network(kind, node_rate, mix, noc)
    return CellPrediction(
        workload=profile.name,
        kind=kind,
        ipc=ipc_core * num_tiles,
        avg_network_latency=net.latency,
    )


def clear_prediction_cache() -> None:
    """Drop memoized cell predictions (tests use this for isolation)."""
    _predict_default.cache_clear()
