"""Full-system co-simulation: 64 cores + chip + NoC, SimFlex-style.

Mirrors the paper's methodology (Section IV-D): launch from a warmed
state, run a warm-up interval of detailed simulation to reach steady
state, then measure application instructions per cycle over the
measurement interval.  Per-workload, per-NoC performance numbers come
from :func:`simulate`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.params import ChipParams, NocKind, default_chip
from repro.perf.core_model import CoreModel
from repro.tile.chip import Chip
from repro.tile.llc import Transaction
from repro.workloads.profiles import WorkloadProfile, get_profile


@dataclass
class PerfSample:
    """One measurement interval's results."""

    workload: str
    noc_kind: NocKind
    instructions: int
    cycles: int
    packets: int
    avg_network_latency: float
    #: The same mean network latency under its historical name (the
    #: golden digests pin ``to_dict()``'s keys); it is not an
    #: issue-to-completion transaction latency.
    avg_transaction_latency: float
    #: PRA diagnostics (zero for other organizations).
    control_packets: int = 0
    control_per_data: float = 0.0
    lag_distribution: Dict[int, float] = field(default_factory=dict)
    pra_blocked_fraction: float = 0.0
    #: Link/buffer activity for the power model.
    flits_delivered: int = 0
    total_hops: int = 0
    #: Packets injected during the interval minus packets ejected during
    #: it.  Not an in-flight count: packets injected before the interval
    #: and ejected inside it are subtracted too, so it can be negative.
    packets_unfinished: int = 0
    #: True when the wall-clock limit cut the interval short; the
    #: counters then cover only the cycles actually simulated.
    timed_out: bool = False

    @property
    def ipc(self) -> float:
        """Aggregate application instructions per cycle (all cores)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary (for manifests and notebooks)."""
        return {
            "workload": self.workload,
            "noc": self.noc_kind.value,
            "ipc": self.ipc,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "packets": self.packets,
            "avg_network_latency": self.avg_network_latency,
            "avg_transaction_latency": self.avg_transaction_latency,
            "control_packets": self.control_packets,
            "control_per_data": self.control_per_data,
            "lag_distribution": {
                str(k): v for k, v in self.lag_distribution.items()
            },
            "pra_blocked_fraction": self.pra_blocked_fraction,
            "packets_unfinished": self.packets_unfinished,
            "timed_out": self.timed_out,
        }

    # -- checkpointing ---------------------------------------------------

    def to_state(self) -> dict:
        """Full round-trippable form for the evaluation-grid cell store.

        Separate from :meth:`to_dict`, whose key set is pinned by the
        golden digests and which drops fields (e.g. ``flits_delivered``)
        that the power model needs back.
        """
        return {
            "workload": self.workload,
            "noc_kind": self.noc_kind.value,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "packets": self.packets,
            "avg_network_latency": self.avg_network_latency,
            "avg_transaction_latency": self.avg_transaction_latency,
            "control_packets": self.control_packets,
            "control_per_data": self.control_per_data,
            "lag_distribution": [
                [lag, frac] for lag, frac in self.lag_distribution.items()
            ],
            "pra_blocked_fraction": self.pra_blocked_fraction,
            "flits_delivered": self.flits_delivered,
            "total_hops": self.total_hops,
            "packets_unfinished": self.packets_unfinished,
            "timed_out": self.timed_out,
            # Constant since grid pruning went (every sample is
            # simulated).  The key stays so the state's bytes, and with
            # them stored cells and the ledger's grid digest, hold.
            "analytic": False,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PerfSample":
        state = dict(state)
        state.pop("analytic", None)
        state["noc_kind"] = NocKind(state["noc_kind"])
        state["lag_distribution"] = {
            lag: frac for lag, frac in state["lag_distribution"]
        }
        return cls(**state)


class SystemSimulator:
    """Assembles and runs one (workload, NoC) configuration."""

    def __init__(
        self,
        workload: Union[str, WorkloadProfile],
        noc_kind: NocKind,
        chip_params: Optional[ChipParams] = None,
        seed: int = 0,
    ):
        self.profile = (
            workload if isinstance(workload, WorkloadProfile)
            else get_profile(workload)
        )
        self.noc_kind = noc_kind
        params = chip_params or default_chip(noc_kind)
        if params.noc.kind is not noc_kind:
            params = params.with_noc_kind(noc_kind)
        self.params = params
        self.chip = Chip(
            params,
            llc_hit_ratio=self.profile.llc_hit_ratio,
            seed=seed,
        )
        self.cores = [
            CoreModel(node, self.chip, self.profile, seed=seed)
            for node in range(params.num_tiles)
        ]
        self.chip.on_complete = self._route_completion
        self._started = False
        #: Counter snapshot taken at the measurement interval's start
        #: (``None`` outside an interval), and the cycle it was taken.
        self._interval_start: Optional["_Snapshot"] = None
        self._interval_cycle0 = 0

    def _route_completion(self, txn: Transaction, now: int) -> None:
        self.cores[txn.core_node].on_complete(txn, now)

    # -- measurement --------------------------------------------------------------

    def start(self) -> None:
        """Start all cores (idempotent)."""
        if self._started:
            return
        for core in self.cores:
            core.start()
        self._started = True

    def begin_interval(self) -> None:
        """Mark the start of a measurement interval."""
        self._interval_start = _Snapshot.take(self)
        self._interval_cycle0 = self.chip.cycle

    def end_interval(self) -> PerfSample:
        """Close the open measurement interval and report it."""
        if self._interval_start is None:
            raise RuntimeError("no measurement interval is open")
        end = _Snapshot.take(self)
        sample = self._diff(
            self._interval_start, end, self.chip.cycle - self._interval_cycle0
        )
        self._interval_start = None
        self._interval_cycle0 = 0
        return sample

    def run_sample(
        self,
        warmup: int = 2000,
        measure: int = 10000,
        wall_limit: Optional[float] = None,
    ) -> PerfSample:
        """Warm up, then measure one interval (the SimFlex recipe).

        ``wall_limit`` bounds the *wall-clock* seconds spent in this call;
        a run that exceeds it stops at a chunk boundary and reports the
        cycles it did simulate with ``timed_out=True`` instead of hanging
        the harness.
        """
        self.start()
        deadline = (
            time.monotonic() + wall_limit if wall_limit is not None else None
        )
        self._run_budget(warmup, deadline)
        self.begin_interval()
        hit_limit = self._run_budget(measure, deadline)
        sample = self.end_interval()
        sample.timed_out = hit_limit
        return sample

    def _run_budget(
        self, cycles: int, deadline: Optional[float], chunk: int = 256
    ) -> bool:
        """Run up to ``cycles``; True if the deadline cut the run short."""
        if deadline is None:
            self.chip.run(cycles)
            return False
        remaining = cycles
        while remaining > 0:
            if time.monotonic() >= deadline:
                return True
            step = min(chunk, remaining)
            self.chip.run(step)
            remaining -= step
        return False

    def _diff(self, start: "_Snapshot", end: "_Snapshot",
              cycles: int) -> PerfSample:
        stats = self.chip.network.stats
        n_lat = stats.network_latencies[start.lat_len:end.lat_len]
        packets = end.ejected - start.ejected
        net_time = sum(n_lat)
        avg_net = net_time / len(n_lat) if n_lat else 0.0
        control = end.control - start.control
        lag_counter = end.lag_counter - start.lag_counter
        lag_total = sum(lag_counter.values())
        blocked = end.blocked - start.blocked
        return PerfSample(
            workload=self.profile.name,
            noc_kind=self.noc_kind,
            instructions=end.instructions - start.instructions,
            cycles=cycles,
            packets=packets,
            avg_network_latency=avg_net,
            avg_transaction_latency=avg_net,
            control_packets=control,
            control_per_data=(control / packets) if packets else 0.0,
            lag_distribution=(
                {lag: cnt / lag_total for lag, cnt in sorted(lag_counter.items())}
                if lag_total else {}
            ),
            pra_blocked_fraction=(blocked / net_time) if net_time else 0.0,
            flits_delivered=end.flits - start.flits,
            total_hops=end.hops - start.hops,
            packets_unfinished=(
                (end.injected - start.injected) - packets
            ),
        )

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        return {
            "started": self._started,
            "interval": (
                self._interval_start.state_dict()
                if self._interval_start is not None else None
            ),
            "interval_cycle0": self._interval_cycle0,
            "chip": self.chip.state_dict(ctx),
            "cores": [core.state_dict() for core in self.cores],
        }

    def load_state(self, state: dict, ctx) -> None:
        self._started = state["started"]
        self._interval_start = (
            _Snapshot.from_state(state["interval"])
            if state["interval"] is not None else None
        )
        self._interval_cycle0 = state["interval_cycle0"]
        self.chip.load_state(state["chip"], ctx)
        for core, sub in zip(self.cores, state["cores"]):
            core.load_state(sub)


class _Snapshot:
    """Counter snapshot for interval differencing."""

    __slots__ = (
        "instructions", "injected", "ejected", "lat_len", "control",
        "lag_counter", "blocked", "flits", "hops",
    )

    @classmethod
    def take(cls, sim: SystemSimulator) -> "_Snapshot":
        snap = cls()
        stats = sim.chip.network.stats
        snap.instructions = sum(c.instructions_retired for c in sim.cores)
        snap.injected = stats.packets_injected
        snap.ejected = stats.packets_ejected
        snap.lat_len = len(stats.network_latencies)
        snap.control = stats.control_packets_injected
        snap.lag_counter = Counter(stats.control_lag_at_drop)
        snap.blocked = stats.pra_blocked_cycles
        snap.flits = stats.flits_ejected
        snap.hops = stats.total_hops
        return snap

    def state_dict(self) -> dict:
        return {
            "instructions": self.instructions,
            "injected": self.injected,
            "ejected": self.ejected,
            "lat_len": self.lat_len,
            "control": self.control,
            "lag_counter": sorted(self.lag_counter.items()),
            "blocked": self.blocked,
            "flits": self.flits,
            "hops": self.hops,
        }

    @classmethod
    def from_state(cls, state: dict) -> "_Snapshot":
        snap = cls()
        snap.instructions = state["instructions"]
        snap.injected = state["injected"]
        snap.ejected = state["ejected"]
        snap.lat_len = state["lat_len"]
        snap.control = state["control"]
        snap.lag_counter = Counter(
            {lag: count for lag, count in state["lag_counter"]}
        )
        snap.blocked = state["blocked"]
        snap.flits = state["flits"]
        snap.hops = state["hops"]
        return snap


def simulate(
    workload: Union[str, WorkloadProfile],
    noc_kind: NocKind,
    warmup: int = 2000,
    measure: int = 10000,
    seed: int = 0,
    chip_params: Optional[ChipParams] = None,
    wall_limit: Optional[float] = None,
) -> PerfSample:
    """One-call convenience wrapper: build, warm up, measure.

    Pass ``wall_limit`` (seconds) to bound the run's wall-clock time.
    """
    sim = SystemSimulator(workload, noc_kind, chip_params=chip_params,
                          seed=seed)
    return sim.run_sample(warmup=warmup, measure=measure,
                          wall_limit=wall_limit)
