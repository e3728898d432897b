"""Every metric name the ledger fixes, with unit, direction and bound.

Later issues refer to these names, so they only ever grow.  ``kind``
says which clock a number uses: ``host`` is the simulator's own time and
memory (median over fresh-process repetitions), ``simulated`` and
``accuracy`` are what the modelled chip did (exact for a seed), ``check``
is the failure ratio.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from probe import SHARE_METRICS


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    #: Share of the baseline's median by which the metric may worsen
    #: before a change counts as a regression.  There is one bound per
    #: metric: BENCHMARK.json declares it to the driver and ``--compare``
    #: applies it.  A simulated metric repeats exactly for a seed, so
    #: ``--compare`` holds two files of one seed to equality, which is
    #: stricter; its bound is for the driver, which compares runs of
    #: different seeds.  The time metrics take 25 %, the most the contract
    #: allows, because the sandbox does: over ten seeds the interquartile
    #: spread of ``wall_s`` was 3 to 26 % of its median (README.md,
    #: "How steady the host is"), and the contract wants a bound of three
    #: times the spread.
    #:
    #: None marks the five metrics the contract cannot carry, because it
    #: wants every end-to-end metric on every workload, never zero, under
    #: a relative bound: ``fail_ratio`` is always 0 (the result line's
    #: ``failed``/``attempted`` carry it), the p99 is undefined on
    #: ``grid_sweep``, and the gaps exist only on ``server_fullsys`` and
    #: sit near zero.  BENCHMARK.json lists them under ``per_layer``;
    #: ``--compare`` holds them to equality, and any rise in
    #: ``fail_ratio`` is a regression.
    bound: Optional[float]


END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_s", "s", "lower", "host", 0.25),
    EndToEnd("sim_cycles_per_s", "1/s", "higher", "host", 0.25),
    EndToEnd("host_us_per_packet", "us", "lower", "host", 0.25),
    EndToEnd("cpu_s", "s", "lower", "host", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", "host", 0.15),
    EndToEnd("setup_s", "s", "lower", "host", 0.25),
    EndToEnd("fail_ratio", "ratio", "lower", "check", None),
    EndToEnd("avg_packet_latency_cycles", "cycles", "lower", "simulated",
             0.15),
    EndToEnd("p99_packet_latency_cycles", "cycles", "lower", "simulated",
             None),
    EndToEnd("delivered_packets_per_kcycle", "1/kcycle", "higher",
             "simulated", 0.10),
    EndToEnd("pra_speedup_gap", "ratio", "lower", "accuracy", None),
    EndToEnd("ideal_speedup_gap", "ratio", "lower", "accuracy", None),
    EndToEnd("smart_speedup_gap", "ratio", "lower", "accuracy", None),
]

#: A set-up slower by less than this many seconds is never a regression
#: to ``--compare`` (``setup_s`` is about 0.15 s; 25 % of that is inside
#: process-start noise).
SETUP_FLOOR_S = 0.05


class Layer(NamedTuple):
    name: str
    unit: str
    better: str


def _layers(unit: str, better: str, *names: str) -> List[Layer]:
    return [Layer(name, unit, better) for name in names]


PER_LAYER: List[Layer] = (
    _layers("ratio", "lower", *SHARE_METRICS)
    # repro.noc
    + _layers("s", "lower", "noc.build_s", "noc.step_s", "noc.drain_s")
    + _layers("cycles", "lower", "noc.drain_cycles")
    + _layers("cycles", "higher", "noc.cycles", "noc.cycles_skipped")
    + _layers("ratio", "higher", "noc.skip_ratio")
    + _layers("us", "lower", "noc.host_us_per_stepped_cycle")
    + _layers("flits/link/cyc", "higher", "noc.link_utilization")
    + _layers("hops", "lower", "noc.avg_hops")
    + _layers("ratio", "lower", "noc.router.step_calls_per_cycle",
              "noc.router.step_calls_per_packet_hop",
              "noc.interface.step_calls_per_cycle")
    + _layers("ratio", "higher", "noc.packet.pool_reuse_ratio",
              "noc.flit.pool_reuse_ratio")
    # repro.core (paper: control/data 1.60-1.89, blocked 0.01 %, lag0 61 %)
    + _layers("count", "higher", "core.control_packets")
    + _layers("ratio", "higher", "core.control_per_data",
              "core.lag0_fraction")
    + _layers("ratio", "lower", "core.blocked_fraction")
    # repro.tile / repro.perf / repro.workloads
    + _layers("s", "lower", "workloads.inject_s", "perf.build_s",
              "perf.run_sample_s.mesh", "perf.run_sample_s.smart",
              "perf.run_sample_s.pra", "perf.run_sample_s.ideal")
    + _layers("count", "higher", "workloads.offered_packets")
    + _layers("instr/cycle", "higher", "perf.ipc_mesh", "perf.ipc_smart",
              "perf.ipc_pra", "perf.ipc_ideal")
    + _layers("ratio", "higher", "perf.pra_speedup", "perf.ideal_speedup",
              "perf.smart_speedup")
    + _layers("cycles", "lower", "perf.avg_txn_latency_cycles")
    # repro.analytic
    + _layers("s", "lower", "analytic.predict_s")
    + _layers("ratio", "lower", "analytic.latency_err_max",
              "analytic.ipc_err_max")
    # repro.harness / repro.resilience
    + _layers("s", "lower", "harness.grid_cold_s", "harness.grid_warm_s")
    + _layers("count", "higher", "harness.cells", "harness.store_hits")
    + _layers("1/s", "higher", "harness.cells_per_s")
    + _layers("ratio", "higher", "harness.parallel_efficiency")
    + _layers("count", "lower", "harness.store_misses", "resilience.retries",
              "resilience.pool_rebuilds", "resilience.respawns")
    # repro.checkpoint
    + _layers("s", "lower", "checkpoint.snapshot_s", "checkpoint.write_s",
              "checkpoint.read_s", "checkpoint.restore_s")
    + _layers("count", "higher", "checkpoint.count")
    + _layers("B", "lower", "checkpoint.bytes_per_snapshot")
    + _layers("ratio", "lower", "checkpoint.overhead_ratio")
    + _layers("ms", "lower", "checkpoint.store_get_ms",
              "checkpoint.store_put_ms")
    # repro.shard
    + _layers("s", "lower", "shard.process_s", "shard.serial_s",
              "shard.inline_s")
    + _layers("ratio", "higher", "shard.speedup_vs_serial")
    + _layers("ratio", "lower", "shard.cpu_ratio")
    + _layers("count", "higher", "shard.effective_shards")
    # repro.trace / repro.invariants / repro.faults
    + _layers("ratio", "lower", "trace.attached_slowdown.mesh",
              "trace.attached_slowdown.pra",
              "invariants.attached_slowdown.mesh")
    + _layers("1/cycle", "lower", "trace.events_per_cycle")
    # the ledger itself
    + _layers("ratio", "lower", "ledger.trace_overhead")
    + _layers("count", "higher", "ledger.samples")
    + _layers("Mit/s", "higher", "ledger.calibration_mips")
)

NOT_EXERCISED = "not exercised by this workload"


def contract() -> dict:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    bounded = [m for m in END_TO_END if m.bound is not None]
    unbounded = [m for m in END_TO_END if m.bound is None]
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in bounded],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in unbounded + PER_LAYER],
    }
