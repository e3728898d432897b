"""Shared evaluation machinery: the resumable simulation grid.

Every performance figure (2, 6, 7, 9, the Section V-B statistics, and
the power analysis) derives from one grid of full-system simulations:
{workload} x {NoC organization} x {seed}.  Each cell is cached under
one content-addressed key, :func:`~repro.checkpoint.store.cell_key` of
its coordinates, the parameter hash and the code version, in one store
per call:

* a :class:`~repro.checkpoint.store.CellStore` on disk, when one is
  attached (the ``REPRO_CELL_STORE`` env var or an explicit ``store=``
  argument): an interrupted sweep resumes from the cells already done,
  across processes and machines sharing the directory;
* otherwise the **process store**, the same map held in memory for the
  process lifetime, so two figures that share cells simulate them once.

Cache behavior is observable: cell hits and misses are counted on the
module-wide ``grid_stats`` object and appear in
``grid_stats.summary()``.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from repro.checkpoint.codec import CODE_VERSION
from repro.checkpoint.snapshot import params_state
from repro.checkpoint.store import CellStore, cell_key
from repro.config import EvaluationScale, RunConfig, get_scale
from repro.params import NocKind, default_chip
from repro.perf.system import PerfSample, simulate
from repro.workloads.profiles import WORKLOAD_NAMES

#: All four organizations, in the paper's presentation order.
ALL_KINDS = (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA, NocKind.IDEAL)


@dataclass
class GridStats:
    """Harness counters: what the grid did in this process (no
    simulation state lives here; recovery is recorded on the sweep's
    ``RunReport``)."""

    #: Cells served by the call's store vs. cells it had to simulate.
    grid_cache_hits: int = 0
    grid_cache_misses: int = 0

    def summary(self) -> Dict[str, int]:
        return asdict(self)


#: The module-wide counters.
grid_stats = GridStats()

#: Sentinel distinguishing "use the configured store" from "no store".
_UNSET = object()

GridKey = Tuple[str, NocKind]
#: One simulation cell: (workload, kind, warmup, measure, seed).
Cell = Tuple[str, NocKind, int, int, int]


class _MemoryStore(dict):
    """A cell store held in memory: the ``get`` / ``put`` of
    :class:`~repro.checkpoint.store.CellStore` on a dict."""

    put = dict.__setitem__


#: The store of every call with no disk store attached.
_process_store = _MemoryStore()


@lru_cache(maxsize=None)
def _params_hash() -> str:
    """Digest of the default chip parameters the grid simulates with
    (part of every cell key, so a parameter change invalidates persisted
    cells instead of silently reusing them)."""
    payload = {
        kind.value: params_state(default_chip(kind)) for kind in ALL_KINDS
    }
    return cell_key(payload)[:16]


def _cell_payload(cell: Cell) -> dict:
    workload, kind, warmup, measure, seed = cell
    return {
        "workload": workload,
        "kind": kind.value,
        "warmup": warmup,
        "measure": measure,
        "seed": seed,
        "params": _params_hash(),
        "code_version": CODE_VERSION,
    }


def _simulate_cell(cell: Cell, wall_limit: Optional[float]) -> PerfSample:
    workload, kind, warmup, measure, seed = cell
    sample = simulate(workload, kind, warmup=warmup, measure=measure,
                      seed=seed, wall_limit=wall_limit)
    if sample.timed_out:
        print(
            f"warning: {workload}/{kind.value} seed {seed} hit the "
            f"REPRO_WALL_LIMIT wall-clock budget after {sample.cycles} "
            f"measured cycles; reporting the partial interval",
            file=sys.stderr,
        )
    return sample


def _run_cell(item: tuple) -> PerfSample:
    """The supervisor's work function: ``item`` is ``(cell,
    wall_limit)``.  Top-level so it pickles for the worker pool, and
    it looks ``_simulate_cell`` up at call time.

    A finished simulator is cyclic garbage that only a full collection
    frees; collecting here keeps a pool worker's peak at one cell's
    footprint instead of several dead simulators'."""
    sample = _simulate_cell(*item)
    gc.collect()
    return sample


def _cell_label(cell: Cell) -> str:
    workload, kind, _, _, seed = cell
    return f"{workload}/{kind.value} seed {seed}"


def evaluation_grid(
    workloads: Iterable[str] = WORKLOAD_NAMES,
    kinds: Iterable[NocKind] = ALL_KINDS,
    scale: Optional[EvaluationScale] = None,
    store=_UNSET,
    analytic: str = "off",
    config: Optional[RunConfig] = None,
) -> Dict[GridKey, PerfSample]:
    """Run (or fetch) the {workload} x {organization} simulation grid.

    ``config`` is the sweep's :class:`~repro.config.RunConfig`; without
    one, the environment is resolved here, at call time.  Explicit
    ``scale`` and ``store`` arguments win over it.

    ``store`` is the :class:`~repro.checkpoint.store.CellStore` the
    cells are read from and written to; by default it is the one
    ``config.cell_store`` names.  With none (``store=None``, or nothing
    configured) the call uses the process store, in memory.  Every cell
    is looked up by its key, and only the misses are simulated: with
    ``config.jobs > 1`` in a worker pool, while the store is read and
    written in this process.  Each finished cell is put as soon as it
    completes (a crash mid-sweep keeps all cells already computed),
    except a cell cut short by ``config.wall_limit``, which is a
    partial measurement.  Multi-seed scales merge per-seed samples by
    summing instructions and cycles into one sample per cell.

    Every cell is simulated or served from the store; the queueing
    model never stands in for one.  ``analytic`` survives only because
    the frozen benchmark ledger passes ``analytic="off"``, and it goes
    with Ledger v2 (ROADMAP item 2 f).  Any other value raises
    :class:`ValueError`: grid pruning was removed.

    The sweep runs supervised (see :mod:`repro.resilience`): failing
    cells retry with backoff and are quarantined after repeated
    failures (their grid entries are dropped rather than killing the
    sweep), crashed worker pools are rebuilt, and the resulting
    :class:`~repro.resilience.RunReport` is available afterwards via
    :func:`repro.resilience.last_run_report`.
    """
    from repro.resilience import supervise

    if analytic != "off":
        raise ValueError(
            f"analytic={analytic!r}: grid pruning was removed; every "
            f"cell is simulated"
        )
    config = config or RunConfig.from_env()
    scale = scale or get_scale(config.scale)
    workloads = tuple(workloads)
    kinds = tuple(kinds)
    if store is _UNSET:
        store = CellStore(config.cell_store) if config.cell_store else None
    if store is None:
        store = _process_store
    cells: List[Cell] = [
        (workload, kind, scale.warmup, scale.measure, seed)
        for workload in workloads
        for kind in kinds
        for seed in range(1, scale.num_seeds + 1)
    ]
    results: List[Optional[PerfSample]] = [None] * len(cells)
    keys = [cell_key(_cell_payload(cell)) for cell in cells]
    pending: Dict[int, tuple] = {}
    for index, cell in enumerate(cells):
        try:
            results[index] = PerfSample.from_state(
                store.get(keys[index])["sample"]
            )
        except (TypeError, KeyError, ValueError):
            # No cell (None), or valid JSON that is not a sample (a bit
            # flip, a foreign file): a miss either way, and the
            # recomputed cell overwrites it.
            pending[index] = (cell, config.wall_limit)
            grid_stats.grid_cache_misses += 1
        else:
            grid_stats.grid_cache_hits += 1

    def finish(index: int, sample: PerfSample) -> None:
        results[index] = sample
        # Persisting a timed-out cell would freeze the truncation into
        # every later sweep.
        if not sample.timed_out:
            store.put(keys[index], {"sample": sample.to_state()})

    supervise(_run_cell, pending, finish,
              lambda index: _cell_label(cells[index]), config.jobs)
    by_key: Dict[GridKey, list] = {}
    for (workload, kind, *_), sample in zip(cells, results):
        by_key.setdefault((workload, kind), []).append(sample)
    grid = {}
    for key, samples in by_key.items():
        # Quarantined cells leave None holes; a key with every seed
        # quarantined is dropped from the grid (visible in the report)
        # rather than poisoning downstream figures with zeros.
        kept = [sample for sample in samples if sample is not None]
        if kept:
            grid[key] = _merge(kept)
    return grid


def _merge(samples) -> PerfSample:
    """Combine per-seed samples into one, weighting every latency and
    distribution statistic by its own sample count.

    Averages of averages are only correct when each seed contributed
    the same number of observations — which unequal drain behavior
    makes false in practice.  Latencies weight by delivered packets
    (the transaction-latency denominator tracks packet count), the
    lag-at-drop distribution by each seed's control-packet count, and
    the blocked fraction by each seed's total in-network time.
    """
    if len(samples) == 1:
        return samples[0]
    first = samples[0]
    total_pkts = sum(s.packets for s in samples)
    total_control = sum(s.control_packets for s in samples)
    # Per-seed total network time reconstructs each fraction's true
    # denominator: blocked_fraction = blocked_cycles / net_time.
    net_times = [s.avg_network_latency * s.packets for s in samples]
    total_net_time = sum(net_times)
    lag: Dict[int, float] = {}
    for s in samples:
        weight = (s.control_packets / total_control) if total_control else 0.0
        for k, v in s.lag_distribution.items():
            lag[k] = lag.get(k, 0.0) + v * weight
    return PerfSample(
        workload=first.workload,
        noc_kind=first.noc_kind,
        instructions=sum(s.instructions for s in samples),
        cycles=sum(s.cycles for s in samples),
        packets=total_pkts,
        avg_network_latency=sum(
            s.avg_network_latency * s.packets for s in samples
        ) / max(1, total_pkts),
        avg_transaction_latency=sum(
            s.avg_transaction_latency * s.packets for s in samples
        ) / max(1, total_pkts),
        control_packets=total_control,
        control_per_data=total_control / max(1, total_pkts),
        lag_distribution=dict(sorted(lag.items())),
        pra_blocked_fraction=(
            sum(f * t for f, t in
                zip((s.pra_blocked_fraction for s in samples), net_times))
            / total_net_time if total_net_time else 0.0
        ),
        flits_delivered=sum(s.flits_delivered for s in samples),
        total_hops=sum(s.total_hops for s in samples),
        packets_unfinished=sum(s.packets_unfinished for s in samples),
        timed_out=any(s.timed_out for s in samples),
    )


def clear_grid_cache() -> None:
    """Empty the process store (tests use this for isolation).

    The ``grid_stats`` counters survive, so callers can observe hit and
    miss totals across a clear (e.g. a resumed sweep's second pass).
    """
    _process_store.clear()
