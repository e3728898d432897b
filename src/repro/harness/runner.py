"""Shared evaluation machinery: the resumable simulation grid.

Every performance figure (2, 6, 7, 9, the Section V-B statistics, and
the power analysis) derives from one grid of full-system simulations:
{workload} x {NoC organization} x {seed}.  Finished cells are cached at
two levels:

* **in process** — the grid is computed once per (scale, workloads,
  kinds, seeds, parameter hash) and reused for the process lifetime;
* **on disk** — with a :class:`~repro.checkpoint.store.CellStore`
  attached (the ``REPRO_CELL_STORE`` env var or an explicit ``store=``
  argument), every finished cell is persisted under a content-addressed
  key, so an interrupted sweep resumes from the cells already done —
  across processes and machines sharing the directory.

Cache behavior is observable: hits and misses are counted on the
module-wide ``grid_stats`` object and appear in
``grid_stats.summary()``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass, replace
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
    """Harness counters: what the grid and the analytic screen did in
    this process (no simulation state lives here; recovery is recorded
    on the sweep's ``RunReport``)."""

    grid_cache_hits: int = 0
    grid_cache_misses: int = 0
    #: Grid cells served by the queueing model under
    #: ``REPRO_ANALYTIC=prune`` vs. cells that were still simulated.
    analytic_cells: int = 0
    simulated_cells: int = 0

    def summary(self) -> Dict[str, int]:
        return asdict(self)


#: The module-wide counters.
grid_stats = GridStats()

#: Sentinel distinguishing "use the configured store" from "no store".
_UNSET = object()

GridKey = Tuple[str, NocKind]
#: One simulation cell: (workload, kind, warmup, measure, seed).
Cell = Tuple[str, NocKind, int, int, int]
_grid_cache: Dict[tuple, Dict[GridKey, PerfSample]] = {}


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


def _simulate_indexed(task: tuple):
    """Pool entry point (top-level so it pickles for multiprocessing).

    A task is ``(index, cell, attempt, wall_limit, faults)``: everything
    a worker needs arrives in it, so a spawn-start worker behaves like a
    fork-start one and like the in-parent serial path.  Results arrive
    in completion order, hence the index; the attempt number keys
    injected-fault lookup.
    """
    index, cell, attempt, wall_limit, faults = task
    if faults is not None:
        import multiprocessing

        from repro.resilience.faults import ProcessFaultError

        action = faults.cell_action(index, attempt)
        if action == "kill":
            # An injected kill exits a pool worker but downgrades to a
            # raised error in the parent (killing the parent would take
            # the supervisor down with it).
            if multiprocessing.parent_process() is not None:
                os._exit(13)
            raise ProcessFaultError(
                f"injected kill for cell {index} (downgraded to an "
                f"error outside a pool worker)"
            )
        if action == "error":
            raise ProcessFaultError(
                f"injected failure for cell {index} attempt {attempt}"
            )
    return index, _simulate_cell(cell, wall_limit)


def _cell_label(cell: Cell) -> str:
    workload, kind, _, _, seed = cell
    return f"{workload}/{kind.value} seed {seed}"


def _run_cells(cells: List[Cell], pending: List[int],
               results: List[Optional[PerfSample]], config: RunConfig,
               store=None, keys: Optional[List[Optional[str]]] = None,
               faults=None, policy=None):
    """Simulate ``cells[i]`` for every i in ``pending``, in place,
    under supervision; returns the :class:`RunReport`.

    Supervision means: each cell retries with exponential backoff and
    is quarantined (result left ``None``, sweep continues) after
    ``policy.quarantine_after`` failures; a crashed worker pool is
    rebuilt and the outstanding cells resubmitted, degrading to serial
    in-parent execution when rebuilds exhaust ``policy.max_retries``;
    and every finished cell streams into ``store`` immediately, so a
    crash mid-sweep keeps all work already done.
    """
    import time
    from collections import deque

    from repro.resilience.policy import RetryPolicy
    from repro.resilience.report import FailureRecord, RunReport

    if policy is None:
        policy = RetryPolicy()
    report = RunReport()
    counts: Dict[int, int] = {}

    def record_success(index: int, sample: PerfSample) -> None:
        results[index] = sample
        # Timed-out cells are partial measurements; persisting them
        # would freeze the truncation into every future sweep.
        # Analytic samples are model output, not ground truth, and must
        # never masquerade as cached simulation results.
        if store is not None and keys is not None \
                and sample is not None and not sample.timed_out \
                and not sample.analytic:
            store.put(keys[index], {"sample": sample.to_state()})

    def record_error(index: int, detail: str) -> Optional[int]:
        """Count one failure of ``index``; returns the next attempt
        number, or None once the cell is quarantined."""
        counts[index] = counts.get(index, 0) + 1
        record = FailureRecord(scope="cell", target=_cell_label(cells[index]),
                               kind="error", attempts=counts[index],
                               detail=detail)
        report.record_failure(record)
        if counts[index] >= policy.quarantine_after:
            report.quarantined.append(record)
            return None
        report.retries += 1
        backoff = policy.backoff(counts[index])
        if backoff:
            time.sleep(backoff)
        return counts[index]

    def task(index: int, attempt: int) -> tuple:
        return (index, cells[index], attempt, config.wall_limit, faults)

    def run_serial(queue) -> None:
        # In-parent execution still honors the fault plan (with kills
        # downgraded to errors), so poison cells quarantine identically
        # whether the sweep runs serial, parallel, or degraded.
        while queue:
            index, attempt = queue.popleft()
            try:
                _, sample = _simulate_indexed(task(index, attempt))
            except Exception as exc:
                next_attempt = record_error(index, repr(exc))
                if next_attempt is not None:
                    queue.append((index, next_attempt))
                continue
            record_success(index, sample)

    queue = deque((index, 0) for index in pending)
    if config.jobs <= 1 or len(pending) <= 1:
        run_serial(queue)
        return report

    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    # ProcessPoolExecutor rather than multiprocessing.Pool: a worker
    # dying mid-cell surfaces as BrokenProcessPool here, where Pool
    # (on this Python) simply hangs waiting for the lost result.
    workers = min(config.jobs, len(pending))
    rebuilds = 0
    while queue:
        broken = False
        futures = {}
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                while queue:
                    index, attempt = queue.popleft()
                    futures[pool.submit(
                        _simulate_indexed, task(index, attempt)
                    )] = (index, attempt)
                for future in as_completed(futures):
                    index, attempt = futures[future]
                    try:
                        _, sample = future.result()
                    except BrokenProcessPool:
                        # Collateral damage, not this cell's fault: no
                        # failure count.  The attempt still advances so
                        # an attempt-keyed injected kill does not
                        # re-fire forever on resubmission.
                        broken = True
                        queue.append((index, attempt + 1))
                        continue
                    except Exception as exc:
                        next_attempt = record_error(index, repr(exc))
                        if next_attempt is not None:
                            queue.append((index, next_attempt))
                        continue
                    record_success(index, sample)
        except BrokenProcessPool:  # pragma: no cover - raised at exit
            broken = True
        if broken:
            rebuilds += 1
            report.pool_rebuilds += 1
            report.record_failure(FailureRecord(
                scope="pool", target=f"{workers}-worker grid pool",
                kind="died", attempts=rebuilds,
                detail="worker pool crashed; rebuilding and "
                       "resubmitting outstanding cells",
            ))
            if rebuilds > policy.max_retries:
                report.degraded = (
                    "serial completion in the parent process after "
                    f"{rebuilds} worker-pool crashes"
                )
                run_serial(queue)
                return report
            backoff = policy.backoff(rebuilds)
            if backoff:
                time.sleep(backoff)
    return report


def evaluation_grid(
    workloads: Iterable[str] = WORKLOAD_NAMES,
    kinds: Iterable[NocKind] = ALL_KINDS,
    scale: Optional[EvaluationScale] = None,
    store=_UNSET,
    faults=None,
    policy=None,
    analytic: Optional[str] = None,
    config: Optional[RunConfig] = None,
) -> Dict[GridKey, PerfSample]:
    """Run (or fetch) the {workload} x {organization} simulation grid.

    ``config`` is the sweep's :class:`~repro.config.RunConfig`; without
    one, the environment is resolved here, at call time.  Explicit
    ``scale``, ``store`` and ``analytic`` arguments win over it.

    ``store`` is a :class:`~repro.checkpoint.store.CellStore` persisting
    finished cells; by default it is the one ``config.cell_store`` names
    (``None`` means no persistence), and ``store=None`` disables
    persistence explicitly.  Store reads and writes happen in the parent
    process, so with ``config.jobs > 1`` only the cells actually missing
    are dispatched to the worker pool, and every finished cell is
    persisted as soon as it completes (a crash mid-sweep keeps all
    cells already computed).  Multi-seed scales merge per-seed samples
    by summing instructions and cycles into one sample per cell.

    ``analytic`` selects the queueing-model fast path: ``"prune"``
    serves high-confidence cells from :mod:`repro.analytic` instead of
    simulating them (marked ``PerfSample.analytic``, counted on
    ``grid_stats.analytic_cells``, never persisted to ``store``);
    ``"off"`` simulates everything.

    The sweep runs supervised (see :mod:`repro.resilience`): failing
    cells retry with backoff under ``policy`` and are quarantined after
    repeated failures (their grid entries are dropped rather than
    killing the sweep), crashed worker pools are rebuilt, and the
    resulting :class:`RunReport` is available afterwards via
    :func:`repro.resilience.last_run_report`.  ``faults`` injects a
    deterministic :class:`~repro.resilience.faults.ProcessFaultPlan`
    for testing; fault-injected sweeps bypass the in-process grid cache
    so injected failures cannot poison cached results.
    """
    from repro.resilience.report import publish

    config = config or RunConfig.from_env()
    if analytic is not None:
        config = replace(config, analytic=analytic)
    scale = scale or get_scale(config.scale)
    workloads = tuple(workloads)
    kinds = tuple(kinds)
    seeds = tuple(seed + 1 for seed in range(scale.num_seeds))
    prune = config.analytic == "prune"
    if store is _UNSET:
        store = CellStore(config.cell_store) if config.cell_store else None
    # The cache key carries everything that changes the result: the
    # attached store (two sweeps against different stores must not
    # alias) and the pruning policy (mode + effective utilization
    # bound) alongside the cell coordinates.
    cache_key = (
        scale.name, workloads, kinds, seeds, _params_hash(),
        store.root if store is not None else None,
        config.analytic_util if prune else None,
    )
    if faults is None and cache_key in _grid_cache:
        grid_stats.grid_cache_hits += 1
        return _grid_cache[cache_key]
    pruned: Dict[GridKey, PerfSample] = {}
    if prune:
        from repro.analytic.screen import screen_cell

        for workload in workloads:
            for kind in kinds:
                decision = screen_cell(workload, kind,
                                       config.analytic_util)
                if decision.prune:
                    pruned[(workload, kind)] = decision.sample(
                        scale.measure
                    )
        grid_stats.analytic_cells += len(pruned)
        grid_stats.simulated_cells += (
            len(workloads) * len(kinds) - len(pruned)
        )
    cells: List[Cell] = [
        (workload, kind, scale.warmup, scale.measure, seed)
        for workload in workloads
        for kind in kinds
        for seed in seeds
    ]
    results: List[Optional[PerfSample]] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    simulated = [
        index for index, (workload, kind, *_) in enumerate(cells)
        if (workload, kind) not in pruned
    ]
    if store is not None:
        pending: List[int] = []
        for index in simulated:
            cell = cells[index]
            key = cell_key(_cell_payload(cell))
            keys[index] = key
            try:
                results[index] = PerfSample.from_state(
                    store.get(key)["sample"]
                )
            except (TypeError, KeyError, ValueError):
                # No cell (None), or valid JSON that is not a sample (a
                # bit flip, a foreign file): a miss either way, and the
                # recomputed cell overwrites it.
                pending.append(index)
                grid_stats.grid_cache_misses += 1
            else:
                grid_stats.grid_cache_hits += 1
    else:
        pending = simulated
    if pruned:
        # Analytic cells never touch the store (keys stay None) and
        # never enter the worker pool; each seed slot gets the same
        # deterministic model sample so _merge treats the cell exactly
        # like a simulated one.
        for index, (workload, kind, *_) in enumerate(cells):
            sample = pruned.get((workload, kind))
            if sample is not None:
                results[index] = sample
    report = _run_cells(cells, pending, results, config, store=store,
                        keys=keys, faults=faults, policy=policy)
    publish(report)
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
    # Timed-out cells are partial measurements: like the cell store,
    # the cache must not serve them to a later call with a larger budget.
    if faults is None and not any(s.timed_out for s in grid.values()):
        _grid_cache[cache_key] = grid
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
        analytic=all(s.analytic for s in samples),
    )


def clear_grid_cache() -> None:
    """Forget in-process cached grids (tests use this for isolation).

    The ``grid_stats`` counters survive, so callers can observe hit and
    miss totals across a clear (e.g. a resumed sweep's second pass).
    """
    _grid_cache.clear()
