"""Supervised sharded execution: recover, retry, degrade — never die.

``run_supervised`` wraps the worker-process shard backend in a
supervision loop:

* it takes periodic **recovery points** — cycle barriers at which every
  shard drains its boundary records and snapshots
  (:meth:`ProcessPool.barrier`), so a clean per-shard restart state
  always exists;
* when a worker fails (died / hung / garbage / crashed — the pool's
  switch waits on every pipe and process sentinel under a heartbeat
  deadline and diagnoses each as a structured
  :class:`~repro.shard.spec.WorkerFailure`), it kills the pool, sleeps
  a bounded exponential backoff, and **respawns** the whole pool from
  the last recovery point (reaching a new recovery point resets the
  retry budget, so only repeated failures without forward progress
  count against ``max_retries``);
* when retries exhaust, it **degrades gracefully**: the per-shard
  recovery snapshots merge into one serial-shaped snapshot
  (:func:`repro.shard.merge.merge_snapshots`), which a single in-parent
  network restores and finishes serially.

Every path replays deterministic work, so the pinned golden digests are
the correctness oracle for recovery itself: a supervised run that was
killed, respawned, or degraded must still hash to the serial digest.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.resilience.faults import ProcessFaultPlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import FailureRecord, RunReport, publish
from repro.shard.engine import (
    ShardResult,
    _run_serial,
    check_run_args,
    drive,
    merge_barrier,
    sharded_result,
    summary_digest,
)
from repro.shard.spec import (
    ShardError,
    SyntheticSpec,
    WorkerFailure,
    plan_shards,
)


def _diagnose(exc: ShardError) -> Tuple[str, str]:
    """(target, kind) of a shard-layer failure for the run report."""
    if isinstance(exc, WorkerFailure):
        kind = "error" if exc.kind == "crashed" else exc.kind
        return str(exc.shard), kind
    return "driver", "protocol"


def _degrade(spec: SyntheticSpec, shards: int, reason: Optional[str],
             recovery: Optional[Tuple[int, list]],
             checkpoint_at: Optional[int], checkpoint: Optional[dict],
             report: RunReport) -> ShardResult:
    """Finish the run serially from the last recovery point."""
    if recovery is None:
        # Failed before the first recovery point: the whole run replays
        # serially from cycle 0 (observers stay off — the degraded path
        # optimizes for finishing, not instrumentation).
        report.degraded = "serial replay from cycle 0 (no recovery point)"
        result = _run_serial(spec, "none", checkpoint_at, reason)
        result.backend = "serial-degraded"
        result.report = report
        publish(report)
        return result
    from repro.checkpoint.snapshot import restore_network, snapshot_network

    barrier, pairs = recovery
    merged = merge_barrier(spec, shards, [snap for snap, _ in pairs],
                           barrier)
    net, traffic = restore_network(merged)
    report.degraded = f"serial continuation from recovery point " \
                      f"at cycle {barrier}"
    if checkpoint_at is not None and checkpoint is None \
            and checkpoint_at > barrier:
        traffic.run(checkpoint_at - barrier)
        checkpoint = snapshot_network(net, traffic)
        traffic.run(spec.cycles - checkpoint_at)
    else:
        traffic.run(spec.cycles - barrier)
    net.drain(max_cycles=spec.drain)
    summary = net.stats.summary()
    publish(report)
    return ShardResult(
        digest=summary_digest(summary),
        summary=summary,
        shards=shards,
        backend="serial-degraded",
        fallback_reason=reason,
        checkpoint=checkpoint,
        cycles=net.cycle,
        cycles_skipped=net.cycles_skipped,
        offered=traffic.offered,
        clocks=[net.cycle],
        report=report,
    )


def run_supervised(spec: SyntheticSpec, shards: int,
                   observers: str = "none",
                   checkpoint_at: Optional[int] = None,
                   policy: Optional[RetryPolicy] = None,
                   faults: Optional[ProcessFaultPlan] = None
                   ) -> ShardResult:
    """Run ``spec`` on the worker-process shard backend under
    supervision (crash recovery, bounded retries, graceful degradation).

    Digest-equivalent to :func:`repro.shard.engine.run_sharded` with
    ``backend="process"`` — including when workers are killed, hang, or
    babble mid-run (injected via ``faults`` or otherwise)."""
    from repro.shard.process import ProcessPool

    if policy is None:
        policy = RetryPolicy()
    if faults is not None and faults.is_empty:
        faults = None
    effective, reason = plan_shards(spec.params(), shards)
    check_run_args(spec, observers, checkpoint_at, effective)
    if effective == 1:
        if faults is not None:
            raise ValueError(
                "process fault injection needs a multi-shard process "
                f"run; this scenario runs serially ({reason or 'shards=1'})"
            )
        result = _run_serial(spec, observers, checkpoint_at, reason)
        result.report = RunReport(backend="serial")
        publish(result.report)
        return result

    barriers = set(policy.barriers(spec.cycles))
    if checkpoint_at is not None:
        barriers.add(checkpoint_at)
    pending_barriers = sorted(barriers)

    report = RunReport(backend="process")
    recovery: Optional[Tuple[int, list]] = None  # (barrier, pairs)
    checkpoint: Optional[dict] = None
    attempt = 0
    incarnation = 0
    states = None

    def on_barrier(cycle: int) -> None:
        nonlocal recovery, attempt, checkpoint
        pairs = pool.barrier(cycle)
        recovery = (cycle, pairs)
        report.recovery_points += 1
        attempt = 0  # forward progress refills the budget
        if checkpoint_at == cycle:
            checkpoint = merge_barrier(
                spec, effective, [snap for snap, _ in pairs], cycle
            )

    while states is None:
        pool = ProcessPool(
            spec, effective, observers, faults=faults,
            heartbeat=policy.heartbeat_timeout,
            incarnation=incarnation,
            restore=None if recovery is None else recovery[1],
        )
        try:
            drive(
                pool, spec,
                [b for b in pending_barriers
                 if recovery is None or b > recovery[0]],
                on_barrier,
            )
            states = pool.stats()
            pool.close()
        except ShardError as exc:
            pool.kill()
            attempt += 1
            target, kind = _diagnose(exc)
            report.record_failure(FailureRecord(
                scope="shard", target=target, kind=kind,
                attempts=attempt, detail=str(exc),
            ))
            if attempt > policy.max_retries:
                return _degrade(spec, effective, reason, recovery,
                                checkpoint_at, checkpoint, report)
            backoff = policy.backoff(attempt)
            if backoff:
                time.sleep(backoff)
            incarnation += 1
            report.retries += 1
            report.respawns += 1
        except BaseException:
            pool.kill()
            raise

    publish(report)
    return sharded_result(spec, states, shards=effective,
                          backend="process", fallback_reason=reason,
                          checkpoint=checkpoint, report=report)
