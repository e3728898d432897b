"""Supervised execution: crash recovery, retries, graceful degradation.

The simulator's parallel shapes — the sharded mesh
(:mod:`repro.shard`) and the evaluation grid
(:mod:`repro.harness.runner`) — both run real worker processes, and
real worker processes die.  This package supplies the supervision
layer that keeps a run alive through those deaths:

* :class:`RetryPolicy` — the knobs (retries, heartbeat, quarantine
  threshold, backoff, recovery-point interval) as one validated value;
* :func:`run_supervised` — the sharded-run supervisor (recovery-point
  barriers, pool respawn + restore, bounded backoff, serial
  degradation), digest-identical to an unfaulted run;
* :class:`ProcessFaultPlan` / :class:`ProcFault` — deterministic
  process-level fault injection (kill / hang / garbage / error) so
  every recovery path is testable;
* :class:`RunReport` / :class:`FailureRecord` — the structured flight
  record the CLI prints on nonzero exit and the benchmark ledger
  reads; :func:`last_run_report` fetches the most recent one.
"""

from repro.resilience.faults import (
    KILL_EXIT_CODE,
    ProcessFaultError,
    ProcessFaultPlan,
    ProcFault,
    ShardFaultDriver,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import (
    FailureRecord,
    RunReport,
    clear_last_report,
    last_run_report,
    publish,
)
from repro.resilience.supervisor import run_supervised

__all__ = [
    "KILL_EXIT_CODE",
    "FailureRecord",
    "ProcFault",
    "ProcessFaultError",
    "ProcessFaultPlan",
    "RetryPolicy",
    "RunReport",
    "ShardFaultDriver",
    "clear_last_report",
    "last_run_report",
    "publish",
    "run_supervised",
]
