"""Supervised execution of the evaluation grid: retries, quarantine,
pool rebuilds, graceful degradation.

The evaluation grid (:mod:`repro.harness.runner`) runs real worker
processes, and real worker processes die.  This package supplies the
supervision layer that keeps a sweep alive through those deaths:

* :class:`RetryPolicy` — the knobs (pool rebuilds, quarantine
  threshold, backoff) as one validated value;
* :class:`ProcessFaultPlan` / :class:`ProcFault` — deterministic
  cell-level fault injection (kill / error) so every recovery path is
  testable;
* :class:`RunReport` / :class:`FailureRecord` — the structured flight
  record the CLI prints on nonzero exit and the benchmark ledger
  reads; :func:`last_run_report` fetches the most recent one.

A sharded run (:mod:`repro.shard`) is not supervised: a shard worker
that dies, hangs or babbles is diagnosed as a
:class:`~repro.shard.spec.WorkerFailure` and the run fails loudly.
"""

from repro.resilience.faults import (
    ProcessFaultError,
    ProcessFaultPlan,
    ProcFault,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import (
    FailureRecord,
    RunReport,
    clear_last_report,
    last_run_report,
    publish,
)

__all__ = [
    "FailureRecord",
    "ProcFault",
    "ProcessFaultError",
    "ProcessFaultPlan",
    "RetryPolicy",
    "RunReport",
    "clear_last_report",
    "last_run_report",
    "publish",
]
