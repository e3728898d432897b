"""Supervised execution: every recovery path, digest-verified.

The resilience layer's correctness oracle is the same one the shard
layer uses: the pinned golden digests.  A supervised sharded run whose
workers were killed, hung, or babbling must still hash to the serial
digest — recovery is only correct if it is invisible in the statistics.
For the evaluation grid the oracle is bit-identical samples: a sweep
with a poison cell or a crashed pool must reproduce the unfaulted
samples for every cell it completes.
"""

from __future__ import annotations

import pytest

from repro.config import RunConfig
from repro.harness import runner
from repro.harness.runner import EvaluationScale, evaluation_grid
from repro.params import NocKind
from repro.resilience import (
    ProcFault,
    ProcessFaultPlan,
    RetryPolicy,
    clear_last_report,
    last_run_report,
)
from repro.shard import GOLDEN_SPEC, run_sharded
from tests.test_golden_determinism import GOLDEN_NETWORK

GOLDEN_MESH = GOLDEN_NETWORK[NocKind.MESH]

#: No backoff sleeps, recovery points every 200 cycles — the recovery
#: paths themselves are what these tests time-bound, not the waits.
FAST = RetryPolicy(max_retries=2, heartbeat_timeout=30.0,
                   quarantine_after=2, backoff_base=0.0,
                   recovery_interval=200)


def _kill(shard: int, at: int, incarnation=0) -> ProcessFaultPlan:
    return ProcessFaultPlan(faults=(
        ProcFault(scope="shard", target=shard, action="kill", at=at,
                  incarnation=incarnation),
    ))


# -- sharded-run recovery ---------------------------------------------------


def test_supervised_clean_run_matches_golden():
    result = run_sharded(GOLDEN_SPEC, 2, backend="process", policy=FAST)
    assert result.digest == GOLDEN_MESH
    assert result.backend == "process"
    assert result.report is not None
    assert result.report.clean
    # 800 injection cycles at a 200-cycle interval: barriers at 200,
    # 400, and 600.
    assert result.report.recovery_points == 3


def test_killed_worker_restored_from_recovery_point():
    """A worker killed mid-run (the OOM-killer shape) is respawned from
    the last cycle-barrier recovery point and the run still reproduces
    the pinned golden digest bit for bit."""
    result = run_sharded(GOLDEN_SPEC, 2, backend="process", policy=FAST,
                         faults=_kill(shard=1, at=300))
    assert result.digest == GOLDEN_MESH
    assert result.backend == "process"
    report = result.report
    assert report.respawns >= 1
    assert report.degraded is None
    assert any(f.kind == "died" for f in report.failures)
    # The diagnosis names the worker and its exit code.
    died = next(f for f in report.failures if f.kind == "died")
    assert died.scope == "shard"
    assert died.target == "1"
    assert "exit code 113" in died.detail


def test_hung_worker_detected_by_heartbeat():
    """A worker that goes silent trips the heartbeat timeout, is
    diagnosed as hung, and the pool recovers from the last barrier."""
    policy = RetryPolicy(max_retries=2, heartbeat_timeout=0.5,
                         backoff_base=0.0, recovery_interval=200)
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="shard", target=0, action="hang", at=300),
    ))
    result = run_sharded(GOLDEN_SPEC, 2, backend="process", policy=policy,
                         faults=plan)
    assert result.digest == GOLDEN_MESH
    report = result.report
    assert report.respawns >= 1
    assert report.degraded is None
    assert any(f.kind == "hung" for f in report.failures)


def test_garbage_reply_diagnosed_and_recovered():
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="shard", target=1, action="garbage", at=300),
    ))
    result = run_sharded(GOLDEN_SPEC, 2, backend="process", policy=FAST,
                         faults=plan)
    assert result.digest == GOLDEN_MESH
    assert any(f.kind == "garbage" for f in result.report.failures)
    assert result.report.degraded is None


def test_degrades_to_serial_when_retries_exhaust():
    """A fault that kills the worker on *every* incarnation defeats
    respawning; the supervisor must degrade to a serial continuation
    from the last recovery point — and still hit the golden digest."""
    policy = RetryPolicy(max_retries=1, backoff_base=0.0,
                         recovery_interval=200)
    result = run_sharded(GOLDEN_SPEC, 2, backend="process", policy=policy,
                         faults=_kill(shard=1, at=300, incarnation=None))
    assert result.digest == GOLDEN_MESH
    assert result.backend == "serial-degraded"
    report = result.report
    assert report.degraded is not None
    assert "cycle 200" in report.degraded
    assert len(report.failures) == 2  # attempt 1 retried, attempt 2 gave up


def test_checkpoint_survives_supervised_recovery():
    """checkpoint_at through the supervised backend, with a kill before
    the checkpoint barrier: the merged checkpoint must still restore to
    the golden digest (same contract as test_shard_equivalence)."""
    from repro.checkpoint.snapshot import restore_network
    from repro.shard import summary_digest

    result = run_sharded(GOLDEN_SPEC, 2, backend="process", policy=FAST,
                         checkpoint_at=400, faults=_kill(shard=0, at=300))
    assert result.digest == GOLDEN_MESH
    assert result.checkpoint is not None
    net, traffic = restore_network(result.checkpoint)
    assert net.cycle == 400
    traffic.run(GOLDEN_SPEC.cycles - 400)
    net.drain(max_cycles=GOLDEN_SPEC.drain)
    assert summary_digest(net.stats.summary()) == GOLDEN_MESH


def test_dead_worker_diagnosed_when_it_exits_not_at_the_heartbeat():
    """The switch waits on every worker's process sentinel beside its
    pipe, so a worker that dies while its neighbor sits blocked is
    named — shard and signal — as it exits, not once a poll tick or
    the heartbeat runs out."""
    import os
    import signal
    import time

    from repro.shard import WorkerFailure
    from repro.shard.engine import drive
    from repro.shard.process import ProcessPool

    pool = ProcessPool(GOLDEN_SPEC, 2, "none", heartbeat=60.0)
    real_run = pool.run
    killed_at = []

    def run_then_kill(hard_stop, done):
        def done_after_kill(clocks, flights, settled):
            if not killed_at and min(clocks) > 100:
                os.kill(pool.procs[1].pid, signal.SIGKILL)
                killed_at.append(time.monotonic())
            return done(clocks, flights, settled)
        real_run(hard_stop, done_after_kill)

    pool.run = run_then_kill
    try:
        with pytest.raises(WorkerFailure) as caught:
            drive(pool, GOLDEN_SPEC, [], None)
        elapsed = time.monotonic() - killed_at[0]
    finally:
        pool.kill()
    assert caught.value.kind == "died"
    assert caught.value.shard == 1
    assert caught.value.exitcode == -signal.SIGKILL
    assert elapsed < 10.0


def test_recovery_counters_reach_network_stats():
    """publish() mirrors recovery counters onto grid_stats, where the
    summary surfaces them — but only when nonzero."""
    before = runner.grid_stats.worker_respawns
    result = run_sharded(GOLDEN_SPEC, 2, backend="process", policy=FAST,
                         faults=_kill(shard=1, at=300))
    assert runner.grid_stats.worker_respawns == before + result.report.respawns
    assert "worker_respawns" in runner.grid_stats.summary()
    # The supervised run's own merged stats stay digest-clean: recovery
    # bookkeeping never leaks into the simulation summary.
    assert "worker_respawns" not in result.summary


def test_fault_injection_requires_process_backend():
    with pytest.raises(ValueError, match="process backend"):
        run_sharded(GOLDEN_SPEC, 2, backend="inline",
                    faults=_kill(shard=0, at=100))
    with pytest.raises(ValueError, match="multi-shard"):
        run_sharded(GOLDEN_SPEC, 1, backend="process", policy=FAST,
                    faults=_kill(shard=0, at=100))


# -- evaluation-grid supervision --------------------------------------------

TINY = EvaluationScale("resilience-tiny", warmup=20, measure=80, num_seeds=1)
WORKLOADS = ("Data Serving", "Web Search")
KINDS = (NocKind.MESH, NocKind.IDEAL)
# Cell order is workload-major: Data/mesh, Data/ideal, Web/mesh, Web/ideal.
POISON_INDEX = 1
POISON_LABEL = "Data Serving/ideal seed 1"


@pytest.fixture(scope="module")
def baseline_grid():
    """The unfaulted samples every fault-injected sweep must reproduce."""
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None)
    return {key: sample.to_state() for key, sample in grid.items()}


def test_poison_cell_quarantined_sweep_completes(baseline_grid):
    """A cell failing on every attempt is quarantined after
    ``quarantine_after`` failures; the sweep finishes and every other
    cell is bit-identical to the unfaulted baseline."""
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=POISON_INDEX, action="error",
                  attempt=None),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert len(report.quarantined) == 1
    assert report.quarantined[0].target == POISON_LABEL
    assert report.quarantined[0].attempts == FAST.quarantine_after
    assert not report.completed
    # The poisoned key is dropped; the other three cells are intact
    # and bit-identical.
    assert ("Data Serving", NocKind.IDEAL) not in grid
    assert len(grid) == len(baseline_grid) - 1
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


def test_transient_cell_failure_retries_to_full_grid(baseline_grid):
    """A cell that fails only on its first attempt recovers on retry:
    one retry recorded, nothing quarantined, full grid, identical."""
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=2, action="error", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert report.retries == 1
    assert not report.quarantined
    assert report.completed
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_grid_pool_rebuilt_after_worker_death(baseline_grid, monkeypatch):
    """A pool worker dying mid-cell (os._exit — BrokenProcessPool in
    the parent) triggers one pool rebuild; outstanding cells are
    resubmitted and the finished grid matches the baseline exactly."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=0, action="kill", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert report.pool_rebuilds == 1
    assert report.degraded is None
    assert any(f.scope == "pool" and f.kind == "died"
               for f in report.failures)
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_parallel_poison_cell_quarantines_exactly_one(baseline_grid,
                                                      monkeypatch):
    """The acceptance scenario: a parallel sweep with one poison cell
    AND one killed worker finishes, quarantines exactly the poison
    cell, and reproduces every other sample bit for bit."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=POISON_INDEX, action="error",
                  attempt=None),
        ProcFault(scope="cell", target=3, action="kill", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert [f.target for f in report.quarantined] == [POISON_LABEL]
    assert report.pool_rebuilds >= 1
    assert ("Data Serving", NocKind.IDEAL) not in grid
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


def test_faulted_sweeps_bypass_grid_cache(baseline_grid):
    """A fault-injected sweep must neither read nor seed the in-process
    grid cache: a clean sweep right after a poisoned one sees every
    cell again."""
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=POISON_INDEX, action="error",
                  attempt=None),
    ))
    poisoned = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                               store=None, faults=plan, policy=FAST)
    assert len(poisoned) == len(baseline_grid) - 1
    clean = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                            store=None)
    assert {key: s.to_state() for key, s in clean.items()} == baseline_grid


def test_streaming_puts_survive_mid_sweep_crash(tmp_path, monkeypatch):
    """Finished cells stream into the store as they complete, so a
    crash mid-sweep (here: a KeyboardInterrupt after two cells) keeps
    the work already done."""
    from repro.checkpoint.store import CellStore

    store = CellStore(str(tmp_path / "cells"))
    real = runner._simulate_cell
    done = []

    def flaky(cell, wall_limit):
        if len(done) == 2:
            raise KeyboardInterrupt
        sample = real(cell, wall_limit)
        done.append(cell)
        return sample

    monkeypatch.setattr(runner, "_simulate_cell", flaky)
    scale = EvaluationScale("resilience-stream", warmup=20, measure=80,
                            num_seeds=1)
    with pytest.raises(KeyboardInterrupt):
        evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=scale,
                        store=store, policy=FAST)
    assert len(store) == 2
    # The persisted cells resume a rerun: only the missing ones run.
    monkeypatch.setattr(runner, "_simulate_cell", real)
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=scale,
                           store=store, policy=FAST)
    assert len(grid) == len(WORKLOADS) * len(KINDS)
    assert len(store) == len(WORKLOADS) * len(KINDS)


# -- policy and plan validation ---------------------------------------------


def test_retry_policy_backoff_and_barriers():
    policy = RetryPolicy(backoff_base=0.05)
    assert policy.backoff(1) == 0.05
    assert policy.backoff(3) == 0.2
    assert policy.backoff(0) == 0.0
    assert RetryPolicy(recovery_interval=200).barriers(800) == [200, 400, 600]
    # Auto interval: a quarter of the injection window.
    assert RetryPolicy().barriers(800) == [200, 400, 600]
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="recovery_interval"):
        RetryPolicy(recovery_interval=0)


def test_proc_fault_validation():
    with pytest.raises(ValueError, match="scope must be"):
        ProcFault(scope="node", target=0, action="kill")
    with pytest.raises(ValueError, match="shard faults support"):
        ProcFault(scope="shard", target=0, action="error")
    with pytest.raises(ValueError, match="cell faults support"):
        ProcFault(scope="cell", target=0, action="hang")
    with pytest.raises(ValueError, match="target must be"):
        ProcFault(scope="shard", target=-1, action="kill")


def test_fault_plan_cell_lookup():
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=2, action="error", attempt=None),
        ProcFault(scope="cell", target=3, action="kill", attempt=1),
    ))
    assert plan.cell_action(2, 0) == "error"
    assert plan.cell_action(2, 7) == "error"
    assert plan.cell_action(3, 1) == "kill"
    assert plan.cell_action(3, 0) is None
    assert plan.cell_action(0, 0) is None


# -- REPRO_WALL_LIMIT validation (satellite) --------------------------------


@pytest.mark.parametrize("raw", ["junk", "-1", "0"])
def test_wall_limit_rejects_junk(monkeypatch, raw):
    monkeypatch.setenv("REPRO_WALL_LIMIT", raw)
    with pytest.raises(ValueError, match="REPRO_WALL_LIMIT must be"):
        RunConfig.from_env()
    # A library call made without config= resolves the environment at
    # call time, so the junk budget fails before any cell runs.
    with pytest.raises(ValueError, match="REPRO_WALL_LIMIT must be"):
        evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                        store=None)


def test_wall_limit_unset_or_valid(monkeypatch):
    monkeypatch.delenv("REPRO_WALL_LIMIT", raising=False)
    assert RunConfig.from_env().wall_limit is None
    monkeypatch.setenv("REPRO_WALL_LIMIT", "")
    assert RunConfig.from_env().wall_limit is None
    monkeypatch.setenv("REPRO_WALL_LIMIT", "7.25")
    assert RunConfig.from_env().wall_limit == 7.25


def test_cli_exits_2_on_bad_wall_limit(monkeypatch, capsys):
    from repro.cli import main

    # Validation fails fast, before any simulation work starts.
    monkeypatch.setenv("REPRO_WALL_LIMIT", "fast")
    assert main(["figures", "--only", "fig2", "--scale", "smoke"]) == 2
    assert "REPRO_WALL_LIMIT must be" in capsys.readouterr().err
