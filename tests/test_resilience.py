"""Failure handling of the simulator's worker processes.

A sharded process run is diagnosed, not recovered: a shard worker that
dies, hangs or babbles raises a structured ``WorkerFailure`` out of
``run_sharded``.  The evaluation grid is supervised, and its oracle is
bit-identical samples: a sweep with a poison cell or a crashed pool
must reproduce the unfaulted samples for every cell it completes.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import resilience
from repro.config import RunConfig
from repro.harness import runner
from repro.harness.runner import EvaluationScale, evaluation_grid, grid_stats
from repro.params import NocKind
from repro.resilience import (
    ProcFault,
    ProcessFaultPlan,
    backoff,
    clear_reports,
    last_run_report,
)
from repro.shard import GOLDEN_SPEC, WorkerFailure, run_sharded
from repro.shard import process
from tests.test_golden_determinism import GOLDEN_NETWORK

GOLDEN_MESH = GOLDEN_NETWORK[NocKind.MESH]

@pytest.fixture
def fast(monkeypatch):
    """Quarantine after two failures, and no backoff sleeps — the
    recovery paths themselves are what these tests time-bound, not the
    waits."""
    monkeypatch.setattr(resilience, "MAX_POOL_REBUILDS", 2)
    monkeypatch.setattr(resilience, "QUARANTINE_AFTER", 2)
    monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.0)


# -- sharded-run failure diagnosis ------------------------------------------


def _misbehave(monkeypatch, shard: int, behave) -> None:
    """Workers forked from here on run ``behave(conn)`` as shard
    ``shard`` instead of the real worker loop."""
    real = process._worker_main

    def worker(conn, spec, index, count):
        if index == shard:
            behave(conn)
        else:
            real(conn, spec, index, count)

    monkeypatch.setattr(process, "_worker_main", worker)


def _failure() -> WorkerFailure:
    with pytest.raises(WorkerFailure) as caught:
        run_sharded(GOLDEN_SPEC, 2, backend="process")
    return caught.value


def test_hung_worker_detected_by_heartbeat(monkeypatch):
    """A worker that takes its command and never answers trips the
    heartbeat and is named as hung; its neighbor, which has answered,
    is not."""
    monkeypatch.setattr(process, "HEARTBEAT_S", 0.5)

    def stop_answering(conn):
        conn.recv()
        time.sleep(3600)

    _misbehave(monkeypatch, 0, stop_answering)
    failure = _failure()
    assert failure.kind == "hung"
    assert failure.shard == 0


def test_garbage_reply_diagnosed(monkeypatch):
    def babble(conn):
        conn.recv()
        conn.send(("gibberish", 0xDEAD))
        conn.recv()

    _misbehave(monkeypatch, 1, babble)
    failure = _failure()
    assert failure.kind == "garbage"
    assert failure.shard == 1
    assert "gibberish" in failure.detail


def test_killed_worker_raises_instead_of_respawning(monkeypatch):
    """A SIGKILLed worker (the OOM-killer shape) fails the run, naming
    the shard and the signal; nothing respawns it."""
    spawned = []
    real_init = process.ProcessPool.__init__

    def counting_init(self, *args, **kwargs):
        spawned.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(process.ProcessPool, "__init__", counting_init)
    _misbehave(monkeypatch, 1,
               lambda conn: os.kill(os.getpid(), signal.SIGKILL))
    failure = _failure()
    assert failure.kind == "died"
    assert failure.shard == 1
    assert failure.exitcode == -signal.SIGKILL
    assert len(spawned) == 1


def test_process_run_without_checkpoint_sends_no_barrier(monkeypatch):
    """A process run never stops its workers at a cycle barrier: the
    parent sends each one ``run``, its neighbor's flushes and ``stats``,
    nothing else."""
    commands = []
    real_send = process.ProcessPool._send

    def tapped_send(self, shard, message):
        commands.append(message[0])
        real_send(self, shard, message)

    monkeypatch.setattr(process.ProcessPool, "_send", tapped_send)
    result = run_sharded(GOLDEN_SPEC, 2, backend="process")
    assert result.digest == GOLDEN_MESH
    assert result.report is None
    assert set(commands) == {"run", "flush", "stats"}
    assert commands.count("stats") == 2


def test_dead_worker_diagnosed_when_it_exits_not_at_the_heartbeat():
    """The switch waits on every worker's process sentinel beside its
    pipe, so a worker that dies while its neighbor sits blocked is
    named — shard and signal — as it exits, not once a poll tick or
    the heartbeat runs out."""
    from repro.shard.engine import drive
    from repro.shard.process import ProcessPool

    pool = ProcessPool(GOLDEN_SPEC, 2)
    real_run = pool.run
    killed_at = []

    def run_then_kill(done):
        def done_after_kill(clocks, flights, settled):
            if not killed_at and min(clocks) > 100:
                os.kill(pool.procs[1].pid, signal.SIGKILL)
                killed_at.append(time.monotonic())
            return done(clocks, flights, settled)
        real_run(done_after_kill)

    pool.run = run_then_kill
    try:
        with pytest.raises(WorkerFailure) as caught:
            drive(pool, GOLDEN_SPEC)
        elapsed = time.monotonic() - killed_at[0]
    finally:
        pool.kill()
    assert caught.value.kind == "died"
    assert caught.value.shard == 1
    assert caught.value.exitcode == -signal.SIGKILL
    assert elapsed < 10.0


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


def test_poison_cell_quarantined_sweep_completes(baseline_grid, fast):
    """A cell failing on every attempt is quarantined after
    ``quarantine_after`` failures; the sweep finishes and every other
    cell is bit-identical to the unfaulted baseline."""
    clear_reports()
    plan = ProcessFaultPlan(faults=(
        ProcFault(target=POISON_INDEX, action="error", attempt=None),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan)
    report = last_run_report()
    assert len(report.quarantined) == 1
    assert report.quarantined[0].target == POISON_LABEL
    assert report.quarantined[0].attempts == resilience.QUARANTINE_AFTER
    assert not report.completed
    # The poisoned key is dropped; the other three cells are intact
    # and bit-identical.
    assert ("Data Serving", NocKind.IDEAL) not in grid
    assert len(grid) == len(baseline_grid) - 1
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


def test_transient_cell_failure_retries_to_full_grid(baseline_grid, fast):
    """A cell that fails only on its first attempt recovers on retry:
    one retry recorded, nothing quarantined, full grid, identical."""
    clear_reports()
    plan = ProcessFaultPlan(faults=(
        ProcFault(target=2, action="error", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan)
    report = last_run_report()
    assert report.retries == 1
    assert not report.quarantined
    assert report.completed
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_grid_pool_rebuilt_after_worker_death(baseline_grid, monkeypatch,
                                              fast):
    """A pool worker dying mid-cell (os._exit — BrokenProcessPool in
    the parent) triggers one pool rebuild; outstanding cells are
    resubmitted and the finished grid matches the baseline exactly."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_reports()
    plan = ProcessFaultPlan(faults=(
        ProcFault(target=0, action="kill", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan)
    report = last_run_report()
    assert report.pool_rebuilds == 1
    assert report.degraded is None
    assert any(f.scope == "pool" and f.kind == "died"
               for f in report.failures)
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_parallel_poison_cell_quarantines_exactly_one(baseline_grid,
                                                      monkeypatch, fast):
    """The acceptance scenario: a parallel sweep with one poison cell
    AND one killed worker finishes, quarantines exactly the poison
    cell, and reproduces every other sample bit for bit."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_reports()
    plan = ProcessFaultPlan(faults=(
        ProcFault(target=POISON_INDEX, action="error", attempt=None),
        ProcFault(target=3, action="kill", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan)
    report = last_run_report()
    assert [f.target for f in report.quarantined] == [POISON_LABEL]
    assert report.pool_rebuilds >= 1
    assert ("Data Serving", NocKind.IDEAL) not in grid
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


def test_faulted_sweeps_bypass_grid_cache(baseline_grid, fast):
    """A fault-injected sweep must neither read nor seed the process
    store: it simulates every cell even though the baseline sweep stored
    them, and a clean sweep right after a poisoned one sees every cell
    again."""
    plan = ProcessFaultPlan(faults=(
        ProcFault(target=POISON_INDEX, action="error", attempt=None),
    ))
    hits = grid_stats.grid_cache_hits
    poisoned = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                               store=None, faults=plan)
    assert grid_stats.grid_cache_hits == hits
    assert len(poisoned) == len(baseline_grid) - 1
    clean = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                            store=None)
    assert {key: s.to_state() for key, s in clean.items()} == baseline_grid


def test_streaming_puts_survive_mid_sweep_crash(tmp_path, monkeypatch, fast):
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
                        store=store)
    assert len(store) == 2
    # The persisted cells resume a rerun: only the missing ones run.
    monkeypatch.setattr(runner, "_simulate_cell", real)
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=scale,
                           store=store)
    assert len(grid) == len(WORKLOADS) * len(KINDS)
    assert len(store) == len(WORKLOADS) * len(KINDS)


def test_quarantined_cell_fails_the_figure_with_the_report(monkeypatch,
                                                           capsys, fast):
    """A figure that needs a quarantined cell exits 1 with the run
    report and the missing cell on stderr — not a bare KeyError out of
    ``main``."""
    from repro.cli import main
    from repro.config import SCALES

    monkeypatch.setitem(SCALES, "quarantine", EvaluationScale(
        "quarantine", warmup=20, measure=80, num_seeds=1))
    real = runner._simulate_cell

    def poisoned(cell, wall_limit):
        if cell[:2] == ("Web Search", NocKind.MESH_PRA):
            raise RuntimeError("poisoned cell")
        return real(cell, wall_limit)

    monkeypatch.setattr(runner, "_simulate_cell", poisoned)
    runner.clear_grid_cache()
    try:
        assert main(["figures", "--only", "fig7",
                     "--scale", "quarantine"]) == 1
    finally:
        runner.clear_grid_cache()
    err = capsys.readouterr().err
    assert "grid run report:" in err
    assert "Web Search/mesh+pra" in err


def test_degraded_sweep_is_reported_after_a_clean_one(monkeypatch, capsys,
                                                     fast):
    """``figures`` runs one sweep per figure.  Fig. 6's sweep loses its
    worker pool and finishes degraded; Fig. 7's sweep right after is
    all store hits and clean.  The exit status and the stderr report
    cover both sweeps, not only the last."""
    import multiprocessing

    from repro.cli import main
    from repro.config import SCALES

    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setattr(resilience, "MAX_POOL_REBUILDS", 0)
    monkeypatch.setitem(SCALES, "degrade", EvaluationScale(
        "degrade", warmup=20, measure=80, num_seeds=1))
    real = runner._simulate_cell

    def crash_a_worker(cell, wall_limit):
        if cell[:2] == ("Web Search", NocKind.MESH) \
                and multiprocessing.parent_process() is not None:
            os._exit(13)
        return real(cell, wall_limit)

    monkeypatch.setattr(runner, "_simulate_cell", crash_a_worker)
    runner.clear_grid_cache()
    try:
        assert main(["figures", "--only", "fig6,fig7",
                     "--scale", "degrade"]) == 1
    finally:
        runner.clear_grid_cache()
    err = capsys.readouterr().err
    assert err.count("grid run report:") == 1
    assert "degraded:" in err


# -- backoff and plan validation --------------------------------------------


def test_retry_policy_backoff():
    assert backoff(1) == 0.05
    assert backoff(3) == 0.2
    assert backoff(0) == 0.0


def test_proc_fault_validation():
    with pytest.raises(ValueError, match="faults support actions"):
        ProcFault(target=0, action="hang")
    with pytest.raises(ValueError, match="target must be"):
        ProcFault(target=-1, action="kill")


def test_fault_plan_cell_lookup():
    plan = ProcessFaultPlan(faults=(
        ProcFault(target=2, action="error", attempt=None),
        ProcFault(target=3, action="kill", attempt=1),
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
