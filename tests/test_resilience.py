"""Failure handling of the simulator's worker processes.

A sharded process run is diagnosed, not recovered: a shard worker that
dies, hangs or babbles raises a structured ``WorkerFailure`` out of
``run_sharded``.  The evaluation grid is supervised, and its oracle is
bit-identical samples: a sweep with a poison cell or a crashed pool
must reproduce the unfaulted samples for every cell it completes.

Both are failed the same way: a test replaces the function a worker
runs (``process._worker_main`` for a shard, ``runner._simulate_cell``
for a grid cell), and a forked worker inherits the replacement.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro import resilience
from repro.config import RunConfig
from repro.harness import runner
from repro.harness.runner import EvaluationScale, evaluation_grid
from repro.params import NocKind
from repro.resilience import (
    backoff,
    clear_reports,
    last_run_report,
    run_reports,
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
POISON_CELL = ("Data Serving", NocKind.IDEAL)
POISON_LABEL = "Data Serving/ideal seed 1"


@pytest.fixture(scope="module")
def baseline_grid():
    """The unfaulted samples every faulted sweep must reproduce."""
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None)
    return {key: sample.to_state() for key, sample in grid.items()}


@pytest.fixture
def cold():
    """An empty process store around the test: the baseline's cells do
    not serve the faulted sweep, and its cells serve no later test."""
    runner.clear_grid_cache()
    yield
    runner.clear_grid_cache()


@pytest.fixture
def forked():
    """Grid pool workers fork from the patched test process, so they
    run the patched ``_simulate_cell``; a spawn-start worker imports
    the real one and the fault never fires."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    previous = multiprocessing.get_start_method()
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)


def _fault_cells(monkeypatch, fault) -> None:
    """Every cell calls ``fault(cell)`` before it is simulated; the
    fault raises or exits to fail it."""
    real = runner._simulate_cell

    def faulted(cell, wall_limit):
        fault(cell)
        return real(cell, wall_limit)

    monkeypatch.setattr(runner, "_simulate_cell", faulted)


def _first_time(marker) -> bool:
    """True for exactly one caller in any process: the one that
    creates ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _poison(cell) -> None:
    if cell[:2] == POISON_CELL:
        raise RuntimeError("poisoned cell")


def _kill_once(marker, target):
    """Exit the pool worker that first runs ``target`` (the OOM-killer
    shape); never the parent, which is the supervisor."""
    def fault(cell):
        if cell[:2] == target \
                and multiprocessing.parent_process() is not None \
                and _first_time(marker):
            os._exit(13)
    return fault


def _grid():
    return evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None)


def test_poison_cell_quarantined_sweep_completes(baseline_grid, monkeypatch,
                                                 cold, fast):
    """A cell failing on every attempt is quarantined after
    ``QUARANTINE_AFTER`` failures; the sweep finishes and every other
    cell is bit-identical to the unfaulted baseline."""
    clear_reports()
    _fault_cells(monkeypatch, _poison)
    grid = _grid()
    report = last_run_report()
    assert len(report.quarantined) == 1
    assert report.quarantined[0].target == POISON_LABEL
    assert report.quarantined[0].attempts == resilience.QUARANTINE_AFTER
    assert not report.completed
    # The poisoned key is dropped; the other three cells are intact
    # and bit-identical.
    assert POISON_CELL not in grid
    assert len(grid) == len(baseline_grid) - 1
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


def test_transient_cell_failure_retries_to_full_grid(baseline_grid,
                                                     monkeypatch, tmp_path,
                                                     cold, fast):
    """A cell that fails only on its first attempt recovers on retry:
    one retry recorded, nothing quarantined, full grid, identical."""
    clear_reports()
    marker = tmp_path / "failed"

    def fail_once(cell):
        if cell[:2] == ("Web Search", NocKind.MESH) and _first_time(marker):
            raise RuntimeError("transient failure")

    _fault_cells(monkeypatch, fail_once)
    grid = _grid()
    report = last_run_report()
    assert report.retries == 1
    assert not report.quarantined
    assert report.completed
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_grid_pool_rebuilt_after_worker_death(baseline_grid, monkeypatch,
                                              tmp_path, cold, forked, fast):
    """A pool worker dying mid-cell (os._exit — BrokenProcessPool in
    the parent) triggers one pool rebuild; outstanding cells are
    resubmitted and the finished grid matches the baseline exactly."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_reports()
    _fault_cells(monkeypatch, _kill_once(tmp_path / "killed",
                                         ("Data Serving", NocKind.MESH)))
    grid = _grid()
    report = last_run_report()
    assert report.pool_rebuilds == 1
    assert report.degraded is None
    assert any(f.scope == "pool" and f.kind == "died"
               for f in report.failures)
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_parallel_poison_cell_quarantines_exactly_one(baseline_grid,
                                                      monkeypatch, tmp_path,
                                                      cold, forked, fast):
    """The acceptance scenario: a parallel sweep with one poison cell
    AND one killed worker finishes, quarantines exactly the poison
    cell, and reproduces every other sample bit for bit."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_reports()
    kill = _kill_once(tmp_path / "killed", ("Web Search", NocKind.IDEAL))

    def fault(cell):
        _poison(cell)
        kill(cell)

    _fault_cells(monkeypatch, fault)
    grid = _grid()
    report = last_run_report()
    assert [f.target for f in report.quarantined] == [POISON_LABEL]
    assert report.pool_rebuilds >= 1
    assert POISON_CELL not in grid
    assert len(grid) == len(baseline_grid) - 1
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


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
                                                           capsys, cold,
                                                           fast):
    """A figure that needs a quarantined cell exits 1 with the run
    report and the missing cell on stderr — not a bare KeyError out of
    ``main``."""
    from repro.cli import main
    from repro.config import SCALES

    monkeypatch.setitem(SCALES, "quarantine", EvaluationScale(
        "quarantine", warmup=20, measure=80, num_seeds=1))

    def poisoned(cell):
        if cell[:2] == ("Web Search", NocKind.MESH_PRA):
            raise RuntimeError("poisoned cell")

    _fault_cells(monkeypatch, poisoned)
    assert main(["figures", "--only", "fig7",
                 "--scale", "quarantine"]) == 1
    err = capsys.readouterr().err
    assert "grid run report:" in err
    assert "Web Search/mesh+pra" in err


def test_degraded_sweep_is_reported_after_a_clean_one(monkeypatch, capsys,
                                                     tmp_path, cold, forked,
                                                     fast):
    """``figures`` runs one sweep per figure.  Fig. 6's sweep loses its
    worker pool and finishes degraded; Fig. 7's sweep right after is
    all store hits and clean.  The exit status and the stderr report
    cover both sweeps, not only the last, and the degraded sweep's
    cells are the unfaulted ones."""
    from repro.cli import main
    from repro.config import SCALES

    scale = EvaluationScale("degrade", warmup=20, measure=80, num_seeds=1)
    baseline = {key: sample.to_state() for key, sample
                in evaluation_grid(scale=scale, store=None).items()}
    runner.clear_grid_cache()
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setattr(resilience, "MAX_POOL_REBUILDS", 0)
    monkeypatch.setitem(SCALES, "degrade", scale)
    _fault_cells(monkeypatch, _kill_once(tmp_path / "killed",
                                         ("Web Search", NocKind.MESH)))
    assert main(["figures", "--only", "fig6,fig7",
                 "--scale", "degrade"]) == 1
    err = capsys.readouterr().err
    assert err.count("grid run report:") == 1
    assert "degraded:" in err
    degraded, clean = run_reports()
    assert degraded.pool_rebuilds == 1 and degraded.degraded
    assert clean.clean
    # Both figures' cells are in the process store now: all hits.
    grid = evaluation_grid(scale=scale, store=None)
    assert {key: s.to_state() for key, s in grid.items()} == baseline


# -- backoff ------------------------------------------------------------------


def test_retry_policy_backoff():
    assert backoff(1) == 0.05
    assert backoff(3) == 0.2
    assert backoff(0) == 0.0


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
    from tests.test_cli import _parse_error

    # Validation fails fast, before any simulation work starts.
    monkeypatch.setenv("REPRO_WALL_LIMIT", "fast")
    assert "REPRO_WALL_LIMIT must be" in _parse_error(
        ["figures", "--only", "fig2", "--scale", "smoke"], capsys)
