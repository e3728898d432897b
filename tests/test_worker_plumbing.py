"""Worker-pool plumbing: count validation and what a worker receives.

Covers the worker-count validator behind ``REPRO_JOBS`` (bad values
must fail with a clear message, like every other parameter) and the
promise that a :class:`RunConfig` passed to ``evaluation_grid`` reaches
the pool workers inside their tasks — with nothing in the environment,
under fork and under spawn.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.config import RunConfig, parse_worker_count


def test_parse_worker_count_accepts_literals_and_auto():
    assert parse_worker_count("4", "REPRO_JOBS") == 4
    assert parse_worker_count("1", "jobs") == 1
    # 0 means one worker per CPU.
    assert parse_worker_count("0", "REPRO_JOBS") == (os.cpu_count() or 1)


@pytest.mark.parametrize("raw", ["banana", "-1", "2.5", "", None])
def test_parse_worker_count_rejects_junk(raw):
    with pytest.raises(ValueError) as excinfo:
        parse_worker_count(raw, "REPRO_JOBS")
    # The message names the knob and echoes the offending value, the
    # same shape NocParams uses for CLI validation errors.
    assert "REPRO_JOBS must be a non-negative integer" in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)


def test_simulate_has_no_shards_flag():
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["simulate", "web", "--shards", "2"])
    assert exc.value.code == 2


# -- what a pool worker receives -------------------------------------------


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_config_reaches_pool_workers(method, monkeypatch, capfd):
    """The wall budget travels inside each submitted task: with no
    ``REPRO_*`` variable set anywhere, cells simulated by ``jobs=2``
    pool workers still honor ``config.wall_limit`` — also in spawn-start
    workers, which import everything afresh and share no module state
    with the parent."""
    from repro.harness.runner import (EvaluationScale, clear_grid_cache,
                                      evaluation_grid)
    from repro.params import NocKind

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    tiny = EvaluationScale("plumbing", warmup=20, measure=80, num_seeds=1)
    cells = (("Web Search", "Data Serving"), (NocKind.MESH,))
    previous = multiprocessing.get_start_method()
    multiprocessing.set_start_method(method, force=True)
    clear_grid_cache()
    try:
        limited = evaluation_grid(
            *cells, tiny, store=None,
            config=RunConfig(jobs=2, wall_limit=1e-9),
        )
        unlimited = evaluation_grid(*cells, tiny, store=None,
                                    config=RunConfig(jobs=2))
    finally:
        multiprocessing.set_start_method(previous, force=True)
        clear_grid_cache()
    assert len(limited) == len(unlimited) == 2
    assert all(sample.timed_out for sample in limited.values())
    assert not any(sample.timed_out for sample in unlimited.values())
    # The warnings were printed by the workers, not the parent.
    assert capfd.readouterr().err.count("wall-clock budget") == 2
