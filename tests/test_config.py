"""``RunConfig``: the one resolver of the environment.

Every ``REPRO_*`` variable is parsed here and nowhere else, so the
value/junk cases of all four live in one parametrised test; the rest of
the file pins the structural promise (one reader of ``os.environ``
under ``src/repro``, no writer) and the CLI consequence (flags cannot
outlive the ``main()`` call that parsed them).
"""

from __future__ import annotations

import ast
import os
import pathlib
from dataclasses import replace

import pytest

import repro
from repro.config import RunConfig, get_scale

CPUS = os.cpu_count() or 1


@pytest.mark.parametrize("environ,expected", [
    ({}, dict(scale="default", jobs=1, cell_store=None, wall_limit=None)),
    # Blank means unset, for every variable.
    ({"REPRO_SCALE": "", "REPRO_JOBS": " ", "REPRO_CELL_STORE": "",
      "REPRO_WALL_LIMIT": ""}, {}),
    ({"REPRO_SCALE": "smoke"}, dict(scale="smoke")),
    ({"REPRO_SCALE": "huge"}, "unknown REPRO_SCALE 'huge'; choose from"),
    ({"REPRO_JOBS": "4"}, dict(jobs=4)),
    ({"REPRO_JOBS": "0"}, dict(jobs=CPUS)),  # auto: one worker per CPU
    ({"REPRO_JOBS": "banana"}, "REPRO_JOBS must be a non-negative integer"),
    ({"REPRO_JOBS": "-1"}, "REPRO_JOBS must be a non-negative integer"),
    ({"REPRO_JOBS": "2.5"}, "REPRO_JOBS must be a non-negative integer"),
    ({"REPRO_CELL_STORE": "/tmp/cells"}, dict(cell_store="/tmp/cells")),
    ({"REPRO_WALL_LIMIT": "7.25"}, dict(wall_limit=7.25)),
    ({"REPRO_WALL_LIMIT": "junk"}, "REPRO_WALL_LIMIT must be a positive"),
    ({"REPRO_WALL_LIMIT": "-1"}, "REPRO_WALL_LIMIT must be a positive"),
    ({"REPRO_WALL_LIMIT": "0"}, "REPRO_WALL_LIMIT must be a positive"),
    # Variables this tree no longer reads are ignored, not errors: the
    # grid-pruning switches, at values they once took or once refused...
    ({"REPRO_ANALYTIC": "prune"}, {}),
    ({"REPRO_ANALYTIC": " PRUNE "}, {}),
    ({"REPRO_ANALYTIC": "off"}, {}),
    ({"REPRO_ANALYTIC": "sometimes"}, {}),
    ({"REPRO_ANALYTIC": "warm"}, {}),
    ({"REPRO_ANALYTIC_UTIL": "0.25"}, {}),
    ({"REPRO_ANALYTIC_UTIL": "zero"}, {}),
    ({"REPRO_ANALYTIC_UTIL": "0"}, {}),
    ({"REPRO_ANALYTIC_UTIL": "1.5"}, {}),
    ({"REPRO_ANALYTIC_UTIL": "-0.1"}, {}),
    # ...and the sharding and retry knobs before them.
    ({"REPRO_SHARDS": "nope", "REPRO_MAX_RETRIES": "-1"}, {}),
])
def test_from_env(environ, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as excinfo:
            RunConfig.from_env(environ)
        message = str(excinfo.value)
        assert expected in message
        # The message echoes the offending value, like every other CLI
        # parameter error.
        (raw,) = environ.values()
        assert repr(raw) in message
    else:
        assert RunConfig.from_env(environ) == replace(RunConfig(), **expected)


def test_cli_exits_2_on_junk_jobs(monkeypatch, capsys):
    """A junk variable stops every subcommand, even one that never
    spawns a worker."""
    from tests.test_cli import _parse_error

    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert "REPRO_JOBS must be" in _parse_error(
        ["figures", "--only", "table1"], capsys)


def test_direct_construction_validates_and_names_the_field():
    assert RunConfig(jobs=0).jobs == CPUS
    for kwargs, match in [
        (dict(jobs=-1), "jobs must be"),
        (dict(jobs=None), "jobs must be"),
        (dict(wall_limit=0), "wall_limit must be"),
        (dict(scale="huge"), "unknown scale 'huge'"),
    ]:
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)
    # A value, not a handle: hashable and equal by content.
    assert hash(RunConfig(jobs=2)) == hash(RunConfig(jobs=2))


def test_get_scale_reads_the_live_environment(monkeypatch):
    assert get_scale().name == "default"
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert get_scale().name == "smoke"
    assert get_scale("full").name == "full"  # an explicit name wins


def _environ_uses(tree: ast.AST):
    """(reads, writes) of ``os.environ`` in one module's AST."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    reads = writes = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in (
                "putenv", "unsetenv"):
            writes += 1
        if not (isinstance(node, ast.Attribute) and node.attr == "environ"):
            continue
        reads += 1
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript) \
                and not isinstance(parent.ctx, ast.Load):
            writes += 1  # os.environ[k] = v / del os.environ[k]
        if isinstance(parent, ast.Attribute) and parent.attr in (
                "pop", "popitem", "setdefault", "update", "clear",
                "__setitem__", "__delitem__"):
            writes += 1
    return reads, writes


def test_one_reader_of_the_environment_and_no_writer():
    root = pathlib.Path(repro.__file__).parent
    readers = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        reads, writes = _environ_uses(ast.parse(text))
        assert not writes, f"{path} writes the process environment"
        if reads or "os.environ" in text:
            readers.append(str(path.relative_to(root)))
    assert readers == ["config.py"]


def test_cli_flags_do_not_outlive_main(tmp_path, monkeypatch, capsys):
    """``--cell-store`` and ``--scale`` used to be applied by mutating
    the process (``os.environ[REPRO_CELL_STORE] = P``), so a later
    ``main()`` in the same process silently read and wrote ``P``."""
    from repro.cli import main
    from repro.harness.runner import clear_grid_cache, grid_stats

    before = dict(os.environ)
    store = tmp_path / "cells"
    argv = ["figures", "--only", "fig2", "--scale", "smoke"]
    clear_grid_cache()
    try:
        assert main(argv + ["--cell-store", str(store)]) == 0
        persisted = sorted(p.name for p in store.rglob("*.json"))
        assert len(persisted) == 6  # 2 workloads x 3 organizations
        assert dict(os.environ) == before
        hits = grid_stats.grid_cache_hits
        assert main(argv) == 0
        # The second run has no store: it neither read the first run's
        # cells (no hits) nor wrote any.
        assert grid_stats.grid_cache_hits == hits
        assert sorted(p.name for p in store.rglob("*.json")) == persisted
        assert dict(os.environ) == before
    finally:
        clear_grid_cache()
    first, second = capsys.readouterr().out.split("Figure 2")[1:]
    assert first == second
