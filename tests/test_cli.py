"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_params_command(capsys):
    # Table I is a figure; there is no separate ``params`` command.
    assert main(["figures", "--only", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "32 nm" in out


def test_area_command(capsys):
    # The Figure 8 area model is a figure; there is no ``area`` command.
    assert main(["figures", "--only", "fig8"]) == 0
    out = capsys.readouterr().out
    assert "Mesh+PRA" in out
    assert "4.9" in out


def test_simulate_command(capsys):
    rc = main(["simulate", "Web Search", "--noc", "mesh",
               "--warmup", "100", "--measure", "400"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "aggregate IPC" in out


def test_simulate_pra_diagnostics(capsys):
    rc = main(["simulate", "MapReduce", "--noc", "mesh+pra",
               "--warmup", "100", "--measure", "600"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "control/data packets" in out


def test_sweep_command(capsys):
    rc = main(["sweep", "--noc", "mesh", "--rates", "0.005",
               "--cycles", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rate" in out and "mesh" in out


def test_figures_unknown_name(capsys):
    assert main(["figures", "--only", "nonsense"]) == 2


def test_removed_router_step_flag_is_an_unknown_flag(capsys):
    # Spelled in halves: the removed knob's name must not appear in the
    # tree, this assertion included.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "web", "--no-fast" + "path"])
    assert exc.value.code == 2


def test_removed_time_skip_flag_is_an_unknown_flag(capsys):
    # A network steps every cycle; there is nothing to switch off.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "web", "--no-time-skip"])
    assert exc.value.code == 2


def test_bench_is_an_unknown_command(capsys):
    # Performance is measured from outside, by benchmarks/ledger/run.py.
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_saturate_is_an_unknown_command(capsys):
    # The open-loop saturation search is gone; the chiplet figure's
    # SatRate column is the model's capacity bound.
    with pytest.raises(SystemExit) as exc:
        main(["saturate"])
    assert exc.value.code == 2
    assert "invalid choice: 'saturate'" in capsys.readouterr().err


def test_chaos_ring_is_a_topology_not_an_organization(capsys):
    # ``--noc ring`` silently ignored ``--topology``; a ring is spelled
    # ``--noc mesh --topology ring``, and any other kind exits 2.
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--noc", "ring", "--topology", "chiplet:2x2x3x3",
              "--cycles", "50"])
    assert exc.value.code == 2
    assert "invalid choice: 'ring'" in capsys.readouterr().err


def test_power_runs_the_scale_the_environment_names(monkeypatch, capsys):
    # The power analysis simulates the grid at ``REPRO_SCALE`` unless
    # ``--scale`` overrides it.
    scales = []

    def power_analysis(config):
        scales.append(config.scale)
        return {"title": "power", "headers": ["scale"], "rows": []}

    monkeypatch.setenv("REPRO_SCALE", "full")
    monkeypatch.setattr("repro.cli.power_analysis", power_analysis)
    assert main(["figures", "--only", "power"]) == 0
    assert main(["figures", "--only", "power", "--scale", "smoke"]) == 0
    assert scales == ["full", "smoke"]


@pytest.mark.parametrize("command", ["area", "power", "params"])
def test_figure_commands_are_only_figures(command, capsys):
    # ``figures --only fig8|power|table1`` prints each of these.
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--warmup", "-5"),
    ("--measure", "0"),
    ("--checkpoint-every", "0"),
])
def test_simulate_refuses_out_of_range_counts(flag, value, monkeypatch,
                                              capsys):
    # Refused while parsing: no simulator is built, no cycle runs.
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "web", flag, value])
    assert exc.value.code == 2
    assert f"error: argument {flag}: expected an integer >= " \
        in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing.json.gz", "."],
                         ids=["missing-file", "directory"])
def test_simulate_restore_from_an_unreadable_path(target, tmp_path,
                                                  capsys):
    # Not a traceback: exit 2 with one error line naming the path.
    path = str(tmp_path / target)
    assert main(["simulate", "--restore", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert path in err[0]


def _parse_error(argv, capsys) -> str:
    """The one ``error:`` line argparse prints when it refuses ``argv``
    (after its usage lines), with nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    return errors[0]


def test_simulate_checks_the_checkpoint_directory_first(tmp_path,
                                                        monkeypatch, capsys):
    # Refused before a simulator is built, not at the first snapshot.
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    template = str(tmp_path / "no-such-dir" / "ck-{cycle}.json")
    error = _parse_error(
        ["simulate", "web", "--warmup", "10", "--measure", "10",
         "--checkpoint-every", "5", "--checkpoint", template], capsys)
    assert "error: argument --checkpoint: " in error
    assert "no-such-dir" in error


@pytest.mark.parametrize("argv, flag", [
    (["trace", "--workload", "web", "--cycles", "0"], "--cycles"),
    (["trace", "--workload", "web", "--warmup", "-3"], "--warmup"),
    (["sweep", "--cycles", "0"], "--cycles"),
    (["chaos", "--cycles", "0"], "--cycles"),
    (["chaos", "--drain", "-5"], "--drain"),
], ids=["trace-cycles", "trace-warmup", "sweep-cycles", "chaos-cycles",
        "chaos-drain"])
def test_out_of_range_counts_are_refused_while_parsing(argv, flag,
                                                       monkeypatch, capsys):
    # No simulator or network is built, no cycle runs.
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    monkeypatch.setattr("repro.noc.network.build_network", None)
    error = _parse_error(argv, capsys)
    assert f"error: argument {flag}: expected an integer >= " in error


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "web", "--trace", "FILE/t.jsonl"], "--trace"),
    (["simulate", "web", "--checkpoint", "FILE/ck-{cycle}.json"],
     "--checkpoint"),
    (["trace", "--workload", "web", "--out", "FILE/t.jsonl"], "--out"),
    (["figures", "--only", "table1", "--json", "FILE/x.json"], "--json"),
], ids=["simulate-trace", "simulate-checkpoint", "trace-out",
        "figures-json"])
def test_output_paths_under_a_regular_file_are_refused_while_parsing(
        argv, flag, tmp_path, monkeypatch, capsys):
    # Refused before any work, not with a traceback once it is done.
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    monkeypatch.setattr("repro.cli.table1", None)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [arg.replace("FILE", str(blocker)) for arg in argv]
    error = _parse_error(argv, capsys)
    assert f"error: argument {flag}: " in error
    assert str(blocker) in error


@pytest.mark.parametrize("source", ["flag", "environment"])
def test_cell_store_under_a_regular_file_is_refused(source, tmp_path,
                                                    monkeypatch, capsys):
    # One error line before any figure runs, not an os.makedirs
    # traceback from the first grid sweep.
    monkeypatch.setattr("repro.cli.table1", None)
    blocker = tmp_path / "file"
    blocker.write_text("")
    store = str(blocker / "cells")
    argv = ["figures", "--only", "table1"]
    if source == "flag":
        argv += ["--cell-store", store]
    else:
        monkeypatch.setenv("REPRO_CELL_STORE", store)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert store in err[0]


def test_figures_json_dump(tmp_path, capsys):
    path = tmp_path / "out.json"
    rc = main(["figures", "--only", "table1,fig8", "--json", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    assert set(data) == {"table1", "fig8"}
    assert data["fig8"]["headers"][0] == "Organization"


def test_unknown_workload_is_a_clean_cli_error(capsys):
    rc = main(["simulate", "NoSuchWorkload", "--measure", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown workload 'NoSuchWorkload'" in err
    assert "Web Search" in err  # the error names the valid choices


def test_unknown_workload_in_trace_command(capsys):
    rc = main(["trace", "--workload", "NoSuchWorkload"])
    assert rc == 2
    assert "unknown workload" in capsys.readouterr().err
