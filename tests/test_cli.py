"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def _parse_error(argv, capsys) -> str:
    """The CLI's refusal of ``argv``: exit 2, nothing on stdout, and
    stderr exactly one ``error:`` line, which is returned."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


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
    error = _parse_error(["figures", "--only", "nonsense"], capsys)
    assert "unknown figure 'nonsense'" in error


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


def test_analytic_is_an_unknown_command(capsys):
    # The model-vs-simulation gate is a figure: ``figures --only
    # analytic``.
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--validate"])
    assert exc.value.code == 2
    assert "invalid choice: 'analytic'" in capsys.readouterr().err


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
    assert path in _parse_error(["simulate", "--restore", path], capsys)


def test_simulate_restore_from_an_empty_path(monkeypatch, capsys):
    # An empty path is a --restore, not a missing WORKLOAD.
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    assert "cannot read snapshot" in _parse_error(
        ["simulate", "--restore", ""], capsys)


@pytest.mark.parametrize("argv, echoed", [
    (["simulate", "--restore", "a\nb\x85c"], "a\\nb\\nc"),
    (["sweep", "x\ny"], "x\\ny"),
], ids=["restore-path", "unrecognized-argument"])
def test_a_refusal_echoing_a_line_break_stays_one_line(argv, echoed,
                                                       monkeypatch, capsys):
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    assert echoed in _parse_error(argv, capsys)


@pytest.mark.parametrize("flag, value", [("--noc", "mesh"), ("--seed", "9")])
def test_simulate_refuses_a_run_choice_next_to_restore(flag, value, tmp_path,
                                                       capsys):
    # The snapshot fixes the organization and the seed; a flag that
    # names either is refused, not silently overridden.
    snap = str(tmp_path / "ck-3.json")
    assert main(["simulate", "web", "--warmup", "3", "--measure", "3",
                 "--checkpoint-every", "3", "--checkpoint", snap]) == 0
    capsys.readouterr()
    error = _parse_error(["simulate", "--restore", snap, flag, value,
                          "--warmup", "3", "--measure", "3"], capsys)
    assert f"argument {flag}: not allowed with argument --restore" in error


def test_simulate_defaults_to_mesh_pra_and_seed_one(capsys):
    assert main(["simulate", "web", "--warmup", "5", "--measure", "20",
                 "--digest"]) == 0
    default = capsys.readouterr().out
    assert "organization:         mesh+pra" in default
    assert main(["simulate", "web", "--noc", "mesh+pra", "--seed", "1",
                 "--warmup", "5", "--measure", "20", "--digest"]) == 0
    assert capsys.readouterr().out == default


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
    (["chaos", "--cycles", "5"], "--cycles"),
    (["trace", "--workload", "web", "--packet", "-3"], "--packet"),
    (["trace", "--workload", "web", "--capacity", "0"], "--capacity"),
], ids=["trace-cycles", "trace-warmup", "sweep-cycles", "chaos-cycles",
        "chaos-drain", "chaos-short-horizon", "trace-packet",
        "trace-capacity"])
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


@pytest.mark.parametrize("argv, flag", [
    (["figures", "--only", "table1", "--json", "DIR"], "--json"),
    (["trace", "--workload", "web", "--out", "DIR/"], "--out"),
    (["simulate", "web", "--checkpoint-every", "3", "--checkpoint", ""],
     "--checkpoint"),
    (["simulate", "web", "--checkpoint", "ck-{step}.json"], "--checkpoint"),
    (["simulate", "web", "--checkpoint", "ck-{cycle.json"], "--checkpoint"),
], ids=["figures-json-directory", "trace-out-directory",
        "simulate-checkpoint-empty", "simulate-checkpoint-unknown-field",
        "simulate-checkpoint-open-brace"])
def test_output_paths_that_name_no_file_are_refused_while_parsing(
        argv, flag, tmp_path, monkeypatch, capsys):
    # Not an OSError, KeyError or ValueError at the first write.
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    monkeypatch.setattr("repro.cli.table1", None)
    argv = [arg.replace("DIR", str(tmp_path)) for arg in argv]
    assert f"error: argument {flag}: " in _parse_error(argv, capsys)


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
    assert store in _parse_error(argv, capsys)


def test_figures_json_dump(tmp_path, capsys):
    path = tmp_path / "out.json"
    rc = main(["figures", "--only", "table1,fig8", "--json", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    assert set(data) == {"table1", "fig8"}
    assert data["fig8"]["headers"][0] == "Organization"


def test_unknown_workload_is_a_clean_cli_error(monkeypatch, capsys):
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    error = _parse_error(["simulate", "NoSuchWorkload", "--measure", "100"],
                         capsys)
    assert "unknown workload 'NoSuchWorkload'" in error
    assert "Web Search" in error  # the error names the valid choices


def test_unknown_workload_in_trace_command(monkeypatch, capsys):
    monkeypatch.setattr("repro.perf.system.SystemSimulator", None)
    error = _parse_error(["trace", "--workload", "NoSuchWorkload"], capsys)
    assert "unknown workload" in error


@pytest.mark.parametrize("only, bad", [
    ("table1,bogus", "bogus"),
    ("fig6,bogus", "bogus"),
    ("fig8,,table1", ""),
], ids=["after-table1", "after-fig6", "empty-name"])
def test_figure_names_are_checked_before_any_figure_runs(only, bad,
                                                         monkeypatch, capsys):
    # Not after Table I is printed, or the whole grid simulated for Fig. 6.
    ran = []
    for name in ("table1", "figure6", "figure8"):
        monkeypatch.setattr(f"repro.cli.{name}",
                            lambda *a, _name=name, **k: ran.append(_name))
    error = _parse_error(["figures", "--only", only], capsys)
    assert f"unknown figure {bad!r}" in error
    assert ran == []


@pytest.mark.parametrize("argv, text", [
    (["sweep", "--noc", "mesh", "--rates", "0.01,2"],
     "argument --rates: expected a probability in [0, 1], got '2'"),
    (["sweep", "--noc", "mesh_pra", "--topology", "ring"],
     "argument --noc: topology 'ring' runs mesh, not mesh_pra"),
    (["chaos", "--noc", "smart", "--topology", "chiplet:2x2x2x2"],
     "argument --noc: topology 'chiplet:2x2x2x2' runs mesh, ideal, not smart"),
    (["chaos", "--rate", "nan"], "argument --rate: expected a probability"),
    (["chaos", "--intensity", "-1"], "argument --intensity: expected a "),
    (["sweep", "--pattern", "bogus"], "argument --pattern: invalid choice"),
], ids=["sweep-rate", "sweep-ring-pra", "chaos-chiplet-smart", "chaos-rate",
        "chaos-intensity", "sweep-pattern"])
def test_network_runs_refuse_before_building_a_network(argv, text,
                                                       monkeypatch, capsys):
    # Not after the header and the first rows are printed.
    monkeypatch.setattr("repro.noc.network.build_network", None)
    assert text in _parse_error(argv, capsys)


def test_figures_scale_is_a_choice(monkeypatch, capsys):
    monkeypatch.setattr("repro.cli.power_analysis", None)
    error = _parse_error(["figures", "--only", "power", "--scale", "huge"],
                         capsys)
    assert "argument --scale: invalid choice: 'huge'" in error


def _analytic_stub(ok):
    def analytic_validation(config):
        return {"title": "Analytic model validation", "headers": ["Max"],
                "rows": [[0.5]], "ok": ok,
                "failure": "validation FAILED: max latency error 50.0%"}
    return analytic_validation


@pytest.mark.parametrize("ok, code", [(True, 0), (False, 1)],
                         ids=["pass", "fail"])
def test_figures_exit_1_when_a_figure_fails_its_check(ok, code, monkeypatch,
                                                      capsys):
    monkeypatch.setattr("repro.cli.analytic_validation", _analytic_stub(ok))
    assert main(["figures", "--only", "table1,analytic"]) == code
    captured = capsys.readouterr()
    assert "Analytic model validation" in captured.out
    failures = [line for line in captured.err.splitlines()
                if "validation FAILED" in line]
    assert len(failures) == (0 if ok else 1)


def test_an_internal_error_is_not_a_usage_error(monkeypatch):
    # A ValueError from inside a run is a bug: a traceback, not exit 2.
    def run(self, cycles):
        raise ValueError("boom")

    monkeypatch.setattr("repro.workloads.synthetic.SyntheticTraffic.run", run)
    with pytest.raises(ValueError, match="boom"):
        main(["sweep", "--noc", "mesh", "--rates", "0.01", "--cycles", "10"])
