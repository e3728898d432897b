"""Command-line interface: ``python -m repro <command>``.

Commands (``python -m repro <command> --help`` lists each one's flags):

* ``figures`` — reproduce the paper's tables and figures (Table I, the
  Figure 8 area model and the Section V-E power analysis among them);
  ``--only analytic`` validates the queueing model against the
  simulated grid.  Exits 1 when a printed figure reports ``"ok": False``;
* ``simulate`` — one full-system run with diagnostics, an optional JSONL
  event trace, and snapshots that ``--restore`` continues bit-for-bit;
* ``trace`` — an event-traced run and one packet's timeline;
* ``sweep`` — open-loop load-latency curves under synthetic traffic;
* ``chaos`` — a seeded fault schedule with the invariant checkers
  attached; exits 1 on a violation or an undelivered packet.

Bad input is refused while parsing, before any work: exit 2 and one
``error:`` line on stderr.  The one input read later, a ``--restore``
snapshot, is refused the same way; any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import List, Optional

from repro.checkpoint import SnapshotError
from repro.config import SCALES, RunConfig
from repro.noc.network import supported_kinds
from repro.noc.topology import parse_topology_spec
from repro.params import NocKind
from repro.harness import (
    analytic_validation,
    chiplet_comparison,
    figure2,
    figure6,
    figure7,
    figure8,
    figure9,
    power_analysis,
    render_figure,
    section5b_stats,
    table1,
    zero_load_table,
)
from repro.harness.figures import MissingCellError
from repro.harness.reporting import render_bars
from repro.resilience import clear_reports, run_reports
from repro.workloads.profiles import resolve_workload
from repro.workloads.synthetic import TrafficPattern

#: name -> callable(config); only the grid-backed figures use it.
_FIGURES = {
    "table1": lambda config: table1(),
    "fig2": lambda config: figure2(config=config),
    "fig6": lambda config: figure6(config=config),
    "fig7": lambda config: figure7(config=config),
    "sec5b": lambda config: section5b_stats(config=config),
    "fig8": lambda config: figure8(),
    "fig9": lambda config: figure9(config=config),
    "power": lambda config: power_analysis(config=config),
    "zeroload": lambda config: zero_load_table(),
    "chiplet": lambda config: chiplet_comparison(),
    "analytic": lambda config: analytic_validation(config=config),
}

#: ``figures`` without ``--only`` runs these; the analytic validation
#: figure is opt-in: it checks the model against the simulated grid and
#: adds low-rate chiplet runs of its own.
_DEFAULT_FIGURES = [name for name in _FIGURES if name != "analytic"]

#: CLI spellings of the NoC kinds: the canonical value plus an
#: underscore alias for the '+' (shell-friendlier, e.g. ``mesh_pra``).
_NOC_KINDS = {k.value: k for k in NocKind}
_NOC_KINDS.update({k.value.replace("+", "_"): k for k in NocKind})

#: Organizations the chaos harness can inject faults into ("ideal" has
#: no routers or links to fault, so it is excluded; a ring is
#: ``--noc mesh --topology ring``).
_CHAOS_NOCS = sorted(
    name for name, k in _NOC_KINDS.items() if k is not NocKind.IDEAL
)


def _parse_mesh(text: str):
    """argparse type for ``--mesh WxH`` (e.g. ``4x4``)."""
    try:
        width_s, _, height_s = text.lower().partition("x")
        width, height = int(width_s), int(height_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected WxH (e.g. 8x8), got {text!r}"
        ) from None
    if width < 1 or height < 1:
        raise argparse.ArgumentTypeError(
            f"mesh dimensions must be positive, got {text!r}"
        )
    return width, height


def _bounded(convert, least, most, expected: str):
    """argparse type for a number ``convert`` reads from the flag's text
    that must lie in [``least``, ``most``]."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not least <= value <= most:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value

    return parse


def _count(least: int):
    """argparse type for an integer flag that must be >= ``least``."""
    return _bounded(int, least, math.inf, f"an integer >= {least}")


_probability = _bounded(float, 0.0, 1.0, "a probability in [0, 1]")


def _probabilities(text: str) -> List[float]:
    """argparse type for a comma list of injection probabilities."""
    return [_probability(rate) for rate in text.split(",")]


def _output_path(text: str) -> str:
    """argparse type for a file to write: its parent (or ``.``) must be
    an existing directory, so the run fails before it starts, not after
    its work is done."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(
            f"{directory!r} is not an existing directory"
        )
    if not os.path.basename(text) or os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"expected a file, got {text!r}")
    return text


def _checkpoint_template(text: str) -> str:
    """argparse type for ``--checkpoint``: an output path once its one
    field, ``{cycle}``, is filled in."""
    try:
        path = text.format(cycle=0)
    except (LookupError, AttributeError, TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected a path whose only field is '{{cycle}}', got {text!r}"
        ) from None
    _output_path(path)
    return text


def _topology(text: str) -> str:
    """argparse type for a topology spec (see ``parse_topology_spec``)."""
    try:
        parse_topology_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _workload(text: str) -> str:
    """argparse type for a workload name or alias; the canonical name."""
    try:
        return resolve_workload(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _figure_names(text: str) -> List[str]:
    """argparse type for ``--only``: a comma list of figure names."""
    names = text.split(",")
    unknown = [name for name in names if name not in _FIGURES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown figure {unknown[0]!r}; choose from {list(_FIGURES)}")
    return names


def _add_network_flags(p: argparse.ArgumentParser, mesh: str) -> None:
    """The flags ``sweep`` and ``chaos`` share: the synthetic network's
    shape and its traffic pattern."""
    p.add_argument("--mesh", type=_parse_mesh, default=mesh, metavar="WxH",
                   help=f"mesh dimensions (a ring has W*H stops; "
                        f"default {mesh})")
    p.add_argument("--topology", type=_topology, default="mesh",
                   metavar="SPEC",
                   help="topology spec: mesh (default), ring, or "
                        "chiplet:CXxCYxWxH[:star][:ilat=N] "
                        "(e.g. chiplet:2x2x4x4)")
    p.add_argument("--pattern", default="uniform_random",
                   choices=[pattern.value for pattern in TrafficPattern])


def _report_grid_outcome() -> int:
    """Exit code for the command's grid sweeps: nonzero when any of
    them quarantined cells or degraded, with each such RunReport on
    stderr."""
    troubled = [report for report in run_reports()
                if report.quarantined or report.degraded]
    for report in troubled:
        print(report.render(), file=sys.stderr)
    return 1 if troubled else 0


def _cmd_figures(args: argparse.Namespace, config: RunConfig) -> int:
    collected = {}
    failed = False
    for name in args.only:
        result = _FIGURES[name](config)
        collected[name] = result
        print(render_bars(result) if args.bars else render_figure(result))
        print()
        if not result.get("ok", True):
            failed = True
            print(result["failure"], file=sys.stderr)
    if args.json:
        serializable = {
            name: {"title": r["title"], "headers": r["headers"],
                   "rows": [[str(c) for c in row] for row in r["rows"]]}
            for name, r in collected.items()
        }
        with open(args.json, "w") as fh:
            json.dump(serializable, fh, indent=2)
        print(f"wrote {args.json}")
    troubled = _report_grid_outcome()
    return 1 if failed or troubled else 0


def _drive(sim, warmup: int, measure: int, every: Optional[int],
           path_tpl: str):
    """Run ``sim`` to the absolute cycle ``warmup + measure``, writing a
    snapshot at every multiple of ``every`` strictly before the end.

    Cycles are absolute, so a simulator restored from one of those
    snapshots resumes mid-schedule: already-simulated cycles are not
    repeated, and the measurement interval opened before the snapshot
    (or at ``warmup``, whichever comes first on this process's watch)
    closes exactly where a straight run would close it.
    """
    from repro.checkpoint import snapshot_system, write_snapshot

    sim.start()
    end = warmup + measure

    def run_to(target: int) -> None:
        while sim.chip.cycle < target:
            step = target - sim.chip.cycle
            if every:
                next_ck = (sim.chip.cycle // every + 1) * every
                if next_ck < min(end, target + 1):
                    step = next_ck - sim.chip.cycle
            sim.chip.run(step)
            at = sim.chip.cycle
            if every and at % every == 0 and at < end:
                path = path_tpl.format(cycle=at)
                write_snapshot(snapshot_system(sim), path)
                print(f"checkpoint: cycle {at} -> {path}")

    run_to(warmup)
    if sim._interval_start is None:
        sim.begin_interval()
    run_to(end)
    return sim.end_interval()


def _cmd_simulate(args: argparse.Namespace, _config: RunConfig) -> int:
    from repro.perf.system import SystemSimulator

    if args.restore is not None:
        from repro.checkpoint import read_snapshot, restore_system

        sim = restore_system(read_snapshot(args.restore))
        kind = sim.noc_kind
    else:
        kind = _NOC_KINDS[args.noc]
        sim = SystemSimulator(args.workload, kind, seed=args.seed)
    tracer = None
    if args.trace:
        from repro.trace import RingTracer

        tracer = RingTracer()
        sim.chip.network.attach(tracer=tracer)
    sample = _drive(sim, args.warmup, args.measure,
                    args.checkpoint_every, args.checkpoint)
    if tracer is not None:
        written = tracer.write_jsonl(args.trace)
        print(f"trace:                {written} events -> {args.trace}"
              + (f" ({tracer.dropped} older events evicted)"
                 if tracer.dropped else ""))
    print(f"workload:             {sample.workload}")
    print(f"organization:         {kind.value}")
    print(f"aggregate IPC:        {sample.ipc:.2f}")
    print(f"packets delivered:    {sample.packets}")
    print(f"avg network latency:  {sample.avg_network_latency:.2f} cycles")
    if kind is NocKind.MESH_PRA:
        print(f"control/data packets: {sample.control_per_data:.2f}")
        print(f"lag distribution:     "
              + ", ".join(f"lag{k}={v:.0%}"
                          for k, v in sorted(sample.lag_distribution.items())))
        print(f"blocked fraction:     {sample.pra_blocked_fraction:.3%}")
    if args.digest:
        from repro.checkpoint import run_digest

        digest = run_digest(sample, sim.chip.network.stats.summary())
        print(f"digest:               {digest}")
    return 0


def _cmd_trace(args: argparse.Namespace, _config: RunConfig) -> int:
    from repro.perf.system import SystemSimulator
    from repro.trace import (
        RingTracer,
        delivered_pids,
        planned_pids,
        reconstruct,
    )
    kind = _NOC_KINDS[args.noc]
    window = (args.warmup, args.warmup + args.cycles)
    tracer = RingTracer(
        capacity=args.capacity,
        pids=[args.packet] if args.packet is not None else None,
        cycle_window=window,
    )
    sim = SystemSimulator(args.workload, kind, seed=args.seed)
    sim.chip.network.attach(tracer=tracer)
    sim.run_sample(warmup=args.warmup, measure=args.cycles)
    written = tracer.write_jsonl(args.out)
    print(f"traced {args.workload} on {kind.value}: cycles "
          f"[{window[0]}, {window[1]}), {written} events -> {args.out}")
    if tracer.dropped:
        print(f"note: ring bound evicted {tracer.dropped} older events "
              f"(raise --capacity to keep more)")
    counts = tracer.kind_counts()
    for kind_name in sorted(counts):
        print(f"  {kind_name:<20} {counts[kind_name]}")
    events = tracer.events()
    if args.packet is not None:
        pid = args.packet
    else:
        # Show the most informative timeline: among planned packets
        # delivered inside the window, the one with the longest
        # pre-allocated stretch (responses planned from the LLC-hit
        # window typically win over single-step LSD plans).
        planned = planned_pids(events) & delivered_pids(events)
        pid = max(
            planned,
            key=lambda p: len(reconstruct(events, p).plan_sequence()),
            default=None,
        )
    if pid is None:
        print("\nno planned packet was delivered inside the traced "
              "window; pass --packet PID or widen --cycles")
        return 0
    print()
    print(reconstruct(events, pid).render())
    return 0


def _cmd_sweep(args: argparse.Namespace, _config: RunConfig) -> int:
    from repro.noc.network import build_network
    from repro.params import NocParams
    from repro.workloads.synthetic import SyntheticTraffic

    pattern = TrafficPattern(args.pattern)
    kinds = ([_NOC_KINDS[args.noc]] if args.noc
             else supported_kinds(args.topology))
    width, height = args.mesh
    header = "rate      " + "".join(f"{k.value:>10s}" for k in kinds)
    print(header)
    print("-" * len(header))
    for rate in args.rates:
        cells = []
        for kind in kinds:
            net = build_network(NocParams(
                kind=kind, mesh_width=width, mesh_height=height,
                topology=args.topology,
            ))
            SyntheticTraffic(net, pattern, rate, seed=args.seed).run(
                args.cycles
            )
            cells.append(f"{net.stats.avg_network_latency:10.2f}")
        print(f"{rate:<10.4f}" + "".join(cells))
    return 0


def _cmd_chaos(args: argparse.Namespace, _config: RunConfig) -> int:
    from repro.faults import FaultInjector, FaultSchedule
    from repro.invariants import InvariantSuite
    from repro.noc.network import build_network
    from repro.params import NocParams
    from repro.workloads.synthetic import SyntheticTraffic

    width, height = args.mesh
    net = build_network(NocParams(
        kind=_NOC_KINDS[args.noc], mesh_width=width, mesh_height=height,
        topology=args.topology,
    ))
    num_nodes = net.topology.num_nodes
    schedule = FaultSchedule.random(
        args.fault_seed, num_nodes, args.cycles, intensity=args.intensity
    )
    injector = FaultInjector(schedule)
    suite = InvariantSuite(raise_on_violation=False)
    net.attach(faults=injector, invariants=suite)
    traffic = SyntheticTraffic(
        net, TrafficPattern(args.pattern), args.rate, seed=args.seed
    )
    traffic.run(args.cycles)
    drain_limit = args.cycles + args.drain
    while (net.stats.in_flight and net.cycle < drain_limit
           and not suite.watchdog_fired):
        net.step()

    stats = net.stats
    print(f"organization:         {args.noc}")
    print(f"topology:             {args.topology}")
    print(f"nodes:                {num_nodes}")
    print(f"fault seed:           {args.fault_seed} "
          f"(intensity {args.intensity})")
    print(f"packets delivered:    {stats.packets_ejected}"
          f" / {stats.packets_injected}")
    print(f"packets unfinished:   {stats.in_flight}")
    print(f"avg network latency:  {stats.avg_network_latency:.2f} cycles")
    print(f"invariant audits:     {suite.audits_run}")
    summary = injector.summary()
    print("faults injected:      "
          + (", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
             or "none"))
    if stats.control_drop_reasons:
        print("control drops:        "
              + ", ".join(f"{k}={v}" for k, v in
                          sorted(stats.control_drop_reasons.items())))
    failed = False
    if suite.violations:
        failed = True
        print(f"\nINVARIANT VIOLATIONS ({len(suite.violations)}):",
              file=sys.stderr)
        for violation in suite.violations:
            print(violation.render(), file=sys.stderr)
    if stats.in_flight:
        failed = True
        print(f"\n{stats.in_flight} packets never finished "
              f"(drain limit {drain_limit} cycles"
              + (", watchdog fired" if suite.watchdog_fired else "")
              + ")", file=sys.stderr)
    if not failed:
        print("all packets delivered, all invariants held")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Refuses input in one line: ``error: <message>`` on stderr, no
    usage block, exit 2.  ``add_subparsers`` makes each subparser of
    this class too.  A line break in an echoed argument (a path, an
    unrecognized flag) is written as ``\\n``."""

    def error(self, message: str):
        self.exit(2, "error: " + "\\n".join(message.splitlines()) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reproduction of 'Near-Ideal Networks-on-Chip for "
                    "Servers' (HPCA 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="reproduce the paper's figures")
    p.add_argument("--scale", default=None, choices=sorted(SCALES),
                   help="simulation lengths (or REPRO_SCALE)")
    p.add_argument("--only", type=_figure_names, default=_DEFAULT_FIGURES,
                   metavar="NAMES",
                   help=f"comma list from {list(_FIGURES)}")
    p.add_argument("--json", type=_output_path, default=None,
                   help="also dump JSON here")
    p.add_argument("--bars", action="store_true",
                   help="render ASCII bar charts instead of tables")
    p.add_argument("--cell-store", default=None, metavar="PATH",
                   help="persist finished evaluation-grid cells under "
                        "PATH (or REPRO_CELL_STORE) so interrupted "
                        "sweeps resume")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("simulate", help="one full-system run")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("workload", nargs="?", type=_workload, default=None,
                       help="workload name or alias")
    p.add_argument("--noc", default=None, choices=sorted(_NOC_KINDS),
                   help="organization (default: mesh+pra)")
    p.add_argument("--warmup", type=_count(0), default=1000)
    p.add_argument("--measure", type=_count(1), default=5000)
    p.add_argument("--seed", type=int, default=None,
                   help="traffic seed (default: 1)")
    p.add_argument("--trace", type=_output_path, default=None,
                   metavar="PATH",
                   help="also write a JSONL event trace of the run")
    p.add_argument("--checkpoint-every", type=_count(1), default=None,
                   metavar="N",
                   help="write a snapshot at every multiple of N cycles "
                        "(strictly before the run's end)")
    p.add_argument("--checkpoint", type=_checkpoint_template,
                   default="checkpoint-{cycle}.json", metavar="TPL",
                   help="checkpoint path template; '{cycle}' expands to "
                        "the snapshot cycle; name it .json or .json.gz "
                        "(gzip-framed) (default: %(default)s)")
    start.add_argument("--restore", default=None, metavar="FILE",
                       help="resume from a snapshot instead of starting "
                            "at cycle 0 (pass the same --warmup/--measure "
                            "as the original run to finish its schedule)")
    p.add_argument("--digest", action="store_true",
                   help="print the run's golden-determinism sha256 "
                        "digest (restored runs must match straight runs)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "trace",
        help="run with cycle-level event tracing and reconstruct a "
             "per-packet timeline",
    )
    p.add_argument("--workload", type=_workload, required=True,
                   help="workload name or alias (e.g. 'web')")
    p.add_argument("--noc", default="mesh_pra", choices=sorted(_NOC_KINDS))
    p.add_argument("--cycles", type=_count(1), default=200,
                   help="length of the traced cycle window")
    p.add_argument("--warmup", type=_count(0), default=200,
                   help="untraced warm-up cycles before the window")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--packet", type=_count(0), default=None, metavar="PID",
                   help="trace and reconstruct only this packet id")
    p.add_argument("--out", type=_output_path, default="trace.jsonl",
                   metavar="PATH",
                   help="JSONL output path (default: trace.jsonl)")
    p.add_argument("--capacity", type=_count(1), default=1 << 17,
                   help="ring-buffer bound on captured events")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sweep", help="synthetic load-latency sweep")
    p.add_argument("--noc", default=None, choices=sorted(_NOC_KINDS))
    p.add_argument("--rates", type=_probabilities,
                   default="0.002,0.005,0.01,0.02",
                   help="comma list of per-node injection probabilities")
    p.add_argument("--cycles", type=_count(1), default=2000)
    p.add_argument("--seed", type=int, default=1)
    _add_network_flags(p, mesh="8x8")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "chaos",
        help="fault-injection run with runtime invariant checking",
    )
    p.add_argument("--noc", default="mesh_pra", choices=_CHAOS_NOCS)
    p.add_argument("--cycles", type=_count(10), default=500,
                   help="injection window length")
    p.add_argument("--drain", type=_count(0), default=4096,
                   help="extra cycles allowed to drain in-flight packets")
    p.add_argument("--rate", type=_probability, default=0.03,
                   help="per-node injection probability")
    p.add_argument("--seed", type=int, default=1, help="traffic seed")
    p.add_argument("--fault-seed", type=int, default=7,
                   help="fault-schedule seed")
    p.add_argument("--intensity", default=1.0,
                   type=_bounded(float, 0.0, sys.float_info.max,
                                 "a finite number >= 0"),
                   help="fault-schedule intensity multiplier")
    _add_network_flags(p, mesh="4x4")
    p.set_defaults(func=_cmd_chaos)

    return parser


def _check(parser: argparse.ArgumentParser,
           args: argparse.Namespace) -> RunConfig:
    """The checks that span flags, made right after parsing and refused
    through the parser; returns the run's configuration, resolved from
    the environment and then the flags that override it."""
    if args.command in ("sweep", "chaos") and args.noc:
        supported = supported_kinds(args.topology)
        if _NOC_KINDS[args.noc] not in supported:
            runs = ", ".join(kind.value for kind in supported)
            parser.error(f"argument --noc: topology {args.topology!r} "
                         f"runs {runs}, not {args.noc}")
    if args.command == "simulate":
        for flag, default in (("noc", "mesh+pra"), ("seed", 1)):
            if getattr(args, flag) is None:
                setattr(args, flag, default)
            elif args.restore is not None:
                parser.error(f"argument --{flag}: not allowed with argument "
                             "--restore (the snapshot fixes it)")
    flags = {name: value for name in ("scale", "cell_store")
             if (value := getattr(args, name, None))}
    try:
        return replace(RunConfig.from_env(), **flags)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _check(parser, args)
    clear_reports()
    try:
        return args.func(args, config)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    except SnapshotError as exc:
        # The one input read after parsing: a --restore file.
        parser.error(str(exc))
    except MissingCellError as exc:
        # A figure needs a cell the sweep quarantined: say which, and
        # why, instead of a traceback.
        _report_grid_outcome()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
