"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [--scale S] [--only fig6,...] [--json PATH]
  [--cell-store DIR]`` — reproduce the paper's tables/figures and print
  them (with a cell store attached, interrupted grids resume);
* ``simulate [WORKLOAD] [--noc KIND] [--warmup N] [--measure N]
  [--seed N] [--trace PATH] [--checkpoint-every N] [--checkpoint TPL]
  [--restore FILE] [--digest]`` — one full-system run with diagnostics
  (and optionally a JSONL event trace); periodic snapshots make the
  run resumable, and ``--restore`` continues one bit-for-bit;
* ``trace --workload W [--noc KIND] [--cycles N] [--packet PID]
  [--out PATH]`` — run with cycle-level event tracing and reconstruct a
  per-packet timeline (a planned response by default);
* ``sweep [--noc KIND] [--pattern P] [--rates ...]`` — open-loop
  load-latency curves under synthetic traffic;
* ``saturate [--noc KIND] [--pattern P]`` — bisect the saturation
  injection rate, warm-started from the analytic queueing model's
  capacity bound;
* ``analytic [--validate] [--scale S]`` — print the queueing model's
  predicted grid with zero simulation, or (with ``--validate``) run
  the cycle-accurate grid and fail if the model's error exceeds the
  committed margin;
* ``chaos [--noc KIND] [--fault-seed N] [--intensity X]`` — run a
  seeded fault schedule (dropped control packets, stalled routers and
  links, multi-drop blackouts) with the runtime invariant checkers
  attached; exits non-zero on violations or undelivered packets.

The Table I configuration, the Figure 8 area model and the Section V-E
power analysis are figures: ``figures --only table1``, ``fig8`` and
``power``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.config import RunConfig
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


def _count(least: int):
    """argparse type for an integer flag that must be >= ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}"
            )
        return value

    return parse


def _add_topology_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", default="mesh", metavar="SPEC",
                   help="topology spec: mesh (default), ring, or "
                        "chiplet:CXxCYxWxH[:star][:ilat=N] "
                        "(e.g. chiplet:2x2x4x4)")


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
    names = args.only.split(",") if args.only else list(_DEFAULT_FIGURES)
    collected = {}
    for name in names:
        if name not in _FIGURES:
            print(f"unknown figure {name!r}; choose from {list(_FIGURES)}",
                  file=sys.stderr)
            return 2
        result = _FIGURES[name](config)
        collected[name] = result
        print(render_bars(result) if args.bars else render_figure(result))
        print()
    if args.json:
        serializable = {
            name: {"title": r["title"], "headers": r["headers"],
                   "rows": [[str(c) for c in row] for row in r["rows"]]}
            for name, r in collected.items()
        }
        with open(args.json, "w") as fh:
            json.dump(serializable, fh, indent=2)
        print(f"wrote {args.json}")
    return _report_grid_outcome()


def _resolve_workload_arg(name: str) -> Optional[str]:
    """Canonical workload name, or None (with a message) on a typo."""
    from repro.workloads.profiles import resolve_workload

    try:
        return resolve_workload(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None


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

    if args.restore:
        from repro.checkpoint import read_snapshot, restore_system

        sim = restore_system(read_snapshot(args.restore))
        workload = sim.profile.name
        kind = sim.noc_kind
    else:
        if args.workload is None:
            print("error: a WORKLOAD argument is required unless "
                  "--restore is given", file=sys.stderr)
            return 2
        workload = _resolve_workload_arg(args.workload)
        if workload is None:
            return 2
        kind = _NOC_KINDS[args.noc]
        sim = SystemSimulator(workload, kind, seed=args.seed)
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
    workload = _resolve_workload_arg(args.workload)
    if workload is None:
        return 2
    kind = _NOC_KINDS[args.noc]
    window = (args.warmup, args.warmup + args.cycles)
    tracer = RingTracer(
        capacity=args.capacity,
        pids=[args.packet] if args.packet is not None else None,
        cycle_window=window,
    )
    sim = SystemSimulator(workload, kind, seed=args.seed)
    sim.chip.network.attach(tracer=tracer)
    sim.run_sample(warmup=args.warmup, measure=args.cycles)
    written = tracer.write_jsonl(args.out)
    print(f"traced {workload} on {kind.value}: cycles "
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
    from repro.noc.network import build_network, supported_kinds
    from repro.params import NocParams
    from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

    pattern = TrafficPattern(args.pattern)
    topology = args.topology
    # An explicit --noc the topology does not run fails loudly in
    # build_network.
    kinds = ([_NOC_KINDS[args.noc]] if args.noc
             else supported_kinds(topology))
    rates = [float(r) for r in args.rates.split(",")]
    width, height = args.mesh
    header = "rate      " + "".join(f"{k.value:>10s}" for k in kinds)
    print(header)
    print("-" * len(header))
    for rate in rates:
        cells = []
        for kind in kinds:
            net = build_network(NocParams(
                kind=kind, mesh_width=width, mesh_height=height,
                topology=topology,
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
    from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

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


def _cmd_saturate(args: argparse.Namespace, _config: RunConfig) -> int:
    from repro.analytic import find_saturation
    from repro.params import NocParams
    from repro.workloads.synthetic import TrafficPattern

    kind = _NOC_KINDS[args.noc]
    width, height = args.mesh
    params = NocParams(kind=kind, mesh_width=width, mesh_height=height,
                       topology=args.topology)
    pattern = TrafficPattern(args.pattern)
    hotspot = None
    if args.hotspot is not None:
        if pattern is not TrafficPattern.HOTSPOT:
            raise ValueError("--hotspot needs --pattern hotspot")
        hotspot = tuple(int(n) for n in args.hotspot.split(","))
    result = find_saturation(
        kind,
        pattern,
        params=params,
        cycles=args.cycles,
        seed=args.seed,
        threshold=args.threshold,
        tolerance=args.tol,
        hotspot_nodes=hotspot,
    )
    print(f"organization:         {kind.value}")
    print(f"pattern:              {result.pattern.value}")
    print(f"model estimate:       {result.model_estimate:.4f} "
          f"(injection probability/node/cycle)")
    print(f"measured saturation:  {result.measured:.4f} "
          f"(bracket [{result.bracket[0]:.4f}, {result.bracket[1]:.4f}])")
    print(f"model error:          {result.model_error:.1%}")
    print(f"zero-load latency:    {result.zero_load_latency:.2f} cycles "
          f"(knee at {result.threshold:g}x)")
    print(f"probe simulations:    {result.simulated_points} (warm start)")
    if args.verbose:
        print()
        print("rate      latency   delivered saturated")
        for point in result.points:
            print(f"{point.rate:<10.4f}{point.latency:<10.2f}"
                  f"{point.delivered_fraction:<10.3f}"
                  f"{'yes' if point.saturated else 'no'}")
    return 0


def _cmd_analytic(args: argparse.Namespace, config: RunConfig) -> int:
    if args.validate:
        result = analytic_validation(config=config)
        print(render_figure(result))
        if not result["ok"]:
            report = result["report"]
            print(
                f"\nvalidation FAILED: max latency error "
                f"{report.max_latency_error:.1%} (margin "
                f"{report.margin:.0%}), max IPC error "
                f"{report.max_ipc_error:.1%} (margin "
                f"{report.ipc_margin:.0%})",
                file=sys.stderr,
            )
            return 1
        return _report_grid_outcome()
    # Without --validate: print the model's grid, no simulation at all.
    from repro.analytic import predict_cell
    from repro.harness.runner import ALL_KINDS
    from repro.workloads.profiles import WORKLOAD_NAMES

    header = ("workload             "
              + "".join(f"{k.value:>10s}" for k in ALL_KINDS))
    print("Analytic model IPC by organization (no simulation)")
    print(header)
    print("-" * len(header))
    for workload in WORKLOAD_NAMES:
        cells = "".join(
            f"{predict_cell(workload, kind).ipc:10.1f}"
            for kind in ALL_KINDS
        )
        print(f"{workload:<21s}{cells}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Near-Ideal Networks-on-Chip for "
                    "Servers' (HPCA 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="reproduce the paper's figures")
    p.add_argument("--scale", default=None,
                   help="smoke | default | full (or REPRO_SCALE)")
    p.add_argument("--only", default=None,
                   help=f"comma list from {list(_FIGURES)}")
    p.add_argument("--json", default=None, help="also dump JSON here")
    p.add_argument("--bars", action="store_true",
                   help="render ASCII bar charts instead of tables")
    p.add_argument("--cell-store", default=None, metavar="PATH",
                   help="persist finished evaluation-grid cells under "
                        "PATH (or REPRO_CELL_STORE) so interrupted "
                        "sweeps resume")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("simulate", help="one full-system run")
    p.add_argument("workload", nargs="?", default=None,
                   help="workload name or alias (omit with --restore)")
    p.add_argument("--noc", default="mesh+pra", choices=sorted(_NOC_KINDS))
    p.add_argument("--warmup", type=_count(0), default=1000)
    p.add_argument("--measure", type=_count(1), default=5000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="also write a JSONL event trace of the run")
    p.add_argument("--checkpoint-every", type=_count(1), default=None,
                   metavar="N",
                   help="write a snapshot at every multiple of N cycles "
                        "(strictly before the run's end)")
    p.add_argument("--checkpoint", default="checkpoint-{cycle}.json",
                   metavar="TPL",
                   help="checkpoint path template; '{cycle}' expands to "
                        "the snapshot cycle; name it .json or .json.gz "
                        "(gzip-framed) (default: %(default)s)")
    p.add_argument("--restore", default=None, metavar="FILE",
                   help="resume from a snapshot instead of starting at "
                        "cycle 0 (pass the same --warmup/--measure as "
                        "the original run to finish its schedule)")
    p.add_argument("--digest", action="store_true",
                   help="print the run's golden-determinism sha256 "
                        "digest (restored runs must match straight runs)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "trace",
        help="run with cycle-level event tracing and reconstruct a "
             "per-packet timeline",
    )
    p.add_argument("--workload", required=True,
                   help="workload name or alias (e.g. 'web')")
    p.add_argument("--noc", default="mesh_pra", choices=sorted(_NOC_KINDS))
    p.add_argument("--cycles", type=int, default=200,
                   help="length of the traced cycle window")
    p.add_argument("--warmup", type=int, default=200,
                   help="untraced warm-up cycles before the window")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--packet", type=int, default=None, metavar="PID",
                   help="trace and reconstruct only this packet id")
    p.add_argument("--out", default="trace.jsonl", metavar="PATH",
                   help="JSONL output path (default: trace.jsonl)")
    p.add_argument("--capacity", type=int, default=1 << 17,
                   help="ring-buffer bound on captured events")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("sweep", help="synthetic load-latency sweep")
    p.add_argument("--noc", default=None, choices=sorted(_NOC_KINDS))
    p.add_argument("--pattern", default="uniform_random")
    p.add_argument("--rates", default="0.002,0.005,0.01,0.02")
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mesh", type=_parse_mesh, default=(8, 8),
                   metavar="WxH", help="mesh dimensions (default 8x8)")
    _add_topology_flag(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "chaos",
        help="fault-injection run with runtime invariant checking",
    )
    p.add_argument("--noc", default="mesh_pra", choices=_CHAOS_NOCS)
    p.add_argument("--mesh", type=_parse_mesh, default=(4, 4),
                   metavar="WxH",
                   help="mesh dimensions (a ring has W*H stops; "
                        "default 4x4)")
    p.add_argument("--cycles", type=int, default=500,
                   help="injection window length")
    p.add_argument("--drain", type=int, default=4096,
                   help="extra cycles allowed to drain in-flight packets")
    p.add_argument("--rate", type=float, default=0.03,
                   help="per-node injection probability")
    p.add_argument("--pattern", default="uniform_random")
    p.add_argument("--seed", type=int, default=1, help="traffic seed")
    p.add_argument("--fault-seed", type=int, default=7,
                   help="fault-schedule seed")
    p.add_argument("--intensity", type=float, default=1.0,
                   help="fault-schedule intensity multiplier")
    _add_topology_flag(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "saturate",
        help="model-seeded bisection search for the saturation rate",
    )
    p.add_argument("--noc", default="mesh", choices=sorted(_NOC_KINDS))
    p.add_argument("--pattern", default="uniform_random")
    p.add_argument("--mesh", type=_parse_mesh, default=(8, 8),
                   metavar="WxH", help="mesh dimensions (default 8x8)")
    p.add_argument("--cycles", type=int, default=2000,
                   help="length of each probe window")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threshold", type=float, default=3.0,
                   help="saturation knee: latency above THRESHOLD x "
                        "zero-load (default 3.0)")
    p.add_argument("--tol", type=float, default=0.002,
                   help="bisection bracket width to converge to")
    p.add_argument("--hotspot", default=None, metavar="N,N,...",
                   help="hotspot node ids for --pattern hotspot")
    p.add_argument("--verbose", action="store_true",
                   help="also print every probe point")
    _add_topology_flag(p)
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser(
        "analytic",
        help="the queueing model: predictions and validation",
    )
    p.add_argument("--validate", action="store_true",
                   help="simulate the full grid and fail if any cell's "
                        "model error exceeds the margin")
    p.add_argument("--scale", default=None,
                   help="smoke | default | full (or REPRO_SCALE)")
    p.set_defaults(func=_cmd_analytic)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    clear_reports()
    try:
        # The one place a CLI run's configuration is resolved: the
        # environment, then the flags that override it.
        flags = {name: value for name in ("scale", "cell_store")
                 if (value := getattr(args, name, None))}
        config = replace(RunConfig.from_env(), **flags)
        return args.func(args, config)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    except MissingCellError as exc:
        # A figure needs a cell the sweep quarantined: say which, and
        # why, instead of a traceback.
        _report_grid_outcome()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Invalid parameter combinations (dataclass validation, bad
        # pattern/rate strings) exit like argparse errors do.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
