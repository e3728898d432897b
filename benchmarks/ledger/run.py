#!/usr/bin/env python3
"""The performance ledger: one command, seven workloads, every metric.

    python benchmarks/ledger/run.py                      # full ledger
    python benchmarks/ledger/run.py --workload NAME      # one workload
    python benchmarks/ledger/run.py --out A.json         # keep the results
    python benchmarks/ledger/run.py --compare A.json B.json

Under the benchmark contract (BENCHMARK.json) the driver appends
``--workload NAME --seed N --seconds S --trace 0|1``; the last line of
output is then that workload's result object.  See README.md.

This process only orchestrates: every repetition of every workload is a
fresh ``child.py`` process, run one at a time, with ``REPRO_*`` scrubbed
from its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import compare  # noqa: E402
import probe  # noqa: E402
from workloads import ORGS, PAPER_SPEEDUP, SIZES, WORKLOADS  # noqa: E402

SCHEMA = 1
#: Seed 11 is the development seed; 12 is held out for later claims.
DEFAULT_SEED = 11
DEFAULT_REPS = 5
#: Fewest repetitions a median and a digest-repeats check are taken from.
MIN_REPS = 3
MAX_REPS = 12
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def scrubbed_env() -> Dict[str, str]:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def spawn(workload: str, mode: str, seed: int, scale: float) -> dict:
    """Run one repetition in a fresh process and return its record."""
    args = {"workload": workload, "mode": mode, "seed": seed, "scale": scale,
            "t_spawn": time.monotonic()}
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(args)],
            stdout=subprocess.PIPE, text=True, env=scrubbed_env(),
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}/{mode}: no result after "
                          f"{CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"{workload}/{mode}: exit code {done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


# -- statistics -------------------------------------------------------------


def summarize(values: List[float]) -> dict:
    """Median with quartiles, min, max and n.  Five samples is too few
    for a percentile, so none is reported.  The quartiles are the
    inclusive ones, the second and fourth of five: the exclusive method
    puts them half-way to the minimum and maximum, so that one slow
    process start in five reads as spread."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def _host_values(rep: dict) -> Dict[str, float]:
    host = rep["host"]
    return {
        "wall_s": host["wall_s"],
        "sim_cycles_per_s": rep["cycles"] / host["wall_s"],
        "host_us_per_packet": 1e6 * host["wall_s"] / rep["packets"],
        "cpu_s": host["cpu_s"],
        "peak_rss_mb": host["peak_rss_mb"],
        "setup_s": host["setup_s"],
    }


# -- measuring --------------------------------------------------------------


def measure(names: List[str], seed: int, scale: float,
            reps: Optional[int], seconds: Optional[float],
            traced: bool, calibration: float, say=print) -> Dict[str, dict]:
    """Run the plain repetitions (interleaved round-robin, so host drift
    hits every workload alike), then the traced pass; return one result
    per workload."""
    references = {}
    for name in names:
        if WORKLOADS[name].reference is not None:
            say(f"[{name}] reference run (untimed)")
            references[name] = spawn(name, "reference", seed, scale)

    plain: Dict[str, List[dict]] = {name: [] for name in names}

    def wants_more(name: str) -> bool:
        done = plain[name]
        if reps is not None:
            return len(done) < reps
        if len(done) < MIN_REPS:
            return True
        return len(done) < MAX_REPS and \
            sum(rep["host"]["wall_s"] for rep in done) < seconds

    while True:
        pending = [name for name in names if wants_more(name)]
        if not pending:
            break
        for name in pending:
            rep = spawn(name, "plain", seed, scale)
            plain[name].append(rep)
            say(f"[{name}] rep {len(plain[name])}: "
                f"wall {rep['host']['wall_s']:.3f} s, "
                f"setup {rep['host']['setup_s']:.3f} s")

    extra: Dict[str, Dict[str, dict]] = {name: {} for name in names}
    if traced:
        for name in names:
            for mode in ("traced",) + WORKLOADS[name].modes:
                say(f"[{name}] {mode} pass")
                extra[name][mode] = spawn(name, mode, seed, scale)
    return {name: assemble(name, plain[name], references.get(name),
                           extra[name], calibration)
            for name in names}


def assemble(name: str, reps: List[dict], reference: Optional[dict],
             extra: Dict[str, dict], calibration: float) -> dict:
    """Fold one workload's child records into its ledger entry."""
    spec = WORKLOADS[name]
    first = reps[0]
    checks: List[tuple] = []
    for index, rep in enumerate(reps):
        checks += [(f"rep{index}.{check}", ok)
                   for check, ok in rep["checks"].items()]
        if index:
            checks.append((f"rep{index}.digests_repeat",
                           rep["digests"] == first["digests"]))
    if reference is not None:
        checks.append(("reference.digests_match", all(
            first["digests"][key] == value
            for key, value in reference["digests"].items())))
    for mode, record in extra.items():
        checks += [(f"{mode}.{check}", ok)
                   for check, ok in record["checks"].items()]
        shared = set(record["digests"]) & set(first["digests"])
        checks.append((f"{mode}.digests_match", all(
            record["digests"][key] == first["digests"][key]
            for key in shared)))
    failed = [check for check, ok in checks if not ok]

    simulated = dict(first["simulated"])
    if reference is not None:
        for key, value in reference["simulated"].items():
            simulated.setdefault(key, value)
    per_rep = [_host_values(rep) for rep in reps]
    host = {metric: summarize([values[metric] for values in per_rep])
            for metric in per_rep[0]}
    end_to_end = {}
    for metric in catalogue.END_TO_END:
        entry = {"unit": metric.unit, "kind": metric.kind,
                 "better": metric.better}
        if metric.kind == "host":
            entry.update(host[metric.name])
        elif metric.name == "fail_ratio":
            entry["value"] = len(failed) / len(checks)
        elif simulated.get(metric.name) is not None:
            entry["value"] = simulated[metric.name]
        else:
            entry["omitted"] = "not defined on this workload"
        end_to_end[metric.name] = entry
    if "p99_samples" in simulated:
        end_to_end["p99_packet_latency_cycles"]["n"] = simulated["p99_samples"]

    result = {
        "loop": spec.loop, "why": spec.why, "sizes": SIZES[name],
        "end_to_end": end_to_end,
        "ops_attempted": len(checks), "ops_failed": len(failed),
        "checks": [check for check, _ in checks], "failed_checks": failed,
        "digests": first["digests"],
    }
    if "speedups" in first:
        result["speedups"] = {
            tag: {"simulated": value, "paper": PAPER_SPEEDUP[tag]}
            for tag, value in first["speedups"].items()}
    if extra:
        layers, omitted = per_layer(name, first, host, reference, extra,
                                    calibration)
        result["per_layer"] = layers
        result["omitted"] = omitted
        result["trace"] = {
            "spans": [span for record in extra.values()
                      for span in record["spans"]],
            "span_self_s": extra["traced"]["span_self_s"],
            "sampler": extra["traced"]["sampler"],
        }
    return result


def per_layer(name: str, first: dict, host: dict, reference: Optional[dict],
              extra: Dict[str, dict], calibration: float):
    """Every per-layer metric of one workload: a value, or why not."""
    traced = extra["traced"]
    wall = host["wall_s"]["median"]
    layers = dict(first["layers"])
    omitted = dict(first["omitted"])
    if reference is not None:
        layers.update(reference["layers"])
    layers.update(traced["layers"])
    omitted.update(traced["omitted"])
    layers.update(probe.shares(traced["sampler"]["weights"]))
    layers["ledger.samples"] = traced["sampler"]["samples"]
    layers["ledger.trace_overhead"] = traced["host"]["wall_s"] / wall
    layers["ledger.calibration_mips"] = calibration
    if "count" in extra:
        layers.update({key: value
                       for key, value in extra["count"]["layers"].items()
                       if ".step_calls_per_" in key})
    tag = ORGS.get(SIZES[name].get("kind"))
    if "tracer" in extra:
        layers[f"trace.attached_slowdown.{tag}"] = (
            extra["tracer"]["host"]["wall_s"] / wall)
        layers["trace.events_per_cycle"] = (
            extra["tracer"]["layers"]["trace.events_per_cycle"])
    if "invariants" in extra:
        layers[f"invariants.attached_slowdown.{tag}"] = (
            extra["invariants"]["host"]["wall_s"] / wall)
    stepped = layers.get("noc.cycles", 0) - layers.get("noc.cycles_skipped", 0)
    if stepped > 0:
        layers["noc.host_us_per_stepped_cycle"] = 1e6 * wall / stepped
    if "shard.serial_s" in layers:
        layers["shard.speedup_vs_serial"] = layers["shard.serial_s"] / wall
        layers["shard.cpu_ratio"] = (
            host["cpu_s"]["median"] / reference["host"]["cpu_s"])
    for metric in catalogue.PER_LAYER:
        if metric.name not in layers:
            omitted.setdefault(metric.name, catalogue.NOT_EXERCISED)
    return ({m.name: layers[m.name] for m in catalogue.PER_LAYER
             if m.name in layers}, omitted)


# -- provenance -------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(HERE), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, reps: Optional[int], seconds: Optional[float],
               calibration: float) -> dict:
    """Where a result file came from.  ``git_dirty`` is recorded beside
    the rev: a baseline measured on uncommitted code must say so rather
    than carry the rev of the commit before it."""
    status = _git("status", "--porcelain")
    return {
        "git_rev": _git("rev-parse", "--short", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_mips": calibration,
        "seed": seed, "reps": reps, "seconds": seconds,
        "sizes": SIZES,
        "environment": {
            "scrubbed": sorted(k for k in os.environ
                               if k.startswith("REPRO_")),
            "set_by_workload": {"grid_sweep": ["REPRO_JOBS"]},
        },
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- output -----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render(name: str, result: dict) -> str:
    lines = [f"== {name} ({result['loop']}): {result['why']}"]
    for metric, entry in result["end_to_end"].items():
        if "omitted" in entry:
            lines.append(f"  {metric:<32} omitted: {entry['omitted']}")
        elif "median" in entry:
            lines.append(
                f"  {metric:<32} {_fmt(entry['median']):>12} {entry['unit']}"
                f"  (min {_fmt(entry['min'])}, max {_fmt(entry['max'])},"
                f" n {entry['n']})")
        else:
            count = f"  (n {entry['n']})" if "n" in entry else ""
            lines.append(f"  {metric:<32} {_fmt(entry['value']):>12} "
                         f"{entry['unit']}{count}")
    for tag, pair in result.get("speedups", {}).items():
        lines.append(
            f"  speed-up {tag} over mesh: simulated "
            f"{pair['simulated']:.4f}, paper {pair['paper']:.2f}"
            + (" (paper's figure is its six-workload gmean; this is the "
               "Fig. 2 pair)" if tag == "pra" else ""))
    lines.append(f"  ops_attempted {result['ops_attempted']}  "
                 f"ops_failed {result['ops_failed']}"
                 + "".join(f"\n    FAILED {c}"
                           for c in result["failed_checks"]))
    for key, digest in result["digests"].items():
        lines.append(f"  digest {key}: {digest}")
    if "per_layer" in result:
        lines.append("  -- per layer (traced pass) --")
        for metric in catalogue.PER_LAYER:
            if metric.name in result["per_layer"]:
                lines.append(
                    f"  {metric.name:<40} "
                    f"{_fmt(result['per_layer'][metric.name]):>12} "
                    f"{metric.unit}")
            else:
                lines.append(f"  {metric.name:<40} omitted: "
                             f"{result['omitted'][metric.name]}")
    return "\n".join(lines)


def contract_line(result: dict, trace: bool) -> str:
    """The result object the benchmark contract wants as the last line:
    every ``end_to_end`` metric untraced, every ``per_layer`` metric
    traced, each value a number.  The contract leaves no way to leave a
    metric out or to write null, so a per-layer metric this workload
    does not exercise reads 0 there, as a layer that did no work; the
    report printed above it says ``omitted`` and why."""
    spec = catalogue.contract()
    metrics = {}
    if trace:
        for item in spec["per_layer"]:
            entry = result["end_to_end"].get(item["name"], {})
            value = entry.get("value", result["per_layer"].get(item["name"]))
            metrics[item["name"]] = {"value": value or 0,
                                     "unit": item["unit"]}
    else:
        for item in spec["end_to_end"]:
            entry = result["end_to_end"][item["name"]]
            metrics[item["name"]] = {
                "value": entry.get("median", entry.get("value")),
                "unit": item["unit"]}
    return json.dumps({"correct": result["ops_failed"] == 0,
                       "attempted": result["ops_attempted"],
                       "failed": result["ops_failed"],
                       "metrics": metrics})


def write_results(out: pathlib.Path, document: dict) -> None:
    """The result file, with each workload's spans and sampler weights
    beside it as ``<stem>.trace_<workload>.json``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    for name, result in document["workloads"].items():
        trace = result.pop("trace", None)
        if trace is not None:
            path = out.with_name(f"{out.stem}.trace_{name}.json")
            path.write_text(json.dumps(trace, indent=1) + "\n")
            result["trace_file"] = path.name
    out.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int,
                        help=f"plain repetitions (default {DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float,
                        help="repeat until this much timed wall per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        choices=(0, 1),
                        help="0: end-to-end only; 1: traced pass as well "
                             "(default: 1 for the full ledger)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the result file here, and each "
                             "workload's spans beside it")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        type=pathlib.Path)
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)

    names = args.workload or list(WORKLOADS)
    traced = bool(args.trace) if args.trace is not None \
        else args.workload is None
    seconds = args.seconds
    reps = args.reps
    if reps is None and seconds is None:
        reps = DEFAULT_REPS
    elif reps is None and traced:
        # The seconds go to the traced pass, which reports no end-to-end
        # metric: one plain repetition gives it its denominators.
        reps, seconds = 1, None
    calibration = probe.calibrate()
    try:
        results = measure(names, args.seed, 1.0, reps, seconds, traced,
                          calibration)
    except ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    print()
    print("\n\n".join(render(name, result)
                      for name, result in results.items()))
    last = contract_line(results[names[0]], traced) if len(names) == 1 \
        else None
    if args.out is not None:
        write_results(args.out, {
            "schema": SCHEMA,
            "provenance": provenance(args.seed, reps, seconds, calibration),
            "workloads": results})
    if last is not None:
        print(last)
    return 1 if any(r["ops_failed"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
