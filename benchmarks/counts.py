"""Exact cost rows: executed bytecodes and held bytes, gated at +1 %.

Wall-clock A/Bs on a shared host drift by tens of percent, so this
script measures what does not drift.  At pinned short sizes it records

* ``bytecodes/<workload>``: the bytecodes CPython executes (counted by a
  ``sys.settrace`` hook with ``f_trace_opcodes``) to build and run
  ``contested_mesh``, ``contested_pra``, ``contested_chiplet`` and
  ``server_fullsys`` (shapes as in ``benchmarks/ledger/workloads.py``,
  lengths cut so the count pass stays short), each in a fresh child
  process so no row reads another's warm caches;
* ``bytes/<organization>``: the bytes ``tracemalloc`` sees held by one
  built-and-run ``SystemSimulator`` of that organization, after one of
  the same organization has run in the process (so imports and
  process-wide tables count once, not per simulator);
* ``snapshot_bytes/mesh+pra``: the JSON bytes of ``snapshot_system``
  on that Mesh+PRA simulator, so the checkpoint codec cannot regrow
  unnoticed.

The rows are exact on one CPython minor version, so the committed rows
in ``benchmarks/counts.json`` name theirs.  Usage::

    PYTHONPATH=src python benchmarks/counts.py          # the gate
    PYTHONPATH=src python benchmarks/counts.py --write  # accept new rows

The gate exits 1 when any row rises more than ``TOLERANCE`` above its
committed value, and 2 when run on another Python minor version.  A PR
that accepts a rise rewrites the rows and says why in CHANGES.md; a
perf PR's claim is a row falling.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import time

ROWS_FILE = pathlib.Path(__file__).with_name("counts.json")
#: A row may rise this much over its committed value.
TOLERANCE = 0.01
SEED = 11

#: Open-loop rows: organization, topology spec (None: the 8x8 mesh),
#: uniform-random load and injection cycles; each drains afterwards.
CONTESTED = {
    "contested_mesh": ("mesh", None, 0.08, 800),
    "contested_pra": ("mesh+pra", None, 0.08, 600),
    "contested_chiplet": ("mesh", "chiplet:2x2x4x4", 0.02, 2000),
}
#: The closed-loop rows: the Fig. 2 pair on all four organizations.
PROFILES = ("Media Streaming", "Web Search")
ORGS = ("mesh", "smart", "mesh+pra", "ideal")
WARMUP, MEASURE = 200, 400
WORKLOADS = tuple(CONTESTED) + ("server_fullsys",)
#: The organization whose snapshot size is a row.
SNAPSHOT_ORG = "mesh+pra"


def _contested(name: str) -> None:
    from repro.noc.network import build_network
    from repro.params import NocKind, NocParams
    from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

    kind, topology, rate, cycles = CONTESTED[name]
    if topology is None:
        params = NocParams(kind=NocKind(kind), mesh_width=8, mesh_height=8)
    else:
        params = NocParams(kind=NocKind(kind), topology=topology)
    net = build_network(params)
    SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, rate,
                     seed=SEED).run(cycles)
    net.drain()


def _server_fullsys() -> None:
    from repro.params import NocKind
    from repro.perf.system import SystemSimulator

    sims = [SystemSimulator(profile, NocKind(org), seed=SEED)
            for profile in PROFILES for org in ORGS]
    for sim in sims:
        sim.run_sample(WARMUP, MEASURE)


def _system(org: str):
    from repro.params import NocKind
    from repro.perf.system import SystemSimulator

    sim = SystemSimulator("Web Search", NocKind(org), seed=SEED)
    sim.run_sample(WARMUP, MEASURE)
    return sim


def count_bytecodes(name: str) -> int:
    """Bytecodes executed building and running workload ``name``."""
    # Imported before the hook goes in, so imports stay uncounted.
    import repro.noc.network  # noqa: F401
    import repro.perf.system  # noqa: F401

    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        if name == "server_fullsys":
            _server_fullsys()
        else:
            _contested(name)
    finally:
        sys.settrace(None)
    return count


def held_bytes() -> dict:
    """``bytes/<org>`` rows: traced bytes one more simulator holds; and
    the ``snapshot_bytes`` row, measured on the same simulator."""
    import tracemalloc

    from repro.checkpoint import snapshot_system

    rows = {}
    for org in ORGS:
        _system(org)  # imports and process-wide tables, left untraced
        gc.collect()
        tracemalloc.start()
        sim = _system(org)
        gc.collect()
        rows[f"bytes/{org}"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        if org == SNAPSHOT_ORG:
            rows[f"snapshot_bytes/{org}"] = len(
                json.dumps(snapshot_system(sim)))
        del sim
        gc.collect()
    return rows


def _child(task: str) -> dict:
    if task == "bytes":
        return held_bytes()
    return {f"bytecodes/{task}": count_bytecodes(task)}


def measure() -> dict:
    """Every row, each task in a fresh child (fixed hash seed)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    rows = {}
    for task in WORKLOADS + ("bytes",):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, __file__, "--child", task], env=env,
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        rows.update(json.loads(out))
        print(f"  {task}: {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    return rows


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def compare(committed: dict, rows: dict) -> int:
    """Print each row against its committed value; the number of rows
    that rose past the tolerance (a missing row counts as one)."""
    failures = 0
    for name in sorted(set(committed) | set(rows)):
        old, new = committed.get(name), rows.get(name)
        if old is None or new is None:
            print(f"{name:30} {old!s:>14} {new!s:>14}  row added or dropped")
            failures += 1
            continue
        change = new / old - 1.0 if old else 0.0
        verdict = "ROSE" if change > TOLERANCE else "ok"
        failures += verdict == "ROSE"
        print(f"{name:30} {old:14d} {new:14d} {change:+8.2%}  {verdict}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the measured rows as the committed ones")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0
    committed = json.loads(ROWS_FILE.read_text()) if ROWS_FILE.exists() \
        else None
    if not args.write and committed is None:
        print(f"error: no committed rows in {ROWS_FILE}", file=sys.stderr)
        return 2
    if not args.write and committed["python"] != python_version():
        print(f"error: the rows were recorded on CPython "
              f"{committed['python']}; this is {python_version()}",
              file=sys.stderr)
        return 2
    rows = measure()
    if args.write:
        ROWS_FILE.write_text(json.dumps(
            {"python": python_version(), "rows": rows}, indent=2) + "\n")
        print(f"wrote {len(rows)} rows to {ROWS_FILE}")
        return 0
    failures = compare(committed["rows"], rows)
    if failures:
        print(f"{failures} row(s) rose more than {TOLERANCE:.0%}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
