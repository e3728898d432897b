"""Versioned snapshot files: save/restore whole simulations.

A snapshot captures everything needed to continue a run bit-for-bit in a
fresh process: the immutable parameters (to rebuild the object tree),
the mutable ``state_dict`` of every component, the live-object
registries (packets, plans, transactions), and the global id counters.
``tests/test_golden_determinism.py`` pins the resulting digests, so
"restore + continue" and "straight run" are enforced to be
indistinguishable.

One file format: the snapshot dict as JSON, gzip-framed when the file
name ends in ``.gz`` (``ck.json``, ``ck.json.gz``).  Files are written
atomically and read by content, and everything that can go wrong with a
file from outside — truncation, bit flips, a missing key, version skew —
raises :class:`SnapshotError`.
"""

from __future__ import annotations

import dataclasses
import gc
import gzip
import hashlib
import json
import typing
import zlib
from contextlib import contextmanager
from enum import Enum
from typing import Any, Optional, Tuple

from repro.checkpoint.codec import (
    CODE_VERSION,
    RestoreContext,
    SaveContext,
)
from repro.checkpoint.store import atomic_write
from repro.noc.network import Network, build_network
from repro.noc.packet import peek_next_pid, set_next_pid
from repro.params import ChipParams, NocParams
from repro.tile.llc import peek_next_tid, set_next_tid
from repro.workloads.synthetic import SyntheticTraffic

FORMAT = "repro-checkpoint"
FORMAT_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot that cannot be decoded or restored: damaged bytes,
    missing or ill-typed state, or a header this build does not read."""


@contextmanager
def _loading_outside_data():
    """Snapshots come from outside the program: whatever a damaged one
    trips deep inside the component tree surfaces as one typed error."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(
            f"malformed snapshot: {type(exc).__name__}: {exc}"
        ) from exc


# -- parameter (de)serialization ------------------------------------------

def params_state(params: Any) -> dict:
    """Generic frozen-dataclass encoder (enums by value, recursion for
    nested dataclasses)."""
    state = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            value = params_state(value)
        elif isinstance(value, Enum):
            value = value.value
        state[f.name] = value
    return state


def params_from_state(cls: type, state: dict) -> Any:
    """Inverse of :func:`params_state`.

    ``typing.get_type_hints`` resolves the stringified annotations that
    ``from __future__ import annotations`` leaves on the dataclasses.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = state[f.name]
        hint = hints[f.name]
        origin = typing.get_origin(hint)
        if origin is typing.Union:  # Optional[...]
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            hint = args[0] if len(args) == 1 else hint
        if value is None:
            pass
        elif dataclasses.is_dataclass(hint):
            value = params_from_state(hint, value)
        elif isinstance(hint, type) and issubclass(hint, Enum):
            value = hint(value)
        kwargs[f.name] = value
    return cls(**kwargs)


# -- owner registration ----------------------------------------------------

def _register_network_owners(ctx, network: Network) -> None:
    """Both contexts must register the same owner keys — callbacks in
    the event queue serialize as (owner key, method name)."""
    ctx.register_owner(("net",), network)
    control = getattr(network, "control", None)
    if control is not None:
        ctx.register_owner(("control",), control)


def _register_system_owners(ctx, sim) -> None:
    _register_network_owners(ctx, sim.chip.network)
    ctx.register_owner(("chip",), sim.chip)
    ctx.register_owner(("sim",), sim)
    for core in sim.cores:
        ctx.register_owner(("core", core.node), core)
    for llc in sim.chip.slices:
        ctx.register_owner(("slice", llc.node), llc)


def _network_class(network: Network) -> str:
    """Label recorded for humans inspecting snapshots; restore goes
    through ``build_network``, which dispatches on the saved params
    (``kind`` plus the ``topology`` spec) alone."""
    topo = network.params.topology
    if topo == "mesh":
        return network.params.kind.value
    return f"{network.params.kind.value}@{topo.split(':', 1)[0]}"


# -- network snapshots -----------------------------------------------------

def snapshot_network(
    network: Network, traffic: Optional[SyntheticTraffic] = None
) -> dict:
    """Snapshot a bare network (plus an optional synthetic workload)."""
    ctx = SaveContext()
    _register_network_owners(ctx, network)
    body = network.state_dict(ctx)
    snap = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "code_version": CODE_VERSION,
        "kind": "network",
        "network_class": _network_class(network),
        "params": params_state(network.params),
        "network": body,
        "registries": ctx.finalize(),
        "counters": {
            "next_pid": peek_next_pid(),
            "next_tid": peek_next_tid(),
        },
    }
    if traffic is not None:
        snap["traffic"] = traffic.state_dict()
    return snap


def _check_header(snap: dict, expected_kind: str) -> None:
    if not isinstance(snap, dict) or snap.get("format") != FORMAT:
        raise SnapshotError("not a repro checkpoint file")
    if snap.get("version") != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {snap.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if snap.get("code_version") != CODE_VERSION:
        raise SnapshotError(
            f"snapshot was written by code version "
            f"{snap.get('code_version')!r}, this build is {CODE_VERSION!r}"
        )
    if snap.get("kind") != expected_kind:
        raise SnapshotError(
            f"expected a {expected_kind!r} snapshot, got {snap.get('kind')!r}"
        )


def restore_network(
    snap: dict,
) -> Tuple[Network, Optional[SyntheticTraffic]]:
    """Rebuild a network (and its workload, if snapshotted) from a
    snapshot produced by :func:`snapshot_network`."""
    _check_header(snap, "network")
    with _loading_outside_data():
        params = params_from_state(NocParams, snap["params"])
        network = build_network(params)
        ctx = RestoreContext(network, snap["registries"])
        _register_network_owners(ctx, network)
        ctx.materialize()
        network.load_state(snap["network"], ctx)
        counters = snap["counters"]
        set_next_pid(counters["next_pid"])
        set_next_tid(counters["next_tid"])
        traffic = None
        if "traffic" in snap:
            traffic = SyntheticTraffic.from_state(network, snap["traffic"])
    return network, traffic


# -- system snapshots ------------------------------------------------------

def snapshot_system(sim) -> dict:
    """Snapshot a full :class:`~repro.perf.system.SystemSimulator`."""
    # A simulator that a restore replaced is held in reference cycles
    # (routers <-> network, ports <-> routers, ``chip.on_complete``
    # bound to the SystemSimulator), so only a full collection frees
    # it.  Collect before this snapshot's buffers are built, so a
    # snapshot -> restore loop holds one simulator, not two or three
    # dead ones under the transient dict and JSON.
    gc.collect()
    ctx = SaveContext()
    _register_system_owners(ctx, sim)
    body = sim.state_dict(ctx)
    return {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "code_version": CODE_VERSION,
        "kind": "system",
        "network_class": _network_class(sim.chip.network),
        "workload": sim.profile.name,
        "noc": sim.noc_kind.value,
        "chip_params": params_state(sim.params),
        "system": body,
        "registries": ctx.finalize(),
        "counters": {
            "next_pid": peek_next_pid(),
            "next_tid": peek_next_tid(),
        },
    }


def restore_system(snap: dict):
    """Rebuild a :class:`~repro.perf.system.SystemSimulator`."""
    from repro.params import NocKind
    from repro.perf.system import SystemSimulator

    _check_header(snap, "system")
    with _loading_outside_data():
        sim = SystemSimulator(
            snap["workload"],
            NocKind(snap["noc"]),
            chip_params=params_from_state(ChipParams, snap["chip_params"]),
        )
        ctx = RestoreContext(sim.chip.network, snap["registries"])
        _register_system_owners(ctx, sim)
        ctx.materialize()
        sim.load_state(snap["system"], ctx)
        counters = snap["counters"]
        set_next_pid(counters["next_pid"])
        set_next_tid(counters["next_tid"])
    return sim


# -- digests ---------------------------------------------------------------

def run_digest(sample, stats_summary: dict) -> str:
    """The golden-determinism digest of one system run (matches the form
    pinned in ``tests/test_golden_determinism.py``)."""
    payload = {"sample": sample.to_dict(), "stats": stats_summary}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()


# -- file I/O --------------------------------------------------------------

#: Level 1 is where the codec's wall time stops being gzip: ~15 % larger
#: files than the default level 9 for a tenth of the compression time.
_GZIP_LEVEL = 1
_GZIP_MAGIC = b"\x1f\x8b"


def write_snapshot(snap: dict, path: str) -> None:
    """Atomically write ``snap`` to ``path``, gzip-framed iff the name
    ends in ``.gz``.  ``mtime=0`` keeps the gzip header free of the wall
    clock, so equal state gives byte-equal files."""
    data = json.dumps(snap).encode()
    if path.endswith(".gz"):
        data = gzip.compress(data, compresslevel=_GZIP_LEVEL, mtime=0)
    atomic_write(path, data)


def read_snapshot(path: str) -> dict:
    """Read a snapshot file; gzip framing is sniffed from the content,
    not the name.  Any decode failure is a :class:`SnapshotError`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(
            f"{path}: cannot read snapshot ({exc.strerror or exc})"
        ) from exc
    try:
        if data.startswith(_GZIP_MAGIC):
            data = gzip.decompress(data)
        return json.loads(data)
    except (ValueError, EOFError, OSError, zlib.error) as exc:
        raise SnapshotError(f"{path}: damaged snapshot ({exc})") from exc
