"""Checkpointable simulator state (see docs/simulator_internals.md).

Every stateful component implements ``state_dict()``/``load_state()``;
this package supplies the reference codec that ties the per-component
states together, the versioned snapshot file format, and the on-disk
cell store that makes the evaluation grid resumable.
"""

from repro.checkpoint.codec import (
    CODE_VERSION,
    RestoreContext,
    SaveContext,
    rng_state,
    set_rng_state,
)
from repro.checkpoint.snapshot import (
    FORMAT,
    FORMAT_VERSION,
    SnapshotError,
    params_from_state,
    params_state,
    read_snapshot,
    restore_network,
    restore_system,
    run_digest,
    snapshot_network,
    snapshot_system,
    write_snapshot,
)
from repro.checkpoint.store import CellStore, cell_key

__all__ = [
    "CODE_VERSION",
    "FORMAT",
    "FORMAT_VERSION",
    "CellStore",
    "RestoreContext",
    "SaveContext",
    "SnapshotError",
    "cell_key",
    "params_from_state",
    "params_state",
    "read_snapshot",
    "restore_network",
    "restore_system",
    "rng_state",
    "run_digest",
    "set_rng_state",
    "snapshot_network",
    "snapshot_system",
    "write_snapshot",
]
