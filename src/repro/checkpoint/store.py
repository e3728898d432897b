"""Content-addressed on-disk store for finished evaluation-grid cells.

Each cell (one ``(scale, workload, noc kind, seed)`` sample) is keyed by
the sha256 of its canonical-JSON key payload — which includes the
parameter hash and the code version, so stale results never resurface
after a behavior change.  Writes are atomic (tmp file + ``os.replace``),
so concurrent sweep processes can share one store directory; a corrupt
or truncated cell reads as a miss and is simply recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Optional


def cell_key(payload: Any) -> str:
    """Content-addressed key: sha256 of the canonical JSON form."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a tmp file in the same
    directory and ``os.replace``: a reader (or a crash) sees the old
    file or the new one, never a truncated one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CellStore:
    """Filesystem-backed map from cell key to JSON payload."""

    def __init__(self, root: str):
        self.root = str(root)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The stored payload, or None on a miss (including a corrupt
        or half-written file)."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write(path, json.dumps(payload).encode())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count
