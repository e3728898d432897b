"""Run configuration: one frozen value, resolved once, passed explicitly.

A :class:`RunConfig` holds every setting of a simulation sweep that is
not part of the simulated chip itself.  It is resolved exactly once per
entry — ``python -m repro`` builds it from the environment plus its
flags, a library call made without ``config=`` builds it from the
environment at call time — and then travels as an argument: into the
figure functions, into :func:`repro.harness.runner.evaluation_grid`,
and (the wall budget) inside every task the grid hands to a pool
worker.  :meth:`RunConfig.from_env` is the only code under ``src/``
that reads ``os.environ``; nothing writes it.

==================== ============== ==============================
environment variable field          meaning
==================== ============== ==============================
``REPRO_SCALE``      ``scale``      ``smoke`` | ``default`` | ``full``
``REPRO_JOBS``       ``jobs``       grid worker processes
                                    (``0`` = one per CPU)
``REPRO_CELL_STORE`` ``cell_store`` directory persisting finished
                                    grid cells (unset: none)
``REPRO_WALL_LIMIT`` ``wall_limit`` per-cell wall-clock budget in
                                    seconds (unset: none)
==================== ============== ==============================

An unset or blank variable leaves the field at its default; anything
else that does not parse raises a :class:`ValueError` naming the
variable, which the CLI turns into exit 2.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional


@dataclass(frozen=True)
class EvaluationScale:
    """Simulation lengths for one quality preset."""

    name: str
    warmup: int
    measure: int
    num_seeds: int


SCALES = {
    "smoke": EvaluationScale("smoke", warmup=300, measure=1500, num_seeds=1),
    "default": EvaluationScale("default", warmup=1000, measure=5000,
                               num_seeds=1),
    "full": EvaluationScale("full", warmup=2000, measure=10000, num_seeds=3),
}


def _scale_name(raw, source: str) -> str:
    if raw not in SCALES:
        raise ValueError(
            f"unknown {source} {raw!r}; choose from {sorted(SCALES)}"
        )
    return raw


def parse_worker_count(raw, source: str) -> int:
    """Validate a worker count the way ``NocParams`` validates CLI
    input: a clear :class:`ValueError` naming the knob instead of a raw
    traceback from deep inside pool setup.

    ``0`` means "one per CPU"; any positive integer is taken literally.
    """
    try:
        count = int(raw)
    except (TypeError, ValueError):
        count = -1
    if count < 0:
        raise ValueError(
            f"{source} must be a non-negative integer "
            f"(0 = one per CPU), got {raw!r}"
        )
    return count or os.cpu_count() or 1


def _store_path(raw, source: str) -> Optional[str]:
    """The store directory is made on first use, so its nearest existing
    ancestor must be a directory."""
    if raw is None:
        return None
    path = os.fspath(raw)
    ancestor = os.path.abspath(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ValueError(
            f"{source} {path!r} cannot be a directory: {ancestor!r} is "
            f"not one"
        )
    return path


def _wall_seconds(raw, source: str) -> Optional[float]:
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = 0.0
    if not value > 0:
        raise ValueError(
            f"{source} must be a positive number of seconds, got {raw!r}"
        )
    return value


#: (field, environment variable, parser).  A parser takes the raw value
#: and the name to blame in its error message: the variable when the
#: value came from the environment, the field otherwise.
_FIELDS = (
    ("scale", "REPRO_SCALE", _scale_name),
    ("jobs", "REPRO_JOBS", parse_worker_count),
    ("cell_store", "REPRO_CELL_STORE", _store_path),
    ("wall_limit", "REPRO_WALL_LIMIT", _wall_seconds),
)


@dataclass(frozen=True)
class RunConfig:
    """The settings of one sweep (see the module docstring's table).

    Frozen, hashable, and picklable, so the same value means the same
    thing in the parent and in a spawn-start pool worker.  Override
    fields with :func:`dataclasses.replace`; construction validates, so
    an invalid combination never exists.
    """

    scale: str = "default"
    #: Resolved worker count: ``RunConfig(jobs=0).jobs`` is the CPU
    #: count.  ``1`` runs the grid in-process.
    jobs: int = 1
    cell_store: Optional[str] = None
    wall_limit: Optional[float] = None

    def __post_init__(self):
        for name, _variable, parse in _FIELDS:
            object.__setattr__(self, name, parse(getattr(self, name), name))

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "RunConfig":
        """The configuration ``environ`` describes."""
        values = {}
        for name, variable, parse in _FIELDS:
            raw = environ.get(variable)
            if raw is not None and raw.strip():
                values[name] = parse(raw, variable)
        return cls(**values)


def get_scale(name: Optional[str] = None) -> EvaluationScale:
    """Resolve a scale by name (``None``: the ``REPRO_SCALE`` variable)."""
    if not name:
        return SCALES[RunConfig.from_env().scale]
    return SCALES[_scale_name(name, "scale")]
