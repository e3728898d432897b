"""Every parameter moves an output or is refused.

The walk perturbs each numeric and bool field of :class:`ChipParams`
and its nested dataclasses, numeric ones both ways (an int by +-1, a
float by x1.5 and x0.5).  Either construction raises ``ValueError``,
or a cheap fingerprint changes: Table I, Fig. 8's area, NOC and chip
power at a fixed activity, or a short full-system digest on each
organization that reads the field's dataclass.  A field that moves
Table I and nothing else is display-only and must be listed in
``DISPLAY_ONLY``; no other field may get by on Table I alone.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache, reduce
from typing import Dict, List, Tuple

import pytest

from repro.checkpoint import run_digest
from repro.harness.figures import figure8, table1
from repro.params import (
    ChipParams,
    NocKind,
    NocParams,
    PraParams,
    SmartParams,
)
from repro.perf.system import SystemSimulator
from repro.physical import chip_power, noc_power

#: Fields Table I echoes but no model reads.
DISPLAY_ONLY = {
    # The 32 nm node is baked into every physical constant
    # (repro.physical), none of which scales with it.
    "technology.node_nm",
    # Power uses the paper's energies at 0.9 V as given, not a CV^2 law.
    "technology.vdd",
    # The core model (repro.perf.core_model) is a sampled-MLP stall
    # model, not an out-of-order pipeline: it has no decode stage, ROB
    # or LSQ to size.
    "core.decode_width",
    "core.rob_entries",
    "core.lsq_entries",
}

#: Selectors, not sizes: the organization and topology tests cover them.
SELECTORS = {"noc.kind", "noc.topology"}

#: The organizations whose simulation reads a dataclass; a field of any
#: other dataclass is simulated on the plain mesh.
_READERS = {
    PraParams: (NocKind.MESH_PRA,),
    SmartParams: (NocKind.SMART,),
    NocParams: (NocKind.MESH, NocKind.IDEAL),
}

_WARMUP, _MEASURE = 100, 200


def _leaves(obj, prefix: str = "") -> List[Tuple[str, type]]:
    """``(dotted path, owning dataclass)`` of every scalar field."""
    leaves = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        path = prefix + f.name
        if dataclasses.is_dataclass(value):
            leaves += _leaves(value, path + ".")
        elif isinstance(value, (bool, int, float)):
            leaves.append((path, type(obj)))
    return leaves


def _perturbed(obj, names: List[str], up: bool = True):
    """A copy of ``obj`` with the field at ``names`` nudged up or down."""
    name, rest = names[0], names[1:]
    value = getattr(obj, name)
    if rest:
        new = _perturbed(value, rest, up)
    elif isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + 1 if up else value - 1
    else:
        new = value * (1.5 if up else 0.5)
    return dataclasses.replace(obj, **{name: new})


def _static_parts(chip: ChipParams) -> Dict[str, object]:
    """The outputs that cost no simulation."""
    noc = [
        noc_power(chip, flit_hops=10_000, cycles=1_000, kind=kind,
                  control_packets=500)
        for kind in (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA)
    ]
    return {
        "table1": table1(chip)["rows"],
        "figure8": figure8(chip)["rows"],
        "power": (noc, chip_power(chip, noc[0])),
    }


def _sim_digest(chip: ChipParams, kind: NocKind) -> str:
    sim = SystemSimulator("Web Search", kind,
                          chip_params=chip.with_noc_kind(kind), seed=1)
    sample = sim.run_sample(warmup=_WARMUP, measure=_MEASURE)
    return run_digest(sample, sim.chip.network.stats.summary())


@lru_cache(maxsize=None)
def _base_digest(kind: NocKind) -> str:
    return _sim_digest(ChipParams(), kind)


def _moved(path: str, owner: type, chip: ChipParams) -> List[str]:
    """The fingerprint parts that differ between ``ChipParams()`` and
    ``chip``, its perturbation at ``path``.

    Cheap parts come first, and simulation stops at the first moved
    output beyond Table I, except for a display-only field, which must
    be shown to move nothing else.
    """
    base, new = _static_parts(ChipParams()), _static_parts(chip)
    moved = [part for part in base if base[part] != new[part]]
    for kind in _READERS.get(owner, (NocKind.MESH,)):
        if path not in DISPLAY_ONLY and set(moved) - {"table1"}:
            break
        if _sim_digest(chip, kind) != _base_digest(kind):
            moved.append(f"sim:{kind.value}")
    return moved


_FIELDS = [(path, owner) for path, owner in _leaves(ChipParams())
           if path not in SELECTORS]

#: The numeric fields: a bool has no second direction to walk.
_NUMERIC = [(path, owner) for path, owner in _FIELDS
            if not isinstance(reduce(getattr, path.split("."), ChipParams()),
                              bool)]


def _walk(path: str, owner: type, up: bool) -> None:
    try:
        chip = _perturbed(ChipParams(), path.split("."), up)
    except ValueError as err:
        # Refused at construction, by a message that names the field.
        assert path.rsplit(".", 1)[1] in str(err)
        return
    moved = _moved(path, owner, chip)
    if path in DISPLAY_ONLY:
        assert moved == ["table1"], f"{path} is not display-only: {moved}"
    else:
        assert set(moved) - {"table1"}, (
            f"{path} moves {moved or 'nothing'}: delete it, derive it, "
            f"or refuse the values it cannot honour"
        )


@pytest.mark.parametrize("path,owner", _FIELDS,
                         ids=[path for path, _ in _FIELDS])
def test_every_parameter_moves_an_output_or_is_refused(path, owner):
    _walk(path, owner, up=True)


@pytest.mark.parametrize("path,owner", _NUMERIC,
                         ids=[path for path, _ in _NUMERIC])
def test_every_parameter_moved_down_moves_an_output_or_is_refused(
        path, owner):
    _walk(path, owner, up=False)


def test_the_walk_sees_every_dataclass():
    owners = {owner.__name__ for _, owner in _FIELDS}
    assert owners == {
        "TechnologyParams", "CoreParams", "CacheParams", "MemoryParams",
        "RouterParams", "PraParams", "SmartParams", "NocParams",
    }
