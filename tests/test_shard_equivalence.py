"""Serial-vs-sharded equivalence: the golden digests are the oracle.

A sharded run of the pinned golden scenario must produce the exact
stats digest of the serial simulator — for every organization (the
non-mesh ones via the documented serial fallback), for every shard
count, with observers attached, through a mid-run merged checkpoint,
and on both the inline and worker-process backends.  Any divergence in
the boundary-exchange protocol, the conservative clock discipline, or
the snapshot merge shows up here as a digest mismatch.
"""

from __future__ import annotations

import pytest

from repro.noc.topology import MeshTopology
from repro.params import NocKind
from repro.shard import (
    GOLDEN_SPEC,
    SyntheticSpec,
    plan_shards,
    run_sharded,
    summary_digest,
)
from tests.test_golden_determinism import ALL_KINDS, GOLDEN_NETWORK

SHARD_COUNTS = (1, 2, 4)


def _spec(kind: NocKind) -> SyntheticSpec:
    return GOLDEN_SPEC if kind is NocKind.MESH else SyntheticSpec(kind=kind)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_sharded_run_matches_serial_golden_digest(kind, shards):
    result = run_sharded(_spec(kind), shards)
    assert result.digest == GOLDEN_NETWORK[kind]
    if kind is NocKind.MESH and shards > 1:
        assert result.backend == "inline"
        assert result.shards == shards
        assert result.fallback_reason is None
    else:
        # Non-mesh organizations (and shards=1) take the serial path,
        # with a reason recorded whenever the request was downgraded.
        assert result.backend == "serial"
        assert result.shards == 1
        assert (result.fallback_reason is None) == (
            shards == 1 or kind is NocKind.MESH
        )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_observers_do_not_perturb_sharded_runs(kind, shards):
    """Tracer + invariant suite attached to every shard must be inert,
    exactly as they are on the serial simulator."""
    result = run_sharded(_spec(kind), shards, observers="tracing")
    assert result.digest == GOLDEN_NETWORK[kind]


def test_mid_run_checkpoint_merges_and_restores():
    """A merged snapshot taken at a cycle barrier of a 4-shard run must
    restore into a *serial* network that finishes on the golden digest
    — and taking it must not perturb the sharded run itself."""
    from repro.checkpoint.snapshot import restore_network

    result = run_sharded(GOLDEN_SPEC, 4, checkpoint_at=400)
    assert result.digest == GOLDEN_NETWORK[NocKind.MESH]
    assert result.checkpoint is not None

    net, traffic = restore_network(result.checkpoint)
    assert net.cycle == 400
    traffic.run(GOLDEN_SPEC.cycles - 400)
    net.drain(max_cycles=GOLDEN_SPEC.drain)
    assert summary_digest(net.stats.summary()) == GOLDEN_NETWORK[NocKind.MESH]


def test_checkpoint_with_observers_attached():
    result = run_sharded(GOLDEN_SPEC, 2, observers="tracing",
                         checkpoint_at=400)
    assert result.digest == GOLDEN_NETWORK[NocKind.MESH]
    assert result.checkpoint is not None
    assert result.checkpoint["network"]["cycle"] == 400


def test_process_backend_matches_inline():
    result = run_sharded(GOLDEN_SPEC, 2, backend="process")
    assert result.digest == GOLDEN_NETWORK[NocKind.MESH]
    assert result.backend == "process"


def test_shard_count_clamps_to_mesh_height():
    # The golden mesh is 8 rows tall; 16 shards clamp to 8 and still
    # reproduce the serial digest.
    result = run_sharded(GOLDEN_SPEC, 16)
    assert result.shards == 8
    assert "clamped to 8" in result.fallback_reason
    assert result.digest == GOLDEN_NETWORK[NocKind.MESH]


# -- planning and plumbing -------------------------------------------------


def test_plan_shards_rejects_non_positive_counts():
    with pytest.raises(ValueError, match="must be positive"):
        plan_shards(GOLDEN_SPEC.params(), 0)


def test_plan_shards_reports_non_mesh_fallback():
    effective, reason = plan_shards(SyntheticSpec(kind=NocKind.SMART).params(),
                                    4)
    assert effective == 1
    assert "only the baseline mesh shards" in reason


def test_run_sharded_validates_arguments():
    with pytest.raises(ValueError, match="backend must be"):
        run_sharded(GOLDEN_SPEC, 2, backend="threads")
    with pytest.raises(ValueError, match="observers must be"):
        run_sharded(GOLDEN_SPEC, 2, observers="all")
    with pytest.raises(ValueError, match="checkpoint_at must be"):
        run_sharded(GOLDEN_SPEC, 2, checkpoint_at=GOLDEN_SPEC.cycles + 1)
    with pytest.raises(ValueError, match="checkpoint_at must be"):
        run_sharded(GOLDEN_SPEC, 1, checkpoint_at=-1)


def test_row_domains_partition_the_mesh():
    topo = MeshTopology(8, 8)
    assert topo.row_domains(1) == [(0, 63)]
    domains = topo.row_domains(3)
    # Contiguous, ordered, and covering every node exactly once.
    assert domains[0][0] == 0 and domains[-1][1] == 63
    for (_, last), (first, _) in zip(domains, domains[1:]):
        assert first == last + 1
    # Row-aligned: every boundary falls on a row edge.
    assert all((last + 1) % 8 == 0 for _, last in domains[:-1])
    with pytest.raises(ValueError, match="cannot cut"):
        topo.row_domains(9)
    with pytest.raises(ValueError, match="cannot cut"):
        topo.row_domains(0)
