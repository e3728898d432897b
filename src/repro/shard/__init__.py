"""Sharded parallel simulation of one large mesh.

One scenario, cut into contiguous row stripes, stepped by cooperating
workers that exchange boundary flits, credits, and VC grants under a
conservative sub-cycle dependency rule (:mod:`repro.shard.domain`) —
with statistics bit-identical to the serial simulator (the
golden-digest tests are the oracle).

Entry point: :func:`repro.shard.engine.run_sharded`.
"""

from repro.shard.engine import ShardResult, run_sharded, summary_digest
from repro.shard.merge import merge_stats
from repro.shard.spec import (GOLDEN_SPEC, ShardError, SyntheticSpec,
                              WorkerFailure, plan_shards,
                              serial_fallback_reason)

__all__ = [
    "GOLDEN_SPEC",
    "ShardError",
    "ShardResult",
    "SyntheticSpec",
    "WorkerFailure",
    "merge_stats",
    "plan_shards",
    "run_sharded",
    "serial_fallback_reason",
    "summary_digest",
]
