"""Sharded parallel execution: multi-worker ingest and simulation.

The pipeline's fan-out layer. :class:`ShardPlan` partitions work into
disjoint, deterministic shards; :func:`run_sharded` executes a worker
function over the shards in a forked process pool (payload delivered by
fork inheritance, per-worker telemetry snapshots merged back into the
parent registry, failures re-raised as :class:`ShardError` naming the
failed shard's keys). The CLI's global ``--workers`` flag drives two
fan-outs: the ``read_*_parallel`` readers and campaign simulation
(:func:`repro.netsim.simulate_regions`). Scoring always runs
in-process: sharding it by region showed no resolved end-to-end
wall-clock win (docs/deployment.md, "Sizing ``--workers``"). Parallel
output is bit-identical to serial output by construction — see each
module's docstring for the argument.
"""

from .ingest import (
    read_csv_parallel,
    read_jsonl_parallel,
    split_line_ranges,
)
from .plan import ShardPlan
from .pool import ShardError, fork_available, run_sharded

__all__ = [
    "ShardPlan",
    "ShardError",
    "fork_available",
    "run_sharded",
    "read_jsonl_parallel",
    "read_csv_parallel",
    "split_line_ranges",
]
