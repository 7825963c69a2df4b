"""Distributed shard planning, execution and exact merging.

Split any sweep or Monte-Carlo job into deterministic, self-describing
shards; run them in local processes or on any host sharing the job
directory; merge the content-keyed result files back into an object
**byte-identical** to the single-host run.  See ``README.md``
("Distributed sweeps") for the plan → run → merge data flow.
"""

from repro.dist.lease import DEFAULT_LEASE_TTL_S, Lease
from repro.dist.manifest import (
    LaunchReport,
    completed_keys,
    load_job,
    pending_shards,
    record_completion,
    status,
    validate_result,
    write_job,
)
from repro.dist.merge import job_telemetry, merge_results
from repro.dist.planner import plan_mc_shards, plan_request, plan_sweep_shards
from repro.dist.runner import run_shard, run_shard_file
from repro.dist.spec import (
    ShardPlan,
    ShardSpec,
    content_key,
    split_even,
)
from repro.dist.supervisor import ShardFailure, ShardJobError, launch

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "LaunchReport",
    "Lease",
    "ShardFailure",
    "ShardJobError",
    "ShardPlan",
    "ShardSpec",
    "completed_keys",
    "content_key",
    "job_telemetry",
    "launch",
    "load_job",
    "merge_results",
    "pending_shards",
    "plan_mc_shards",
    "plan_request",
    "plan_sweep_shards",
    "record_completion",
    "run_shard",
    "run_shard_file",
    "split_even",
    "status",
    "validate_result",
    "write_job",
]
