"""Staged S-Node build pipeline: stages, checkpoints, shards, workers.

Public surface:

* :class:`~repro.snode.pipeline.core.BuildPipeline` — the staged,
  checkpointed, resumable builder behind ``build_snode``;
* :data:`~repro.snode.pipeline.core.STAGES` — stage names in order;
* :func:`~repro.snode.pipeline.pool.resolve_workers` — worker-count
  validation;
* the shard layer (:mod:`~repro.snode.pipeline.shard`) — picklable
  encode tasks for the ``multiprocessing`` fan-out.
"""

from repro.snode.pipeline.core import STAGES, BuildPipeline, StageRun
from repro.snode.pipeline.pool import resolve_workers, run_shards
from repro.snode.pipeline.shard import (
    EncodedUnit,
    ShardResult,
    ShardTask,
    encode_shard,
    install_model,
    plan_shards,
)

__all__ = [
    "BuildPipeline",
    "STAGES",
    "StageRun",
    "resolve_workers",
    "run_shards",
    "ShardTask",
    "ShardResult",
    "EncodedUnit",
    "encode_shard",
    "install_model",
    "plan_shards",
]
