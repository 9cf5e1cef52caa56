"""Sharded scatter-gather execution.

The paper's experiments are single-node; this package is the scale-out
layer on top of them.  A corpus is partitioned across N shards by
region-label ranges so that every structural join is shard-local
(:mod:`repro.shard.partition`), each shard is a full durable
:class:`~repro.api.Database` served by its own worker process
(:mod:`repro.shard.worker`), a coordinator plans once against merged
statistics and fans the identical plan out to every shard
(:mod:`repro.shard.coordinator`), and the per-shard results, each in
the plan's order, are merged back into the single node's rows in the
single node's order (:class:`repro.shard.sharded.ShardedDatabase`).
"""

from repro.shard.partition import ShardAssignment, ShardPartition, \
    partition_document
from repro.shard.coordinator import ShardWorkerPool
from repro.shard.sharded import ShardedDatabase

__all__ = ["ShardAssignment", "ShardPartition", "partition_document",
           "ShardWorkerPool", "ShardedDatabase"]
