"""Sharded admission engine: fan one trace across decomposition cut lines.

Layering (bottom-up):

* :mod:`~repro.sharding.planner` — :class:`ShardPlanner` /
  :class:`ShardPlan`: partition a problem's edges along Section-4
  decomposition cut lines (balancer subtrees or depth layers; timeline
  blocks on lines), classify demands as shard-local or cut-crossing,
  and materialize per-shard sub-problems and sub-traces;
* :mod:`~repro.sharding.streaming` — :class:`StreamedShardedDriver`,
  the one sharded driver: one shared conflict-index build serving every
  shard (:class:`SharedGeometry` + sliced views), phase-A shard replays
  inline or in fork workers, then the absorb hand-off and the
  serialized boundary pass on the coordinator, merged and verified into
  a :class:`StreamedReplayResult`.
"""

from .planner import SHARD_STRATEGIES, ShardPlan, ShardPlanner
from .streaming import (SharedGeometry, StreamedReplayResult,
                        StreamedShardedDriver)

__all__ = [
    "SHARD_STRATEGIES",
    "ShardPlan",
    "ShardPlanner",
    "SharedGeometry",
    "StreamedReplayResult",
    "StreamedShardedDriver",
]
