"""Sharded controller cluster: hosting many meetings behind one solve
service (consistent-hash sharding, the Fig. 12 pacing envelope,
per-meeting last-solve memo, plane-wide admission budget).
"""

from .cluster import (
    ClusterConfig,
    ControllerCluster,
    LastSolveMemo,
    MeetingRecord,
    ServedSolution,
    ShardWorker,
    SOURCE_CACHE,
    SOURCE_FALLBACK,
    SOURCE_SHED,
    SOURCE_SOLVE,
)
from .hashring import ConsistentHashRing, moved_keys, stable_hash
from .scheduler import (
    TRIGGER_EVENT,
    TRIGGER_REHOME,
    TRIGGER_SYNC,
    TRIGGER_TIME,
    backpressure_window_s,
)

__all__ = [
    "ClusterConfig",
    "ConsistentHashRing",
    "ControllerCluster",
    "LastSolveMemo",
    "MeetingRecord",
    "ServedSolution",
    "ShardWorker",
    "SOURCE_CACHE",
    "SOURCE_FALLBACK",
    "SOURCE_SHED",
    "SOURCE_SOLVE",
    "TRIGGER_EVENT",
    "TRIGGER_REHOME",
    "TRIGGER_SYNC",
    "TRIGGER_TIME",
    "backpressure_window_s",
    "moved_keys",
    "stable_hash",
]
