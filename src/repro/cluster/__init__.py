"""Sharded controller cluster: hosting many meetings behind one solve
service (consistent-hash sharding, the Fig. 12 pacing envelope,
fingerprint cache, admission control).
"""

from .admission import AdmissionController, AdmissionStats
from .cache import CacheStats, SolutionCache
from .cluster import (
    ClusterConfig,
    ControllerCluster,
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
    "AdmissionController",
    "AdmissionStats",
    "CacheStats",
    "ClusterConfig",
    "ConsistentHashRing",
    "ControllerCluster",
    "MeetingRecord",
    "ServedSolution",
    "ShardWorker",
    "SolutionCache",
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
