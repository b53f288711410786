"""Fleet placement: load-aware meeting packing, live migration, and
SLO-driven shard autoscaling (the *Tetris* layer above ``cluster/``).

See ``docs/PLACEMENT.md`` for the full design.
"""

from .loadmodel import (
    DEFAULT_MEETING_COST,
    LoadSignals,
    ShardLoadModel,
    load_signals,
    meeting_cost,
)
from .policies import (
    POLICIES,
    POLICY_BEST_FIT,
    POLICY_HASH,
    POLICY_LEAST_LOADED,
    BestFitPolicy,
    HashPolicy,
    LeastLoadedPolicy,
    PlacementPolicy,
    get_policy,
)
from .migration import HotShardDetector, RebalanceResult
from .autoscaler import AutoscaleAction, AutoscalerConfig, ShardAutoscaler

__all__ = [
    "DEFAULT_MEETING_COST",
    "LoadSignals",
    "ShardLoadModel",
    "load_signals",
    "meeting_cost",
    "POLICIES",
    "POLICY_BEST_FIT",
    "POLICY_HASH",
    "POLICY_LEAST_LOADED",
    "BestFitPolicy",
    "HashPolicy",
    "LeastLoadedPolicy",
    "PlacementPolicy",
    "get_policy",
    "HotShardDetector",
    "RebalanceResult",
    "AutoscaleAction",
    "AutoscalerConfig",
    "ShardAutoscaler",
]
