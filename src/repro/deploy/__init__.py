"""Deployment-scale simulation: the Figs. 10-12 substrate."""

from .fleet import (
    ConferenceMetrics,
    ConferenceScorer,
    DEFAULT_PROFILES,
    FleetSampler,
    NetworkProfile,
    SampledClient,
    SampledConference,
    score_subscriber,
)
from .intervals import IntervalProcess, empirical_cdf
from .rollout import (
    DEPLOY_FULL,
    DEPLOY_START,
    DailyPoint,
    DeploymentSimulation,
    OBSERVATION_END,
    OBSERVATION_START,
    RolloutSchedule,
    improvement,
    normalize,
)
from .satisfaction import SatisfactionModel

__all__ = [
    "ConferenceMetrics",
    "ConferenceScorer",
    "DEFAULT_PROFILES",
    "DEPLOY_FULL",
    "DEPLOY_START",
    "DailyPoint",
    "DeploymentSimulation",
    "FleetSampler",
    "IntervalProcess",
    "NetworkProfile",
    "OBSERVATION_END",
    "OBSERVATION_START",
    "RolloutSchedule",
    "SampledClient",
    "SampledConference",
    "SatisfactionModel",
    "empirical_cdf",
    "improvement",
    "normalize",
    "score_subscriber",
]
