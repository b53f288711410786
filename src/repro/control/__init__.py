"""Control plane: conference node, feedback, failover (the controller
backend is imported from :mod:`repro.control.gso_controller`)."""

from .conference_node import (
    ConferenceNode,
    ConferenceNodeConfig,
    ParticipantState,
)
from .failover import single_stream_fallback
from .feedback import FeedbackExecutor, FeedbackStats

__all__ = [
    "ConferenceNode",
    "ConferenceNodeConfig",
    "FeedbackExecutor",
    "FeedbackStats",
    "ParticipantState",
    "single_stream_fallback",
]
