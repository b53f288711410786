"""Admission control: a solves-in-flight limit that sheds load instead of lag.

A controller shard that falls behind must not stall its meetings — a
late stream configuration is worth little, and Sec. 7's design-for-failure
rule ("the service could continue, however, at the cost of reduced QoE")
applies to overload exactly as it does to crashes.  The admission
controller caps how many solves a shard has in flight at once; the
ingress plane **sheds** decisions beyond the cap: the affected meeting is
served the cheap :func:`~repro.control.failover.single_stream_fallback`
configuration instead of a full KMR solve, and retried on its next
trigger.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import names as obs_names
from ..obs.registry import get_registry


@dataclass
class AdmissionStats:
    """Load-shedding accounting of one shard."""

    admitted: int = 0
    shed: int = 0

    @property
    def total(self) -> int:
        """All requests that reached admission."""
        return self.admitted + self.shed


class AdmissionController:
    """In-flight solve budget of one shard.

    Args:
        max_solves_per_round: how many full KMR solves one shard may have
            in flight at once; decisions beyond it degrade to fallback.
    """

    def __init__(self, max_solves_per_round: int = 64) -> None:
        if max_solves_per_round < 1:
            raise ValueError("max_solves_per_round must be >= 1")
        self.max_solves_per_round = max_solves_per_round
        self.stats = AdmissionStats()

    def over_budget(self, in_flight: int) -> bool:
        """Whether one more solve would exceed the concurrent budget."""
        return in_flight >= self.max_solves_per_round

    def admit_one(self) -> None:
        """Account one admitted solve."""
        self.stats.admitted += 1

    def shed_one(self) -> None:
        """Account one shed decision (and bump the shed metric)."""
        self.stats.shed += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter(obs_names.CLUSTER_SHED).inc()
