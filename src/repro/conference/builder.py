"""Meeting scenario specification.

A :class:`MeetingSpec` fully describes one simulated conference: the
participants and their network paths (with optional mid-run bandwidth
traces), the subscription graph, and the orchestration scheme to run
("gso", "nongso", "competitor1", "competitor2").  The
:class:`~repro.conference.runner.MeetingRunner` materializes a spec into a
wired simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.types import ClientId, PAPER_RESOLUTIONS, Resolution
from ..net.trace import BandwidthTrace

#: Orchestration schemes the runner knows how to build.
MODES = ("gso", "nongso", "competitor1", "competitor2")


@dataclass
class ClientSpec:
    """One participant and its access network.

    Attributes:
        client_id: participant id.
        uplink_kbps / downlink_kbps: access-link capacities.
        propagation_ms: one-way path delay per direction.
        jitter_ms: mean exponential per-packet jitter (both directions).
        loss_rate: i.i.d. loss probability (both directions).
        publishes: whether the client sends video.
        uplink_trace / downlink_trace: optional capacity schedules.
        region: which accessing node the client is homed on; clients in
            different regions exchange media over inter-node relay links
            (the paper's interconnected media plane).
        join_at_s: when the participant joins (0 = from the start).
        leave_at_s: when the participant leaves (None = stays).
    """

    client_id: ClientId
    uplink_kbps: float = 5_000.0
    downlink_kbps: float = 5_000.0
    propagation_ms: float = 20.0
    jitter_ms: float = 0.0
    loss_rate: float = 0.0
    publishes: bool = True
    uplink_trace: Optional[BandwidthTrace] = None
    downlink_trace: Optional[BandwidthTrace] = None
    region: str = "region0"
    join_at_s: float = 0.0
    leave_at_s: Optional[float] = None


@dataclass
class MeetingSpec:
    """One complete meeting scenario.

    Attributes:
        clients: the participants.
        subscriptions: explicit (subscriber, publisher, max_resolution)
            triples; ``None`` means a full mesh at 720p.
        mode: orchestration scheme (see :data:`MODES`).
        duration_s: simulated meeting length.
        warmup_s: initial span excluded from metrics (ramp-up).
        levels_per_resolution: ladder depth for GSO (baselines use the
            coarse 3-layer template ladder regardless).
        resolutions: simulcast resolutions every publisher negotiates.
        seed: randomness seed (loss/jitter processes).
        inter_node_kbps: capacity of each inter-node relay link.
        inter_node_ms: one-way delay between accessing nodes.
    """

    clients: List[ClientSpec]
    subscriptions: Optional[List[Tuple[ClientId, ClientId, Resolution]]] = None
    mode: str = "gso"
    duration_s: float = 30.0
    warmup_s: float = 8.0
    levels_per_resolution: int = 5
    resolutions: Tuple[Resolution, ...] = PAPER_RESOLUTIONS
    seed: int = 1
    inter_node_kbps: float = 200_000.0
    inter_node_ms: float = 40.0
    #: (time_s, client_id) active-speaker changes (GSO mode only; empty
    #: string clears the speaker).
    speaker_schedule: List[Tuple[float, ClientId]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick from {MODES}")
        if self.duration_s <= self.warmup_s:
            raise ValueError("duration must exceed warmup")
        ids = [c.client_id for c in self.clients]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate client ids")
        if self.inter_node_kbps <= 0 or self.inter_node_ms < 0:
            raise ValueError("invalid inter-node link parameters")
        for c in self.clients:
            if c.join_at_s < 0:
                raise ValueError(f"{c.client_id}: join_at_s must be >= 0")
            if c.leave_at_s is not None and c.leave_at_s <= c.join_at_s:
                raise ValueError(
                    f"{c.client_id}: leave_at_s must follow join_at_s"
                )

    @property
    def regions(self) -> List[str]:
        """Distinct regions, in first-appearance order."""
        seen: List[str] = []
        for c in self.clients:
            if c.region not in seen:
                seen.append(c.region)
        return seen

    def resolved_subscriptions(
        self,
    ) -> List[Tuple[ClientId, ClientId, Resolution]]:
        """The explicit subscription list (full mesh when unspecified)."""
        if self.subscriptions is not None:
            return list(self.subscriptions)
        publishers = [c.client_id for c in self.clients if c.publishes]
        return [
            (sub.client_id, pub, Resolution.P720)
            for sub in self.clients
            for pub in publishers
            if pub != sub.client_id
        ]


def full_mesh_meeting(
    n_clients: int,
    uplink_kbps: float = 5_000.0,
    downlink_kbps: float = 5_000.0,
    mode: str = "gso",
    duration_s: float = 30.0,
    **kwargs,
) -> MeetingSpec:
    """Convenience constructor: a symmetric n-party mesh meeting."""
    clients = [
        ClientSpec(
            client_id=f"C{k}",
            uplink_kbps=uplink_kbps,
            downlink_kbps=downlink_kbps,
        )
        for k in range(n_clients)
    ]
    return MeetingSpec(
        clients=clients, mode=mode, duration_s=duration_s, **kwargs
    )
