"""Typed control-plane events: the ingress vocabulary.

The paper's production controller is fed by a continuous stream of
control messages — SEMB bandwidth reports in, subscription and churn
changes from signaling, TMMBR configuration pushes out.  This module
types that stream for the event-driven plane:

* :class:`SembReport` — a meeting's periodic bandwidth/global-picture
  report (the Fig. 12 demand signal);
* :class:`LinkEstimate` — one client's bandwidth estimate moved (the
  world mutates, then the report follows);
* :class:`SubscriptionChange` — a subscriber re-requested its followed
  publishers at another resolution (speaker vs gallery view);
* :class:`PublisherJoin` / :class:`PublisherLeave` — membership churn.

Every event carries ``at_s`` (virtual seconds) and a stream-wide ``seq``
assigned by the generator, so a stream has one total order even when
timestamps collide — the same ``(time, sequence)`` discipline the
simulator heap and :class:`~repro.net.link.FaultyLink` delay buffer use.

:func:`generate_stream` builds a seeded stream against a
:class:`~repro.chaos.world.ChaosWorld` population.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # ingress -> chaos is typing-only (no runtime cycle)
    from ..chaos.world import ChaosWorld

#: Event kind tags (also the ``kind`` attr on ingress obs events).
KIND_SEMB = "semb"
KIND_LINK = "link_estimate"
KIND_SUBSCRIPTION = "subscription"
KIND_JOIN = "publisher_join"
KIND_LEAVE = "publisher_leave"

#: Every stream event kind, in documentation order.
ALL_STREAM_KINDS: Tuple[str, ...] = (
    KIND_SEMB,
    KIND_LINK,
    KIND_SUBSCRIPTION,
    KIND_JOIN,
    KIND_LEAVE,
)


@dataclass(frozen=True)
class StreamEvent:
    """Base class: one timed control-plane event for one meeting."""

    at_s: float
    meeting: str
    #: Stream-wide sequence number (total order at equal timestamps).
    seq: int = 0

    kind = "stream_event"


@dataclass(frozen=True)
class SembReport(StreamEvent):
    """A periodic SEMB/global-picture report reached ingress."""

    kind = KIND_SEMB


@dataclass(frozen=True)
class LinkEstimate(StreamEvent):
    """One client's link estimate changed (collapse or recovery)."""

    client: str = ""
    up_scale: float = 1.0
    down_scale: float = 1.0

    kind = KIND_LINK


@dataclass(frozen=True)
class SubscriptionChange(StreamEvent):
    """A subscriber flipped its requested resolution."""

    client: str = ""

    kind = KIND_SUBSCRIPTION


@dataclass(frozen=True)
class PublisherJoin(StreamEvent):
    """A new participant joined the meeting."""

    kind = KIND_JOIN


@dataclass(frozen=True)
class PublisherLeave(StreamEvent):
    """A participant left the meeting ("" = the world picks who)."""

    client: str = ""

    kind = KIND_LEAVE


class RejectedEvent(ValueError):
    """A backend's ``apply_event`` refused a malformed stream event; the
    message is the reason the plane counts and logs it under."""


@dataclass(frozen=True)
class StreamConfig:
    """Shape knobs of one generated event stream."""

    duration_s: float = 10.0
    #: Mean seconds between two SEMB reports of one meeting.
    report_interval_s: float = 1.0
    #: Uniform jitter applied to each report interval (fraction of it).
    report_jitter: float = 0.25
    #: Expected world-mutation events (link/subscription/churn) per
    #: meeting over the whole stream.
    mutations_per_meeting: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "duration_s", "report_interval_s", "mutations_per_meeting",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.report_interval_s <= 0:
            raise ValueError("report_interval_s must be positive")
        if not 0 <= self.report_jitter < 1:
            raise ValueError("report_jitter must be in [0, 1)")
        if self.mutations_per_meeting < 0:
            raise ValueError("mutations_per_meeting must be >= 0")


def sort_stream(events: Sequence[StreamEvent]) -> List[StreamEvent]:
    """The canonical stream order: ``(at_s, seq)``."""
    return sorted(events, key=lambda e: (e.at_s, e.seq))


def generate_stream(
    seed: int,
    world: "ChaosWorld",
    config: StreamConfig,
) -> List[StreamEvent]:
    """Build one seeded event stream over a chaos-world population.

    Per meeting, SEMB reports tick at a jittered ``report_interval_s``
    with a seeded phase offset (meetings do not report in lockstep), and
    ``mutations_per_meeting`` world-mutation events land at seeded times.
    All randomness comes from string-seeded private RNGs keyed by
    ``(seed, meeting_id)``, so the stream is independent of meeting
    iteration order and byte-stable per seed.
    """
    events: List[StreamEvent] = []
    for meeting_id in world.meeting_ids:
        rng = random.Random(f"ingress-stream:{seed}:{meeting_id}")
        t = rng.uniform(0.0, config.report_interval_s)
        while t < config.duration_s:
            events.append(SembReport(at_s=round(t, 6), meeting=meeting_id))
            jitter = 1.0 + config.report_jitter * (2.0 * rng.random() - 1.0)
            t += config.report_interval_s * jitter
        count = int(config.mutations_per_meeting)
        if rng.random() < config.mutations_per_meeting - count:
            count += 1
        clients = sorted(world.meeting(meeting_id).clients)
        for _ in range(count):
            at = round(rng.uniform(0.0, config.duration_s), 6)
            roll = rng.random()
            if roll < 0.4:
                events.append(
                    LinkEstimate(
                        at_s=at,
                        meeting=meeting_id,
                        client=rng.choice(clients),
                        up_scale=round(rng.uniform(0.3, 1.0), 3),
                        down_scale=round(rng.uniform(0.3, 1.0), 3),
                    )
                )
            elif roll < 0.7:
                events.append(
                    SubscriptionChange(
                        at_s=at,
                        meeting=meeting_id,
                        client=rng.choice(clients),
                    )
                )
            elif roll < 0.85:
                events.append(PublisherJoin(at_s=at, meeting=meeting_id))
            else:
                events.append(PublisherLeave(at_s=at, meeting=meeting_id))
    events.sort(key=lambda e: (e.at_s, e.meeting, e.kind))
    return [replace(e, seq=i) for i, e in enumerate(events)]
