"""Template-based uplink stream policies — the non-GSO baseline behaviour.

State-of-the-art simulcast (Sec. 1) drives publishers with template
policies: "the uplink policy and downlink policy are isolated, where a
publisher decides what to push based on his/her local view of the upstream
network and the video resolution captured", with 2-3 coarse bitrate levels
and adaptation rules tuned per participant-count bucket.

:class:`TemplateUplinkPolicy` reproduces that behaviour (modelled on the
Amazon Chime / Chromium simulcast allocators the paper cites): given only
the *local* uplink estimate and the participant count, it decides which of
the coarse simulcast layers to enable.  The paper's footnote 2 example —
Chime disables the 600 kbps 360p stream when uplink < 300 kbps for sub-6
person calls — is the kind of rule encoded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.types import Resolution

#: The classic coarse 3-layer ladder used by template policies.
COARSE_LAYERS: Tuple[Tuple[Resolution, int], ...] = (
    (Resolution.P720, 1500),
    (Resolution.P360, 600),
    (Resolution.P180, 300),
)


@dataclass(frozen=True)
class TemplateRule:
    """One row of a template policy: enabled layers for an estimate range.

    Attributes:
        min_uplink_kbps: the rule applies when the local uplink estimate is
            at least this value (rules are checked highest-first).
        layers: the (resolution, kbps) encodings to enable.
    """

    min_uplink_kbps: int
    layers: Tuple[Tuple[Resolution, int], ...]


#: Default rules for small meetings (<= 6 participants): push everything
#: the uplink can plausibly carry, with headroom factor baked into the
#: thresholds.  Mirrors Chromium's simulcast_rate_allocator behaviour.
SMALL_MEETING_RULES: Tuple[TemplateRule, ...] = (
    TemplateRule(2600, COARSE_LAYERS),
    TemplateRule(1100, COARSE_LAYERS[1:]),
    TemplateRule(350, COARSE_LAYERS[2:]),
    TemplateRule(0, ()),
)

#: Rules for big meetings: the 720p layer is dropped outright (thumbnail
#: walls dominate) and thresholds shift down.
LARGE_MEETING_RULES: Tuple[TemplateRule, ...] = (
    TemplateRule(1100, COARSE_LAYERS[1:]),
    TemplateRule(350, COARSE_LAYERS[2:]),
    TemplateRule(0, ()),
)


class TemplateUplinkPolicy:
    """The local, uncoordinated uplink policy of classic simulcast.

    Args:
        small_meeting_max: participant count up to which the small-meeting
            template applies (the paper notes templates "can only cover
            cases of a small number of participants (typically smaller
            than 6)").
    """

    def __init__(self, small_meeting_max: int = 6) -> None:
        self.small_meeting_max = small_meeting_max

    def select_layers(
        self, uplink_estimate_kbps: float, participant_count: int
    ) -> Dict[Resolution, int]:
        """Choose the encodings to publish from the template tables.

        Note what this policy *cannot* see: who actually subscribes, the
        receivers' downlinks, or other publishers — the root cause of the
        Fig. 3 pathologies.
        """
        rules = (
            SMALL_MEETING_RULES
            if participant_count <= self.small_meeting_max
            else LARGE_MEETING_RULES
        )
        for rule in rules:
            if uplink_estimate_kbps >= rule.min_uplink_kbps:
                return dict(rule.layers)
        return {}


class LocalDownlinkSwitcher:
    """The SFU-local stream switching of classic simulcast.

    Per subscriber, split the *locally estimated* downlink evenly across
    the publishers the subscriber watches, then pick the largest simulcast
    layer fitting each share.  This is the "fragmented network view"
    switching the paper contrasts GSO against: no coordination with
    publishers, coarse layers only.
    """

    def __init__(self, headroom: float = 0.9) -> None:
        if not 0 < headroom <= 1:
            raise ValueError("headroom must be in (0, 1]")
        self.headroom = headroom

    def select_stream(
        self,
        downlink_estimate_kbps: float,
        available_layers: Dict[Resolution, int],
        n_watched_publishers: int,
        max_resolution: Resolution = Resolution.P720,
    ) -> Optional[Resolution]:
        """Pick the layer to forward from one publisher to one subscriber.

        Returns:
            The chosen resolution, or None to forward nothing.
        """
        if n_watched_publishers < 1 or not available_layers:
            return None
        share = downlink_estimate_kbps * self.headroom / n_watched_publishers
        candidates = sorted(
            (
                (res, kbps)
                for res, kbps in available_layers.items()
                if res <= max_resolution
            ),
            key=lambda pair: -pair[1],
        )
        for res, kbps in candidates:
            if kbps <= share:
                return res
        # Nothing fits the fair share: fall back to the smallest layer if
        # it at least fits the whole downlink (better than a black tile).
        if candidates and candidates[-1][1] <= downlink_estimate_kbps:
            return candidates[-1][0]
        return None
