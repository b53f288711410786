"""Meeting-level QoE metrics: the quantities the paper's evaluation plots.

* video stall rate (footnote 9, >200 ms inter-frame gaps per interval);
* voice stall rate (footnote 10, >10 % audio loss per interval);
* delivered framerate;
* a VMAF-like video quality proxy (Fig. 8's "video quality").

The VMAF proxy maps (resolution, delivered bitrate) to a 0-100 score with
a saturating log curve per resolution — the absolute values are synthetic,
but the curve is monotone in bitrate and higher resolutions dominate at
equal health, which is all the cross-scheme comparisons need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.types import ClientId, Resolution
from ..media.jitter_buffer import PlaybackMetrics


#: Per-resolution (kbps at which the proxy reaches ~50, ceiling score).
_QUALITY_CURVE: Dict[Resolution, Tuple[float, float]] = {
    Resolution.P1080: (2500.0, 100.0),
    Resolution.P720: (1200.0, 95.0),
    Resolution.P540: (900.0, 88.0),
    Resolution.P360: (550.0, 80.0),
    Resolution.P270: (400.0, 72.0),
    Resolution.P180: (250.0, 62.0),
    Resolution.P90: (120.0, 45.0),
}


def vmaf_proxy(resolution: Resolution, delivered_kbps: float) -> float:
    """A monotone rate-quality score in [0, 100].

    ``score = ceiling * kbps / (kbps + half_point)`` — a saturating curve
    reaching half the resolution's ceiling at its half-point bitrate.
    """
    if delivered_kbps <= 0:
        return 0.0
    half, ceiling = _QUALITY_CURVE[resolution]
    return ceiling * delivered_kbps / (delivered_kbps + half)


@dataclass
class ViewReport:
    """Metrics for one subscriber watching one publisher."""

    subscriber: ClientId
    publisher: ClientId
    playback: PlaybackMetrics
    #: Resolution the subscriber mostly received (highest seen).
    top_resolution: Optional[Resolution]
    quality_score: float

    @property
    def framerate(self) -> float:
        """Rendered frames per second over the window."""
        return self.playback.framerate

    @property
    def stall_rate(self) -> float:
        """Fraction of playback intervals containing a stall."""
        return self.playback.stall_rate


@dataclass
class MeetingReport:
    """Aggregated outcome of one simulated meeting."""

    duration_s: float
    views: List[ViewReport] = field(default_factory=list)
    #: Per subscriber, the voice stall rate across all audio it receives.
    voice_stall: Dict[ClientId, float] = field(default_factory=dict)
    #: Per publisher, mean configured uplink send rate (kbps).
    publisher_send_kbps: Dict[ClientId, float] = field(default_factory=dict)
    #: Per subscriber, time series of received video rate (t, kbps).
    receive_series: Dict[ClientId, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Controller call intervals (GSO mode only).
    call_intervals: List[float] = field(default_factory=list)

    # -- aggregates ----------------------------------------------------- #

    def mean_framerate(self) -> float:
        """Average framerate across all views."""
        if not self.views:
            return 0.0
        return sum(v.framerate for v in self.views) / len(self.views)

    def mean_video_stall(self) -> float:
        """Average video-stall rate across all views."""
        if not self.views:
            return 0.0
        return sum(v.stall_rate for v in self.views) / len(self.views)

    def mean_quality(self) -> float:
        """Average quality proxy across all views."""
        if not self.views:
            return 0.0
        return sum(v.quality_score for v in self.views) / len(self.views)

    def mean_voice_stall(self) -> float:
        """Average voice-stall rate across subscribers."""
        if not self.voice_stall:
            return 0.0
        return sum(self.voice_stall.values()) / len(self.voice_stall)

    def view(self, subscriber: ClientId, publisher: ClientId) -> ViewReport:
        """The report for one (subscriber, publisher) pair (KeyError if absent)."""
        for v in self.views:
            if v.subscriber == subscriber and v.publisher == publisher:
                return v
        raise KeyError(f"no view {subscriber!r} <- {publisher!r}")
