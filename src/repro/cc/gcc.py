"""GCC-style sender-side bandwidth estimation.

GSO-Simulcast "rel[ies] on sender-side bandwidth estimation, which offers
better accuracy than receiver-side estimation" (Sec. 4.2) and uses
"transport-wide congestion control for its flexibility" (Sec. 7).  This
module implements the two halves of a Google-Congestion-Control-like
estimator working on transport-wide feedback:

* a **delay-based controller**: a trendline filter estimates the one-way
  queuing-delay gradient from (send, arrival) timestamp pairs; a growing
  gradient signals overuse and multiplicatively backs off toward the
  measured receive rate, otherwise the rate additively/multiplicatively
  increases;
* a **loss-based controller**: the RFC-style rule — back off by half the
  loss fraction above 10 % loss, hold between 2-10 %, increase below 2 %.

The final estimate is the minimum of the two, clamped to configured
bounds.  The paper's Sec. 7 lesson — GCC-like estimators *over-estimate* on
small streams because low rates never build a queue — emerges naturally
here, and :meth:`on_probe_result` implements the paper's fix: pacer-driven
probe bursts supply ground-truth capacity samples that cap the estimate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence, Tuple


@dataclass(frozen=True)
class FeedbackSample:
    """One acknowledged packet: when it was sent, when it arrived."""

    send_time_s: float
    arrival_time_s: float
    size_bytes: int


@dataclass
class GccConfig:
    """Tuning of the estimator (values follow the GCC draft's spirit)."""

    min_rate_kbps: float = 100.0
    max_rate_kbps: float = 10_000.0
    initial_rate_kbps: float = 1_000.0
    #: Initial/floor trendline slope threshold (s of delay growth per s)
    #: for overuse.  The live threshold adapts upward on noisy (jittery)
    #: paths, as in the GCC draft's adaptive detector, so random jitter
    #: does not masquerade as congestion.
    overuse_threshold: float = 0.01
    #: Adaptation gains of the live threshold (toward |slope|).
    threshold_gain_up: float = 0.12
    threshold_gain_down: float = 0.05
    #: Ceiling of the adaptive threshold.
    overuse_threshold_max: float = 0.25
    #: Multiplicative backoff applied to the receive rate on overuse.
    beta: float = 0.85
    #: Multiplicative increase per update in the far-from-capacity regime.
    eta: float = 1.08
    #: Additive increase (kbps) per update when near capacity.
    additive_kbps: float = 40.0
    #: Samples in the trendline window.
    window: int = 20
    #: Loss fraction above which the loss controller backs off.
    loss_high: float = 0.10
    #: Loss fraction below which the loss controller may increase.
    loss_low: float = 0.02
    #: Consecutive overuse detections required before backing off (real
    #: GCC's over-use detector also requires sustained overuse).
    overuse_persistence: int = 3
    #: Minimum spacing between two multiplicative backoffs, in arrival time.
    backoff_interval_s: float = 0.3
    #: Receive-rate measurement window (trailing, by arrival time).  Kept
    #: short so the backoff target tracks the *current* incoming rate (a
    #: long window lags behind rate upgrades and turns the first keyframe
    #: burst after an upgrade into a crash).
    receive_window_s: float = 0.5
    #: Absolute queuing delay (above the path's base delay) treated as
    #: overuse even when the delay *slope* is flat — a tail-drop queue
    #: pinned at its cap has zero slope but is maximally congested.
    queuing_overuse_s: float = 0.08


class TrendlineFilter:
    """Linear-regression slope of smoothed one-way delay over arrival time.

    This is the core of GCC's delay-based detector: the slope of the
    (arrival_time, accumulated_delay_change) cloud approximates the queuing
    delay derivative — positive when the bottleneck queue is filling.
    """

    def __init__(self, window: int = 20, smoothing: float = 0.9) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self._window = window
        self._smoothing = smoothing
        self._points: Deque[Tuple[float, float]] = deque(maxlen=window)
        self._prev: Optional[FeedbackSample] = None
        self._accumulated = 0.0
        self._smoothed = 0.0

    def update(self, sample: FeedbackSample) -> None:
        """Feed one acknowledged packet (must be in send order)."""
        if self._prev is not None:
            delta_arrival = sample.arrival_time_s - self._prev.arrival_time_s
            delta_send = sample.send_time_s - self._prev.send_time_s
            delay_change = delta_arrival - delta_send
            self._accumulated += delay_change
            self._smoothed = (
                self._smoothing * self._smoothed
                + (1 - self._smoothing) * self._accumulated
            )
            self._points.append((sample.arrival_time_s, self._smoothed))
        self._prev = sample

    def slope(self) -> Optional[float]:
        """Least-squares slope, or None until the window has 2+ points."""
        if len(self._points) < 2:
            return None
        n = len(self._points)
        mean_x = sum(x for x, _ in self._points) / n
        mean_y = sum(y for _, y in self._points) / n
        var = sum((x - mean_x) ** 2 for x, _ in self._points)
        if var == 0:
            return 0.0
        cov = sum((x - mean_x) * (y - mean_y) for x, y in self._points)
        return cov / var


class GccEstimator:
    """The combined delay + loss bandwidth estimator."""

    def __init__(self, config: Optional[GccConfig] = None) -> None:
        self.config = config or GccConfig()
        self._rate_kbps = self.config.initial_rate_kbps
        # The loss controller starts unconstrained; only actual loss reports
        # pull it below the delay-based estimate.
        self._loss_rate_kbps = self.config.max_rate_kbps
        self._trendline = TrendlineFilter(window=self.config.window)
        self._recent: Deque[FeedbackSample] = deque(maxlen=400)
        self._probe_cap_kbps: Optional[float] = None
        self.state = "normal"  # "normal" | "overuse" | "underuse"
        self._overuse_streak = 0
        self._last_backoff_arrival_s = float("-inf")
        self._threshold = self.config.overuse_threshold
        self._base_delay_s = float("inf")
        #: Recent (arrival_time, one-way delay) pairs for the windowed-min
        #: queuing measure.
        self._recent_delays: Deque[Tuple[float, float]] = deque(maxlen=200)


    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def on_feedback(self, samples: Sequence[FeedbackSample]) -> None:
        """Process one transport-wide feedback batch (delay controller)."""
        if not samples:
            return
        for sample in samples:
            self._trendline.update(sample)
            self._recent.append(sample)
            delay = sample.arrival_time_s - sample.send_time_s
            self._base_delay_s = min(self._base_delay_s, delay)
            self._recent_delays.append((sample.arrival_time_s, delay))

        slope = self._trendline.slope()
        if slope is None:
            return
        cfg = self.config
        receive_rate = self._receive_rate_kbps()
        # Adaptive threshold (jitter tolerance): drift toward the observed
        # |slope| — fast when exceeded, slowly back down when calm.  Like
        # the GCC draft's detector, adaptation is skipped when the slope
        # overshoots the threshold by more than 4x: such spikes are genuine
        # congestion onsets, and raising the threshold on them would blind
        # the detector exactly when it is needed.
        err = abs(slope) - self._threshold
        if abs(slope) <= 4.0 * self._threshold:
            gain = cfg.threshold_gain_up if err > 0 else cfg.threshold_gain_down
            self._threshold = min(
                cfg.overuse_threshold_max,
                max(cfg.overuse_threshold, self._threshold + gain * err),
            )
        if slope > self._threshold or self.queuing_delay_s() > cfg.queuing_overuse_s:
            self.state = "overuse"
            self._overuse_streak += 1
            last_arrival = samples[-1].arrival_time_s
            sustained = self._overuse_streak >= cfg.overuse_persistence
            spaced = (
                last_arrival - self._last_backoff_arrival_s
                >= cfg.backoff_interval_s
            )
            if sustained and spaced:
                # One backoff never cuts more than half the current rate —
                # deep congestion still converges through repeated
                # backoffs, but a single noisy receive-rate sample cannot
                # crash the estimate.
                target = max(
                    cfg.beta * (receive_rate or self._rate_kbps),
                    0.5 * self._rate_kbps,
                )
                self._rate_kbps = min(self._rate_kbps, target)
                self._last_backoff_arrival_s = last_arrival
        elif slope < -self._threshold:
            # Queues are draining: hold and let them empty.
            self.state = "underuse"
            self._overuse_streak = 0
        else:
            self.state = "normal"
            self._overuse_streak = 0
            if receive_rate and self._rate_kbps > 1.5 * receive_rate:
                # Far above what actually arrives: additive creep only.
                self._rate_kbps += cfg.additive_kbps
            else:
                self._rate_kbps = (
                    self._rate_kbps * cfg.eta + cfg.additive_kbps * 0.1
                )
        self._clamp()

    def on_loss_report(self, loss_fraction: float) -> None:
        """Process a loss report (loss controller).

        Loss that arrives *without* delay growth is random path loss, not
        congestion (think radio links); backing off cannot fix it and the
        media layer repairs it with NACK/RTX instead.  Like libwebrtc's
        newer loss-based estimation, the backoff is therefore softened when
        the delay detector is not simultaneously in overuse.
        """
        if not 0 <= loss_fraction <= 1:
            raise ValueError(f"loss fraction out of range: {loss_fraction}")
        cfg = self.config
        if loss_fraction > cfg.loss_high:
            target = self._rate_kbps * (1 - 0.5 * loss_fraction)
            congested = (
                self.state == "overuse"
                or self.queuing_delay_s() > cfg.queuing_overuse_s
            )
            if congested and self._loss_cut_allowed():
                # Congestion loss: the delay controller may be blind when
                # the bottleneck queue is pinned at its cap (flat delay),
                # so pull the delay-based rate down too — but spaced like
                # delay backoffs (10 reports/s of compounding cuts would
                # crash the estimate to the floor within a second).
                self._rate_kbps = min(
                    self._rate_kbps, max(target, 0.5 * self._rate_kbps)
                )
                if self._recent:
                    self._last_backoff_arrival_s = self._recent[-1].arrival_time_s
            else:
                # Random path loss: repairable by NACK/RTX; backing off
                # cannot fix it, so only soften.
                target = max(target, 0.8 * self._rate_kbps)
            self._loss_rate_kbps = target
        elif loss_fraction < cfg.loss_low:
            self._loss_rate_kbps = max(
                self._loss_rate_kbps, self._rate_kbps
            ) * 1.05
        # else: hold.
        self._clamp()

    def on_probe_result(self, delivered_kbps: float, congested: bool) -> None:
        """Feed a pacer probe-burst outcome (the Sec. 7 over-estimation fix).

        Args:
            delivered_kbps: goodput the probe cluster achieved.
            congested: True when the probe saw delay growth or loss — then
                the delivered rate is treated as a capacity *ceiling*;
                otherwise it is evidence capacity is at least that high.
        """
        if delivered_kbps <= 0:
            return
        if congested:
            self._probe_cap_kbps = delivered_kbps
            self._rate_kbps = min(self._rate_kbps, delivered_kbps)
        else:
            self._probe_cap_kbps = None
            self._rate_kbps = max(self._rate_kbps, 0.85 * delivered_kbps)
        self._clamp()

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def _loss_cut_allowed(self) -> bool:
        """Loss-driven rate cuts respect the same spacing as delay backoffs."""
        if not self._recent:
            return True
        return (
            self._recent[-1].arrival_time_s - self._last_backoff_arrival_s
            >= self.config.backoff_interval_s
        )

    def queuing_delay_s(self) -> float:
        """Standing queue above the path's base delay.

        Measured as the *minimum* one-way delay over the trailing window:
        random per-packet jitter leaves the minimum near the base delay,
        whereas a bottleneck queue pinned at its cap raises the delay of
        *every* packet — exactly the congestion/jitter discriminator the
        overuse and loss logic needs.
        """
        if not self._recent_delays or self._base_delay_s == float("inf"):
            return 0.0
        cutoff = self._recent_delays[-1][0] - 1.0
        window_min = min(
            (d for t, d in self._recent_delays if t >= cutoff),
            default=self._base_delay_s,
        )
        return max(0.0, window_min - self._base_delay_s)

    def peak_queuing_delay_s(self, window_s: float = 0.8) -> float:
        """High-quantile (p90) one-way delay above base, trailing window.

        Complements :meth:`queuing_delay_s` (a windowed *minimum*, robust
        to jitter): a probe burst that queued shifts the upper quantiles.
        A p90 rather than the maximum keeps heavy-tailed jitter (whose
        maxima grow with the sample count) from reading as congestion.
        """
        if not self._recent_delays or self._base_delay_s == float("inf"):
            return 0.0
        cutoff = self._recent_delays[-1][0] - window_s
        window = sorted(
            d for t, d in self._recent_delays if t >= cutoff
        )
        if not window:
            return 0.0
        p90 = window[min(len(window) - 1, int(0.9 * len(window)))]
        return max(0.0, p90 - self._base_delay_s)

    def typical_jitter_s(self) -> float:
        """The path's typical per-packet delay deviation.

        Computed as the *median* of |delay - base| over the retained
        samples: medians stay honest even when a probe burst or keyframe
        contaminates a third of the window with queueing delay, which an
        EWMA would absorb into the "typical" level.
        """
        if not self._recent_delays or self._base_delay_s == float("inf"):
            return 0.0
        deviations = sorted(
            abs(d - self._base_delay_s) for _, d in self._recent_delays
        )
        return deviations[len(deviations) // 2]

    def receive_rate_kbps(self) -> Optional[float]:
        """Public accessor for the trailing-window receive rate."""
        return self._receive_rate_kbps()

    @property
    def sample_count(self) -> int:
        """Feedback samples seen so far (probe-evaluation warm-up gate)."""
        return len(self._recent)

    def estimate_kbps(self) -> float:
        """The current bandwidth estimate (min of both controllers)."""
        estimate = min(self._rate_kbps, self._loss_rate_kbps)
        if self._probe_cap_kbps is not None:
            estimate = min(estimate, self._probe_cap_kbps)
        return max(self.config.min_rate_kbps, estimate)

    def _receive_rate_kbps(self) -> Optional[float]:
        """Goodput over the trailing receive window (by arrival time).

        Measuring over a fixed trailing window rather than "everything in
        the deque" keeps idle gaps between feedback batches from deflating
        the rate — a deflated rate would turn each backoff into a crash.
        """
        if len(self._recent) < 2:
            return None
        cutoff = self._recent[-1].arrival_time_s - self.config.receive_window_s
        window = [s for s in self._recent if s.arrival_time_s >= cutoff]
        if len(window) < 2:
            return None
        span = window[-1].arrival_time_s - window[0].arrival_time_s
        if span <= 0:
            return None
        total_bytes = sum(s.size_bytes for s in window[1:])
        return total_bytes * 8.0 / span / 1000.0

    def _clamp(self) -> None:
        cfg = self.config
        self._rate_kbps = min(max(self._rate_kbps, cfg.min_rate_kbps), cfg.max_rate_kbps)
        self._loss_rate_kbps = min(
            max(self._loss_rate_kbps, cfg.min_rate_kbps), cfg.max_rate_kbps
        )
