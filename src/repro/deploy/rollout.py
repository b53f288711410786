"""Deployment rollout: the Fig. 10/11 timeline machinery.

The paper's schedule: initial deployment on 2021-11-20, coverage growing
until full-scale on 2021-12-20, with daily metrics plotted from 2021-10-01
to 2022-01-14.  :class:`RolloutSchedule` maps dates to GSO coverage;
:class:`DeploymentSimulation` runs the fleet sampler day by day, assigning
each sampled conference to GSO with probability equal to that day's
coverage, and aggregates the daily averages the figures plot.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .fleet import ConferenceScorer, FleetSampler

#: The paper's dates.
OBSERVATION_START = dt.date(2021, 10, 1)
DEPLOY_START = dt.date(2021, 11, 20)
DEPLOY_FULL = dt.date(2021, 12, 20)
OBSERVATION_END = dt.date(2022, 1, 14)


@dataclass(frozen=True)
class RolloutSchedule:
    """Linear coverage ramp between two dates."""

    start: dt.date = DEPLOY_START
    full: dt.date = DEPLOY_FULL

    def __post_init__(self) -> None:
        if self.full <= self.start:
            raise ValueError("full-scale date must follow the start date")

    def coverage(self, day: dt.date) -> float:
        """Fraction of conferences orchestrated by GSO on ``day``."""
        if day < self.start:
            return 0.0
        if day >= self.full:
            return 1.0
        span = (self.full - self.start).days
        return (day - self.start).days / span


@dataclass
class DailyPoint:
    """One day's aggregated metrics.

    ``video_stall_p95`` is the 95th percentile across the day's sampled
    conferences — the paper's motivation for a control-theoretic design is
    exactly "the long tail performance", so the fleet simulation tracks the
    tail alongside the mean.
    """

    day: dt.date
    coverage: float
    video_stall: float
    voice_stall: float
    framerate: float
    conferences: int
    video_stall_p95: float = 0.0
    voice_stall_p95: float = 0.0


def day_quality(day: dt.date, rng: random.Random) -> float:
    """Network-quality factor for one day.

    Weekends are slightly better (less enterprise congestion), plus small
    i.i.d. daily noise — enough texture that the Fig. 10 curves look like
    telemetry rather than two flat lines.
    """
    weekend = day.weekday() >= 5
    base = 1.06 if weekend else 1.0
    return base * rng.uniform(0.96, 1.04)


class DeploymentSimulation:
    """Day-by-day fleet simulation of the rollout window.

    Args:
        seed: master seed (per-day and per-conference RNGs derive
            deterministically from it by name, never from shared state).
        conferences_per_day: sampled meetings per day (the paper samples
            1M/day; a few hundred give stable daily means here).
        schedule: the coverage ramp.
        levels_per_resolution: GSO ladder depth.
    """

    def __init__(
        self,
        seed: int = 7,
        conferences_per_day: int = 300,
        schedule: Optional[RolloutSchedule] = None,
        levels_per_resolution: int = 5,
    ) -> None:
        if conferences_per_day < 1:
            raise ValueError("need at least one conference per day")
        self._seed = seed
        self._per_day = conferences_per_day
        self.schedule = schedule or RolloutSchedule()
        self._scorer = ConferenceScorer(levels_per_resolution=levels_per_resolution)

    def _conference_rng(self, day: dt.date, index: int) -> random.Random:
        """Derive one conference's private RNG.

        Seeded by name — ``(master seed, day, index)`` — so every
        conference's draw is independent of every other: re-ordering or
        skipping the day's conferences reproduces byte-identical samples.
        (String seeding is stable across processes, unlike
        ``hash()``-derived seeds.)
        """
        return random.Random(f"fleet:{self._seed}:{day.toordinal()}:{index}")

    def run(
        self,
        start: dt.date = OBSERVATION_START,
        end: dt.date = OBSERVATION_END,
    ) -> List[DailyPoint]:
        """Simulate every day in [start, end]."""
        points: List[DailyPoint] = []
        day = start
        while day <= end:
            points.append(self.run_day(day))
            day += dt.timedelta(days=1)
        return points

    def run_day(self, day: dt.date) -> DailyPoint:
        """Sample and score one day's conferences.

        Day-level effects (quality factor) use a per-day RNG; each
        conference then samples and rolls its GSO assignment from its own
        :meth:`_conference_rng`, so per-conference results do not depend
        on evaluation order.
        """
        day_rng = random.Random(f"fleet:{self._seed}:day:{day.toordinal()}")
        sampler = FleetSampler(day_rng)
        coverage = self.schedule.coverage(day)
        quality = day_quality(day, day_rng)
        stalls: List[float] = []
        voices: List[float] = []
        fpss: List[float] = []
        for i in range(self._per_day):
            conf_rng = self._conference_rng(day, i)
            conf = sampler.sample_conference(day_quality=quality, rng=conf_rng)
            if conf_rng.random() < coverage:
                metrics = self._scorer.score_gso(conf)
            else:
                metrics = self._scorer.score_nongso(conf)
            stalls.append(metrics.video_stall)
            voices.append(metrics.voice_stall)
            fpss.append(metrics.framerate)
        n = len(stalls)

        def p95(values: List[float]) -> float:
            """95th percentile (nearest-rank)."""
            ordered = sorted(values)
            return ordered[min(n - 1, int(0.95 * n))]

        return DailyPoint(
            day=day,
            coverage=coverage,
            video_stall=sum(stalls) / n,
            voice_stall=sum(voices) / n,
            framerate=sum(fpss) / n,
            conferences=n,
            video_stall_p95=p95(stalls),
            voice_stall_p95=p95(voices),
        )


def normalize(series: Sequence[float]) -> List[float]:
    """Normalize a metric series against its maximum (the paper's
    confidentiality normalization)."""
    peak = max(series) if series else 1.0
    if peak <= 0:
        return [0.0 for _ in series]
    return [v / peak for v in series]


def improvement(points: Sequence[DailyPoint]) -> Dict[str, float]:
    """Before/after improvement percentages (the paper's headline numbers).

    "Before" averages the pre-deployment days; "after" averages the days at
    full coverage.
    """
    before = [p for p in points if p.coverage == 0.0]
    after = [p for p in points if p.coverage >= 1.0]
    if not before or not after:
        raise ValueError("need both pre-deployment and full-coverage days")

    def mean(values: List[float]) -> float:
        """Arithmetic mean."""
        return sum(values) / len(values)

    video_before = mean([p.video_stall for p in before])
    video_after = mean([p.video_stall for p in after])
    voice_before = mean([p.voice_stall for p in before])
    voice_after = mean([p.voice_stall for p in after])
    fps_before = mean([p.framerate for p in before])
    fps_after = mean([p.framerate for p in after])
    return {
        "video_stall_reduction": 1.0 - video_after / video_before,
        "voice_stall_reduction": 1.0 - voice_after / voice_before,
        "framerate_improvement": fps_after / fps_before - 1.0,
    }
