"""Fleet simulation: the population model behind Figs. 10-11.

The paper's deployment figures aggregate ~1 million conferences per day of
production telemetry.  Packet-level simulation at that scale is not
feasible (nor needed — the figures plot daily *averages*), so the fleet
model samples synthetic conferences and scores each one analytically:

* per conference, client access networks are drawn from a heterogeneous
  mixture (good / average / slow-link / lossy profiles, plus day-level
  noise and a weekday/weekend seasonality);
* the conference is then *actually orchestrated* — by the real GSO solver
  or by the real non-GSO template policy + local switcher — so the daily
  metric differences come from the genuine algorithms, not from curves;
* the resulting per-subscriber utilization, mismatch and loss map to the
  paper's three metrics (video stall, voice stall, framerate) through a
  small queueing-motivated scoring model (see :func:`score_subscriber`).

The scoring model is calibrated so the GSO/non-GSO gap lands in the
neighbourhood the paper reports (−35 % video stall, −50 % voice stall,
+6 % framerate at full coverage); the *trend vs. coverage* shape is then
produced by the rollout schedule, not hand-drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..client.policies import LocalDownlinkSwitcher, TemplateUplinkPolicy
from ..core.constraints import Bandwidth, Problem, Subscription
from ..core.ladder import make_ladder
from ..core.solver import GsoSolver, SolverConfig
from ..core.types import ClientId, Resolution

#: Audio wire rate reserved per participant (kbps).
AUDIO_KBPS = 45

#: Wire overhead multiplier on media bitrates (RTP + extension + IP/UDP).
WIRE_OVERHEAD = 1.05


@dataclass(frozen=True)
class NetworkProfile:
    """One access-network archetype in the population mixture."""

    name: str
    uplink_kbps: Tuple[int, int]  # (lo, hi) uniform range
    downlink_kbps: Tuple[int, int]
    loss_rate: Tuple[float, float]
    weight: float


#: The population mixture.  Shares follow the intuition of Sec. 2.2: most
#: users are fine; enough are slow that big meetings almost always contain
#: one ("as meeting size grows, the likelihood of someone in the room
#: having a slow link increases").
DEFAULT_PROFILES: Tuple[NetworkProfile, ...] = (
    NetworkProfile("fiber", (4000, 10000), (8000, 20000), (0.0, 0.002), 0.35),
    NetworkProfile("cable", (1500, 4000), (3000, 8000), (0.0, 0.005), 0.30),
    NetworkProfile("mobile", (600, 1500), (1000, 3000), (0.002, 0.02), 0.25),
    NetworkProfile("slow", (200, 600), (300, 1200), (0.01, 0.06), 0.10),
)


@dataclass(frozen=True)
class SampledClient:
    """One sampled participant's access network."""

    client_id: ClientId
    uplink_kbps: int
    downlink_kbps: int
    loss_rate: float
    profile: str


@dataclass(frozen=True)
class SampledConference:
    """One sampled meeting."""

    clients: Tuple[SampledClient, ...]

    @property
    def size(self) -> int:
        """Number of participants."""
        return len(self.clients)


@dataclass
class ConferenceMetrics:
    """The paper's three per-conference averages."""

    video_stall: float
    voice_stall: float
    framerate: float


class FleetSampler:
    """Draws conferences from the population model.

    Args:
        rng: randomness source.
        profiles: the network mixture.
        mean_size: mean meeting size (sizes are 2 + a geometric tail,
            capped) — most meetings are small, a few are very large.
        max_size: meeting size cap (keeps the per-conference solve cheap).
    """

    def __init__(
        self,
        rng: random.Random,
        profiles: Sequence[NetworkProfile] = DEFAULT_PROFILES,
        mean_size: float = 4.0,
        max_size: int = 30,
    ) -> None:
        if mean_size < 2:
            raise ValueError("mean meeting size must be >= 2")
        self._rng = rng
        self._profiles = list(profiles)
        self._weights = [p.weight for p in profiles]
        self._mean_size = mean_size
        self._max_size = max_size

    def sample_conference(
        self,
        day_quality: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> SampledConference:
        """Draw one conference.

        Args:
            day_quality: multiplicative network-quality factor for the day
                (models weekday load, seasonal effects; 1.0 = baseline).
            rng: per-conference randomness source overriding the sampler's
                own stream.  Passing one seeded ``random.Random`` per
                conference makes each draw independent of every other (the
                same conference samples the same clients no matter in what
                order the day's conferences are drawn).
        """
        rng = rng if rng is not None else self._rng
        # mean_size == 2 means no geometric tail at all: every meeting is
        # a two-party call (expovariate(1/0) would divide by zero).
        if self._mean_size <= 2:
            extra = 0.0
        else:
            extra = rng.expovariate(1.0 / (self._mean_size - 2))
        size = min(self._max_size, 2 + int(extra))
        clients = []
        for k in range(size):
            profile = rng.choices(self._profiles, self._weights)[0]
            up = rng.uniform(*profile.uplink_kbps) * day_quality
            down = rng.uniform(*profile.downlink_kbps) * day_quality
            loss = rng.uniform(*profile.loss_rate)
            clients.append(
                SampledClient(
                    client_id=f"c{k}",
                    uplink_kbps=max(100, int(up)),
                    downlink_kbps=max(150, int(down)),
                    loss_rate=loss,
                    profile=profile.name,
                )
            )
        return SampledConference(clients=tuple(clients))


def score_subscriber(
    utilization: float, loss_rate: float, delivered_fps: float = 30.0
) -> Tuple[float, float, float]:
    """Map downlink utilization + path loss to (video stall, voice stall,
    framerate) for one subscriber.

    The mapping is queueing-motivated: below ~90 % utilization a link is
    healthy; between 90-100 % transient queues cause occasional >200 ms
    gaps; above 100 % the link sheds the excess as sustained stalls, and
    audio (sharing the queue) starts to break up.  Random path loss adds
    stalls for video (frame losses) and voice (loss bursts) independently
    of utilization.
    """
    over = max(0.0, utilization - 0.9)
    video_stall = min(1.0, 2.5 * over**1.5) + min(0.6, 5.0 * loss_rate)
    video_stall = min(1.0, video_stall)
    overload = max(0.0, utilization - 1.0)
    voice_stall = min(1.0, 0.8 * overload + 8.0 * max(0.0, loss_rate - 0.015))
    fps = (
        delivered_fps
        * (1.0 - min(0.6, 2.0 * overload))
        * (1.0 - min(0.5, 2.0 * loss_rate))
        * (1.0 - 0.4 * video_stall)
    )
    return video_stall, voice_stall, fps


class ConferenceScorer:
    """Scores one sampled conference under GSO or non-GSO orchestration.

    Args:
        levels_per_resolution: GSO ladder depth.
    """

    def __init__(self, levels_per_resolution: int = 5) -> None:
        self._gso_ladder = make_ladder(levels_per_resolution=levels_per_resolution)
        self._solver = GsoSolver(SolverConfig(granularity_kbps=25))
        self._template = TemplateUplinkPolicy()
        self._switcher = LocalDownlinkSwitcher()

    # ------------------------------------------------------------------ #
    # GSO path: the real solver decides who gets what
    # ------------------------------------------------------------------ #

    def score_gso(self, conf: SampledConference) -> ConferenceMetrics:
        """Score the conference under GSO orchestration (real solver)."""
        solution = self._solver.solve(self._gso_problem(conf))
        loads: Dict[ClientId, float] = {c.client_id: 0.0 for c in conf.clients}
        coverage: Dict[ClientId, float] = {}
        for c in conf.clients:
            delivered = len(solution.assignments.get(c.client_id, {}))
            coverage[c.client_id] = delivered / max(1, conf.size - 1)
        for sub, per_pub in solution.assignments.items():
            for stream in per_pub.values():
                loads[sub] += stream.bitrate_kbps * WIRE_OVERHEAD
        return self._aggregate(conf, loads, coverage)

    def _gso_problem(self, conf: SampledConference) -> Problem:
        subs = [
            Subscription(a.client_id, b.client_id, Resolution.P720)
            for a in conf.clients
            for b in conf.clients
            if a.client_id != b.client_id
        ]
        bandwidth = {
            c.client_id: Bandwidth(
                # The controller sees slightly conservative, audio-protected
                # budgets, as in the live system.
                uplink_kbps=int(c.uplink_kbps * 0.93),
                downlink_kbps=int(c.downlink_kbps * 0.93),
                audio_protection_kbps=AUDIO_KBPS,
            )
            for c in conf.clients
        }
        return Problem(
            feasible_streams={c.client_id: self._gso_ladder for c in conf.clients},
            bandwidth=bandwidth,
            subscriptions=subs,
        )

    # ------------------------------------------------------------------ #
    # Non-GSO path: template uplink policy + SFU-local switching
    # ------------------------------------------------------------------ #

    def score_nongso(self, conf: SampledConference) -> ConferenceMetrics:
        """Score the conference under template-policy simulcast."""
        n = conf.size
        published: Dict[ClientId, Dict[Resolution, int]] = {}
        for c in conf.clients:
            # Local view only: the template sees the local uplink estimate
            # (taken as the true capacity — estimation noise favours the
            # baseline here).
            published[c.client_id] = self._template.select_layers(
                c.uplink_kbps, participant_count=n
            )
        loads: Dict[ClientId, float] = {}
        coverage: Dict[ClientId, float] = {}
        for sub in conf.clients:
            total = 0.0
            delivered = 0
            watched = [c for c in conf.clients if c.client_id != sub.client_id]
            for pub in watched:
                resolution = self._switcher.select_stream(
                    downlink_estimate_kbps=sub.downlink_kbps,
                    available_layers=published[pub.client_id],
                    n_watched_publishers=len(watched),
                    max_resolution=Resolution.P720,
                )
                if resolution is not None:
                    total += (
                        published[pub.client_id][resolution] * WIRE_OVERHEAD
                    )
                    delivered += 1
            loads[sub.client_id] = total
            coverage[sub.client_id] = delivered / max(1, len(watched))
        return self._aggregate(conf, loads, coverage)

    # ------------------------------------------------------------------ #
    # Shared aggregation
    # ------------------------------------------------------------------ #

    def _aggregate(
        self,
        conf: SampledConference,
        video_loads: Dict[ClientId, float],
        view_coverage: Dict[ClientId, float],
    ) -> ConferenceMetrics:
        stalls: List[float] = []
        voices: List[float] = []
        fpss: List[float] = []
        by_id = {c.client_id: c for c in conf.clients}
        for cid, load in video_loads.items():
            client = by_id[cid]
            audio_in = AUDIO_KBPS * min(conf.size - 1, 5)  # top-5 audio mix
            utilization = (load + audio_in) / max(client.downlink_kbps, 1)
            v, a, f = score_subscriber(utilization, client.loss_rate)
            stalls.append(v)
            voices.append(a)
            # Views with no stream at all deliver zero frames.
            fpss.append(f * view_coverage.get(cid, 1.0))
        count = max(1, len(stalls))
        return ConferenceMetrics(
            video_stall=sum(stalls) / count,
            voice_stall=sum(voices) / count,
            framerate=sum(fpss) / count,
        )
