"""Vectorized fleet model: 10^5+ synthetic users as numpy populations.

The scalar :class:`~repro.deploy.fleet.FleetSampler` orchestrates each
conference through the real solver — right for the Figs. 10-11 quality
studies, far too slow for fleet-*placement* questions ("how many
meetings/sec can N shards sustain under policy P?").  This module keeps
the same population model but vectorizes it:

* :func:`sample_population` — one numpy draw for 10^5+ clients (profile
  mixture, uplink/downlink/loss), mirroring ``FleetSampler``'s per-client
  draws;
* :func:`score_subscribers_batch` — the exact
  :func:`~repro.deploy.fleet.score_subscriber` arithmetic on arrays
  (parity-pinned by tests);
* :func:`sample_fleet` — a meeting-size workload with the production
  shape: a mass of small calls (the geometric tail) plus a handful of
  webinar-scale meetings that dominate solve cost;
* :func:`place_fleet` — the workload pushed through the *real* placement
  policies (:mod:`repro.placement.policies`) and the real consistent-hash
  ring, meeting by meeting;
* :func:`sustainable_rate` — the analytic throughput frontier: the
  largest fleet-wide solve rate (meetings/sec) whose p95 solve latency
  stays inside the ``solve_latency_p95`` SLO, found by bisection on a
  deterministic queueing model (service scales with the load model's
  meeting cost; a shard's backlog inflates latency by ``1/(1-rho)``).

Everything is seeded ``numpy.random.default_rng`` plus pure arithmetic —
no wall clock anywhere — so two invocations with the same seed are
byte-identical, which is what lets CI gate the best_fit/hash throughput
ratio (``BENCH_PR7.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.hashring import ConsistentHashRing
from ..placement.loadmodel import conference_cost
from ..placement.policies import get_policy
from .fleet import DEFAULT_PROFILES, NetworkProfile

#: Seconds of shard CPU per unit of meeting cost (one subscription edge /
#: publisher) in the analytic model.  Calibrated so a webinar-scale solve
#: (~cost 3*10^4) costs tens of milliseconds (``bench/`` fits the
#: measured value as ``placement.sec_per_cost_fit``).
SEC_PER_COST = 1e-6

#: Headroom multiplier for the default per-shard budget: a perfectly
#: balanced packing plus 5 % slack.
BUDGET_HEADROOM = 1.05


# --------------------------------------------------------------------- #
# Populations
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Population:
    """Vectorized client draws (parallel arrays, one row per client)."""

    profile: np.ndarray  # int index into profiles
    uplink_kbps: np.ndarray  # float
    downlink_kbps: np.ndarray  # float
    loss_rate: np.ndarray  # float

    @property
    def users(self) -> int:
        return int(self.profile.shape[0])


def sample_population(
    seed: int,
    users: int,
    profiles: Sequence[NetworkProfile] = DEFAULT_PROFILES,
    day_quality: float = 1.0,
) -> Population:
    """Draw ``users`` clients from the profile mixture in one shot."""
    if users < 1:
        raise ValueError("users must be >= 1")
    rng = np.random.default_rng(seed)
    weights = np.asarray([p.weight for p in profiles], dtype=np.float64)
    weights = weights / weights.sum()
    idx = rng.choice(len(profiles), size=users, p=weights)
    up_lo = np.asarray([p.uplink_kbps[0] for p in profiles], dtype=np.float64)
    up_hi = np.asarray([p.uplink_kbps[1] for p in profiles], dtype=np.float64)
    dn_lo = np.asarray(
        [p.downlink_kbps[0] for p in profiles], dtype=np.float64
    )
    dn_hi = np.asarray(
        [p.downlink_kbps[1] for p in profiles], dtype=np.float64
    )
    ls_lo = np.asarray([p.loss_rate[0] for p in profiles], dtype=np.float64)
    ls_hi = np.asarray([p.loss_rate[1] for p in profiles], dtype=np.float64)
    u = rng.random(users)
    up = (up_lo[idx] + u * (up_hi[idx] - up_lo[idx])) * day_quality
    u = rng.random(users)
    down = (dn_lo[idx] + u * (dn_hi[idx] - dn_lo[idx])) * day_quality
    u = rng.random(users)
    loss = ls_lo[idx] + u * (ls_hi[idx] - ls_lo[idx])
    return Population(
        profile=idx,
        uplink_kbps=np.maximum(100.0, np.floor(up)),
        downlink_kbps=np.maximum(150.0, np.floor(down)),
        loss_rate=loss,
    )


def score_subscribers_batch(
    utilization: np.ndarray,
    loss_rate: np.ndarray,
    delivered_fps: float = 30.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.deploy.fleet.score_subscriber` on arrays.

    Returns (video_stall, voice_stall, framerate) arrays; element ``i``
    matches the scalar function exactly (pinned by a parity test).
    """
    utilization = np.asarray(utilization, dtype=np.float64)
    loss_rate = np.asarray(loss_rate, dtype=np.float64)
    over = np.maximum(0.0, utilization - 0.9)
    video = np.minimum(1.0, 2.5 * over**1.5) + np.minimum(
        0.6, 5.0 * loss_rate
    )
    video = np.minimum(1.0, video)
    overload = np.maximum(0.0, utilization - 1.0)
    voice = np.minimum(
        1.0, 0.8 * overload + 8.0 * np.maximum(0.0, loss_rate - 0.015)
    )
    fps = (
        delivered_fps
        * (1.0 - np.minimum(0.6, 2.0 * overload))
        * (1.0 - np.minimum(0.5, 2.0 * loss_rate))
        * (1.0 - 0.4 * video)
    )
    return video, voice, fps


# --------------------------------------------------------------------- #
# Fleet workloads
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FleetWorkload:
    """A sampled set of concurrent meetings (sizes + solve costs)."""

    sizes: np.ndarray  # int participants per meeting
    costs: np.ndarray  # float, conference_cost(size)

    @property
    def meetings(self) -> int:
        return int(self.sizes.shape[0])

    @property
    def users(self) -> int:
        return int(self.sizes.sum())

    def meeting_id(self, index: int) -> str:
        """Stable meeting id for ring hashing."""
        return f"vm-{index}"


def sample_fleet(
    seed: int,
    users: int = 100_000,
    mean_size: float = 4.0,
    max_size: int = 50,
    webinars: int = 16,
    webinar_size: Tuple[int, int] = (150, 190),
) -> FleetWorkload:
    """Sample meetings until ``users`` participants are hosted.

    Small meetings follow the scalar sampler's ``2 + exponential tail``
    law (zero tail at ``mean_size <= 2``, mirroring ``FleetSampler``);
    ``webinars`` giant meetings model the webinar/all-hands mass that
    dominates solve cost in production fleets, shuffled uniformly into
    the arrival order.
    """
    if users < 2:
        raise ValueError("users must be >= 2")
    if mean_size < 2:
        raise ValueError("mean meeting size must be >= 2")
    if webinars < 0:
        raise ValueError("webinars must be >= 0")
    rng = np.random.default_rng(seed)
    web_sizes = (
        rng.integers(webinar_size[0], webinar_size[1] + 1, size=webinars)
        if webinars
        else np.empty(0, dtype=np.int64)
    )
    remaining = max(0, users - int(web_sizes.sum()))
    # Mean small-meeting size is ~mean_size, so oversample then trim.
    est = max(16, int(remaining / max(2.0, mean_size) * 1.25))
    sizes: List[np.ndarray] = []
    hosted = 0
    while hosted < remaining:
        if mean_size <= 2:
            extra = np.zeros(est)
        else:
            extra = rng.exponential(mean_size - 2.0, size=est)
        batch = np.minimum(max_size, 2 + extra.astype(np.int64))
        sizes.append(batch)
        hosted += int(batch.sum())
    small = np.concatenate(sizes) if sizes else np.empty(0, dtype=np.int64)
    if small.size:
        cut = int(np.searchsorted(np.cumsum(small), remaining)) + 1
        small = small[:cut]
    all_sizes = np.concatenate([small, web_sizes])
    order = rng.permutation(all_sizes.shape[0])
    all_sizes = all_sizes[order]
    costs = np.asarray(
        [conference_cost(int(s)) for s in all_sizes], dtype=np.float64
    )
    return FleetWorkload(sizes=all_sizes, costs=costs)


# --------------------------------------------------------------------- #
# Placement + the throughput frontier
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FleetPlacement:
    """A workload placed onto shards by one policy."""

    policy: str
    shard_names: Tuple[str, ...]
    #: meeting index -> shard index
    assignment: np.ndarray
    #: total assigned cost per shard
    shard_cost: np.ndarray
    budget: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "shards": len(self.shard_names),
            "budget": round(self.budget, 3),
            "shard_cost_max": round(float(self.shard_cost.max()), 3),
            "shard_cost_mean": round(float(self.shard_cost.mean()), 3),
            "imbalance": round(
                float(self.shard_cost.max() / max(1e-9, self.shard_cost.mean())),
                4,
            ),
        }


def place_fleet(
    workload: FleetWorkload,
    policy: str = "hash",
    shards: int = 16,
    budget: Optional[float] = None,
    vnodes: int = 64,
) -> FleetPlacement:
    """Run the workload through a real placement policy, in arrival order.

    Uses the same :mod:`repro.placement.policies` objects and the same
    consistent-hash ring as the live cluster, so the model measures the
    actual decision procedure, not an idealized stand-in.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    names = [f"shard-{i}" for i in range(shards)]
    live = sorted(names)
    index = {name: i for i, name in enumerate(names)}
    if budget is None:
        budget = BUDGET_HEADROOM * float(workload.costs.sum()) / shards
    pol = get_policy(policy)
    ring = ConsistentHashRing(names, vnodes=vnodes)
    loads = {name: 0.0 for name in names}
    assignment = np.empty(workload.meetings, dtype=np.int64)
    for i in range(workload.meetings):
        cost = float(workload.costs[i])
        shard = pol.choose(
            workload.meeting_id(i), cost, live, loads, budget, ring
        )
        loads[shard] += cost
        assignment[i] = index[shard]
    shard_cost = np.bincount(
        assignment, weights=workload.costs, minlength=shards
    )
    return FleetPlacement(
        policy=policy,
        shard_names=tuple(names),
        assignment=assignment,
        shard_cost=shard_cost,
        budget=budget,
    )


def sustainable_rate(
    workload: FleetWorkload,
    placement: FleetPlacement,
    slo_p95_s: float = 0.25,
    sec_per_cost: float = SEC_PER_COST,
    iterations: int = 60,
    service_s: Optional[np.ndarray] = None,
) -> float:
    """Max fleet-wide solve rate (meetings/sec) at the p95 solve SLO.

    Model: solve requests arrive fleet-wide at rate ``lam``, spread
    uniformly over hosted meetings; a meeting's solve costs
    ``cost * sec_per_cost`` seconds on its shard, and a shard at
    utilization ``rho`` stretches every resident solve by ``1/(1-rho)``
    (the standard single-server queueing inflation).  The p95 is taken
    over all meetings' solve latencies; bisection finds the largest
    ``lam`` that keeps it inside the SLO.  Pure arithmetic on the seeded
    workload — no wall clock — so the result is byte-deterministic.

    ``service_s`` overrides the analytic per-meeting service times with
    measured ones (e.g. drawn from a recorded
    ``repro.latency_profile/v1`` — see
    ``deploy.ingress_stream.measured_service_times``); shard demand
    then follows the measured times too.
    """
    n = workload.meetings
    if service_s is not None:
        service = np.asarray(service_s, dtype=np.float64)
        if service.shape != (n,):
            raise ValueError(
                f"service_s must have shape ({n},), got {service.shape}"
            )
    else:
        service = workload.costs * sec_per_cost
    if service_s is not None:
        per_shard_demand = (
            np.bincount(
                placement.assignment,
                weights=service,
                minlength=len(placement.shard_cost),
            )
            / n
        )
    else:
        per_shard_demand = placement.shard_cost * sec_per_cost / n
    max_demand = float(per_shard_demand.max())
    if max_demand <= 0.0:
        return 0.0
    if float(np.percentile(service, 95)) > slo_p95_s:
        return 0.0  # the SLO is unmeetable even on an idle fleet
    shard_of = placement.assignment
    lo, hi = 0.0, 1.0 / max_demand  # hi saturates the hottest shard
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        rho = mid * per_shard_demand
        headroom = 1.0 - rho[shard_of]
        lat = np.where(
            headroom > 1e-12, service / np.maximum(headroom, 1e-12), np.inf
        )
        if float(np.percentile(lat, 95)) <= slo_p95_s:
            lo = mid
        else:
            hi = mid
    return lo


def throughput_report(
    seed: int,
    users: int = 100_000,
    shards: int = 16,
    policies: Sequence[str] = ("hash", "best_fit", "least_loaded"),
    slo_p95_s: float = 0.25,
    **workload_kwargs,
) -> Dict[str, object]:
    """One deterministic fleet-throughput comparison across policies."""
    workload = sample_fleet(seed, users=users, **workload_kwargs)
    rows: Dict[str, object] = {}
    rates: Dict[str, float] = {}
    for policy in policies:
        placement = place_fleet(workload, policy=policy, shards=shards)
        rate = sustainable_rate(workload, placement, slo_p95_s=slo_p95_s)
        rates[policy] = rate
        rows[policy] = {
            **placement.to_dict(),
            "meetings_per_s": round(rate, 3),
        }
    report: Dict[str, object] = {
        "seed": seed,
        "users": workload.users,
        "meetings": workload.meetings,
        "shards": shards,
        "slo_p95_s": slo_p95_s,
        "policies": rows,
    }
    if "hash" in rates and rates["hash"] > 0:
        for policy, rate in rates.items():
            if policy != "hash":
                report[f"speedup_{policy}_vs_hash"] = round(
                    rate / rates["hash"], 4
                )
    return report
