"""Controller call-interval process (Fig. 12).

Fig. 12 plots the CDF of the gap between consecutive control-algorithm
invocations across the production fleet: minimum 1 s, maximum 3 s, mean
about 1.8 s.  This module models the paper's trigger policy, the
``clamp(E, 1, 3)`` envelope, applied to the network-change event process
of a meeting (the ingress plane's decision window, which a live meeting
runs, adds its own debounce on top):

* significant bandwidth-change events arrive randomly (Poisson with a
  per-meeting rate that depends on how volatile its links are);
* an event pulls the next solve in, but never sooner than ``min_interval``
  after the previous one;
* with no event, the periodic trigger fires at ``max_interval``.

Under this policy a gap is ``clamp(E, min, max)`` where ``E`` is the wait
for the first event after the last solve — giving the truncated
exponential-with-atoms CDF this module computes both analytically and by
Monte Carlo sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class IntervalProcess:
    """The trigger-policy interval distribution.

    Args:
        event_rate_hz: Poisson rate of significant network-change events.
            The default 0.55 Hz makes the mean interval ~1.8 s, matching
            the deployment (Sec. 6).
        min_interval_s / max_interval_s: the trigger-policy clamps.
    """

    event_rate_hz: float = 0.55
    min_interval_s: float = 1.0
    max_interval_s: float = 3.0

    def __post_init__(self) -> None:
        if self.event_rate_hz <= 0:
            raise ValueError("event rate must be positive")
        if not 0 < self.min_interval_s <= self.max_interval_s:
            raise ValueError("need 0 < min <= max interval")

    # ------------------------------------------------------------------ #
    # Analytic form
    # ------------------------------------------------------------------ #

    def cdf(self, t: float) -> float:
        """P(interval <= t) for the clamped exponential."""
        lam = self.event_rate_hz
        lo, hi = self.min_interval_s, self.max_interval_s
        if t < lo:
            return 0.0
        if t >= hi:
            return 1.0
        # Atom at lo: all events arriving before lo clamp up to it.
        return 1.0 - math.exp(-lam * t)

    def mean(self) -> float:
        """E[clamp(Exp(lambda), lo, hi)] in closed form."""
        lam = self.event_rate_hz
        lo, hi = self.min_interval_s, self.max_interval_s
        # E = lo*P(E<lo) + int_lo^hi t f(t) dt + hi*P(E>hi)
        p_lo = 1.0 - math.exp(-lam * lo)
        p_hi = math.exp(-lam * hi)
        middle = (
            (lo + 1.0 / lam) * math.exp(-lam * lo)
            - (hi + 1.0 / lam) * math.exp(-lam * hi)
        )
        return lo * p_lo + middle + hi * p_hi

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(self, rng: random.Random) -> float:
        """Draw one call interval."""
        wait = rng.expovariate(self.event_rate_hz)
        return min(self.max_interval_s, max(self.min_interval_s, wait))

    def sample_many(self, n: int, rng: random.Random) -> List[float]:
        """Draw n call intervals."""
        return [self.sample(rng) for _ in range(n)]


def empirical_cdf(samples: Sequence[float], points: int = 50) -> List[Tuple[float, float]]:
    """(t, P(interval <= t)) pairs over the sample range."""
    if not samples:
        return []
    ordered = sorted(samples)
    lo, hi = ordered[0], ordered[-1]
    result: List[Tuple[float, float]] = []
    for k in range(points + 1):
        t = lo + (hi - lo) * k / points
        count = sum(1 for s in ordered if s <= t)
        result.append((t, count / len(ordered)))
    return result
