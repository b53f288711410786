"""The GSO controller runtime: when and how the solver runs in a meeting.

Sec. 6 / Fig. 12: "A proper control frequency is key ... In our deployment,
GSO-Simulcast orchestrates streams every 1.8 s on average.  The maximum
call interval is 3 s ... The minimum call interval is 1 s."

:class:`GsoControllerRuntime` implements that trigger policy:

* a **time trigger** guarantees a solve at least every ``max_interval_s``;
* an **event trigger** (the conference node's version counter — bumped by
  membership, subscription, or significant bandwidth changes) can pull a
  solve in earlier, but never closer than ``min_interval_s`` after the
  previous one.

Each solve snapshots the global picture, runs the KMR algorithm, and hands
the solution to the :class:`~repro.control.feedback.FeedbackExecutor`.  If
the solver raises, the runtime engages the Sec. 7 "design for failure"
fallback instead of taking the meeting down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..obs.spans import span
from ..core.solution import Solution
from ..core.solver import GsoSolver, SolverConfig
from ..net.simulator import PeriodicTask, Simulator
from .conference_node import ConferenceNode
from .failover import single_stream_fallback
from .feedback import FeedbackExecutor


@dataclass
class ControllerConfig:
    """Trigger policy knobs (the Fig. 12 envelope)."""

    min_interval_s: float = 1.0
    max_interval_s: float = 3.0
    #: Granularity of the solver's knapsack grid.
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(granularity_kbps=10))
    #: Minimum time between two *resolution-set upgrades* of one publisher.
    #: Downgrades always apply immediately; upgrades within the cooldown
    #: are suppressed by re-solving with the publisher's ladder capped at
    #: its current top resolution.  This is the orchestration-level half of
    #: the Sec. 7 quality-oscillation fix: resolution switches restart
    #: encoders (keyframe bursts) and reshuffle subscriptions, so they must
    #: not flap with estimator noise.
    upgrade_cooldown_s: float = 6.0
    #: How long a stream detected as dead (configured but not flowing, a
    #: sibling alive — Sec. 7's client-failure case) stays excluded from
    #: the publisher's feasible set before it may be retried.
    dead_stream_penalty_s: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.min_interval_s <= self.max_interval_s:
            raise ValueError("need 0 < min_interval <= max_interval")
        if self.upgrade_cooldown_s < 0:
            raise ValueError("upgrade_cooldown_s must be non-negative")


class GsoControllerRuntime:
    """Periodic + event-triggered orchestration of one meeting."""

    def __init__(
        self,
        sim: Simulator,
        conference: ConferenceNode,
        executor: FeedbackExecutor,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        self._sim = sim
        self._conference = conference
        self._executor = executor
        self.config = config or ControllerConfig()
        self._solver = GsoSolver(self.config.solver)
        self._last_solve_time: Optional[float] = None
        self._last_seen_version = -1
        #: Fig. 12 data: gaps between consecutive control events.
        self.call_intervals: List[float] = []
        self.solutions: List[Solution] = []
        self.fallbacks_engaged = 0
        self.last_solution: Optional[Solution] = None
        self.upgrades_suppressed = 0
        #: Per publisher: top resolution last executed, and when the
        #: resolution set last changed.
        self._last_top_res: dict = {}
        self._last_res_change_s: dict = {}
        #: (publisher, resolution) -> exclusion expiry time (client-failure
        #: downgrades).
        self._dead_caps: dict = {}
        self.downgrades_applied = 0
        self._task = PeriodicTask(
            sim,
            interval=self.config.min_interval_s,
            callback=self._tick,
            start_offset=self.config.min_interval_s,
        )

    def stop(self) -> None:
        """Stop the periodic activity (idempotent)."""
        self._task.stop()

    # ------------------------------------------------------------------ #
    # Trigger policy
    # ------------------------------------------------------------------ #

    def _tick(self) -> None:
        now = self._sim.now
        if self._last_solve_time is None:
            self._solve(now)
            return
        elapsed = now - self._last_solve_time
        if elapsed + 1e-9 < self.config.min_interval_s:
            return
        version = self._conference.version
        time_triggered = elapsed + 1e-9 >= self.config.max_interval_s
        event_triggered = version != self._last_seen_version
        if time_triggered or event_triggered:
            self._solve(now)

    def force_solve(self) -> Optional[Solution]:
        """Immediate out-of-band solve (used by tests and failover)."""
        return self._solve(self._sim.now)

    def _solve(self, now: float) -> Optional[Solution]:
        reg = get_registry()
        if self._last_solve_time is not None:
            interval = now - self._last_solve_time
            self.call_intervals.append(interval)
            if reg.enabled:
                reg.histogram(
                    obs_names.CONTROLLER_CALL_INTERVAL_SECONDS
                ).observe(interval)
        self._last_solve_time = now
        self._last_seen_version = self._conference.version
        tick_start = time.perf_counter()
        with span(obs_names.SPAN_CONTROLLER_TICK):
            problem = self._conference.snapshot(now_s=now)
            problem = self._apply_dead_stream_caps(problem, now)
            incumbent = self._incumbent_assignments()
            try:
                solution = self._solver.solve(problem, incumbent=incumbent)
                solution = self._apply_upgrade_cooldown(
                    problem, solution, now, incumbent
                )
            except Exception:
                # Design for failure (Sec. 7): never take the meeting down —
                # drop every publisher to a single safe stream and continue.
                self.fallbacks_engaged += 1
                if reg.enabled:
                    reg.counter(obs_names.CONTROLLER_FALLBACKS).inc()
                solution = single_stream_fallback(problem)
            self._record_resolution_sets(solution, now)
            self.solutions.append(solution)
            self.last_solution = solution
            self._executor.execute(solution)
        if reg.enabled:
            reg.counter(obs_names.CONTROLLER_SOLVES).inc()
            reg.histogram(obs_names.CONTROLLER_TICK_SECONDS).observe(
                time.perf_counter() - tick_start
            )
        return solution

    # ------------------------------------------------------------------ #
    # Upgrade cooldown (resolution-switch hysteresis)
    # ------------------------------------------------------------------ #

    def _apply_dead_stream_caps(self, problem, now: float):
        """Exclude configured-but-silent streams (Sec. 7 downgrade logic)."""
        detector = getattr(self._executor, "dead_configured_streams", None)
        if detector is not None:
            for pub, res in detector(now):
                key = (pub, res)
                if key not in self._dead_caps or self._dead_caps[key] <= now:
                    self.downgrades_applied += 1
                    get_registry().counter(
                        obs_names.CONTROLLER_DOWNGRADES
                    ).inc()
                self._dead_caps[key] = now + self.config.dead_stream_penalty_s
        active = {
            key for key, expiry in self._dead_caps.items() if expiry > now
        }
        self._dead_caps = {
            key: expiry
            for key, expiry in self._dead_caps.items()
            if expiry > now
        }
        if not active:
            return problem
        from ..core.constraints import Problem

        restricted = {
            pub: [
                s
                for s in streams
                if (pub, s.resolution) not in active
            ]
            for pub, streams in problem.feasible_streams.items()
        }
        return Problem(
            feasible_streams=restricted,
            bandwidth=problem.bandwidth,
            subscriptions=problem.subscriptions,
            aliases=problem.aliases,
            owners=problem.owners,
        )

    def _incumbent_assignments(self):
        """(subscriber, literal publisher) -> currently received resolution."""
        if self.last_solution is None:
            return None
        return {
            (sub, pub): stream.resolution
            for sub, per_pub in self.last_solution.assignments.items()
            for pub, stream in per_pub.items()
        }

    def _apply_upgrade_cooldown(
        self, problem, solution: Solution, now: float, incumbent=None
    ) -> Solution:
        """Suppress too-soon resolution upgrades and re-solve once."""
        cooldown = self.config.upgrade_cooldown_s
        if cooldown <= 0:
            return solution
        caps = {}
        for pub in problem.publishers:
            entries = solution.policies.get(pub, {})
            new_top = max(entries) if entries else None
            old_top = self._last_top_res.get(pub)
            if new_top is None or old_top is None or new_top <= old_top:
                continue
            since = now - self._last_res_change_s.get(pub, float("-inf"))
            if since < cooldown:
                caps[pub] = old_top
        if not caps:
            return solution
        self.upgrades_suppressed += len(caps)
        get_registry().counter(obs_names.CONTROLLER_UPGRADES_SUPPRESSED).inc(
            len(caps)
        )
        restricted = {
            pub: [
                s
                for s in streams
                if pub not in caps or s.resolution <= caps[pub]
            ]
            for pub, streams in problem.feasible_streams.items()
        }
        from ..core.constraints import Problem

        capped_problem = Problem(
            feasible_streams=restricted,
            bandwidth=problem.bandwidth,
            subscriptions=problem.subscriptions,
            aliases=problem.aliases,
            owners=problem.owners,
        )
        return self._solver.solve(capped_problem, incumbent=incumbent)

    def _record_resolution_sets(self, solution: Solution, now: float) -> None:
        for pub, entries in solution.policies.items():
            new_top = max(entries) if entries else None
            if self._last_top_res.get(pub) != new_top:
                self._last_top_res[pub] = new_top
                self._last_res_change_s[pub] = now

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def mean_call_interval_s(self) -> float:
        """Mean gap between control events so far."""
        if not self.call_intervals:
            return 0.0
        return sum(self.call_intervals) / len(self.call_intervals)
