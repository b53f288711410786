"""The GSO controller of one simulated conference, as an ingress backend.

Sec. 6 / Fig. 12: "A proper control frequency is key ... The maximum call
interval is 3 s ... The minimum call interval is 1 s."  That trigger
policy is the :class:`~repro.ingress.plane.IngressPlane`'s: a
packet-level meeting runs as one meeting of a plane on its own
simulator (:func:`conference_plane`).  :class:`ConferenceBackend`
decides: it snapshots the conference node's global picture, runs the
KMR algorithm and hands the solution to the
:class:`~repro.control.feedback.FeedbackExecutor`, with two Sec. 7
guards the fleet path does not have (the upgrade cooldown and the
dead-stream caps) and the single-stream fallback when the solver raises.

:mod:`repro.control` does not re-export this module: it imports the
ingress plane, which imports the cluster, which imports
:mod:`repro.control.failover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.constraints import Problem
from ..core.solution import Solution, solution_digest
from ..core.solver import GsoSolver, SolverConfig
from ..ingress.aio import SimRuntime
from ..ingress.events import StreamEvent
from ..ingress.plane import BackendDecision, IngressBackend, IngressPlane
from ..net.simulator import Simulator
from ..obs import names as obs_names
from ..obs.registry import get_registry
from .conference_node import ConferenceNode
from .failover import single_stream_fallback
from .feedback import FeedbackExecutor

#: The meeting id of a conference on its ingress plane.
MEETING_ID = "meeting"
#: Granularity of the solver's knapsack grid (kbps).
GRANULARITY_KBPS = 10
#: Minimum time between two *resolution-set upgrades* of one publisher.
#: Downgrades always apply immediately; upgrades within the cooldown are
#: suppressed by re-solving with the publisher's ladder capped at its
#: current top resolution.  This is the orchestration-level half of the
#: Sec. 7 quality-oscillation fix: resolution switches restart encoders
#: (keyframe bursts) and reshuffle subscriptions, so they must not flap
#: with estimator noise.
UPGRADE_COOLDOWN_S = 6.0
#: How long a stream detected as dead (configured but not flowing, a
#: sibling alive — Sec. 7's client-failure case) stays excluded from the
#: publisher's feasible set before it may be retried.
DEAD_STREAM_PENALTY_S = 10.0


@dataclass
class GuardStats:
    """The Sec. 7 guards' counts; the metrics registry reads them at
    snapshot."""

    fallbacks: int = 0
    upgrades_suppressed: int = 0
    downgrades: int = 0

    def samples(self) -> Iterator[tuple]:
        """The registry's view (``MetricsRegistry.watch``)."""
        yield obs_names.CONTROLLER_FALLBACKS, {}, self.fallbacks
        yield obs_names.CONTROLLER_UPGRADES_SUPPRESSED, {}, self.upgrades_suppressed
        yield obs_names.CONTROLLER_DOWNGRADES, {}, self.downgrades


def _restricted(problem: Problem, keep) -> Problem:
    """``problem`` with each publisher's ladder filtered by ``keep``."""
    return Problem(
        feasible_streams={
            pub: [s for s in streams if keep(pub, s)]
            for pub, streams in problem.feasible_streams.items()
        },
        bandwidth=problem.bandwidth,
        subscriptions=problem.subscriptions,
        aliases=problem.aliases,
        owners=problem.owners,
    )


class ConferenceBackend(IngressBackend):
    """One conference node's decisions, for a plane on its simulator.

    The plane paces it with the base class's Fig. 12 envelope (1 s, 3 s).
    A decision holds no executor slot in virtual time and is never shed:
    the mailbox of a conference counts picture changes, not load, and
    :func:`conference_plane` offers at most one change per snapshot
    (:attr:`dirty`), so it never holds more than one.
    """

    def __init__(
        self,
        sim: Simulator,
        conference: ConferenceNode,
        executor: FeedbackExecutor,
    ) -> None:
        self._sim = sim
        self._conference = conference
        self._executor = executor
        self._solver = GsoSolver(SolverConfig(granularity_kbps=GRANULARITY_KBPS))
        #: True from a change's offer until the next :meth:`payload`.
        self.dirty = False
        self.last_solution: Optional[Solution] = None
        self.guards = GuardStats()
        get_registry().watch(self.guards.samples)
        #: Per publisher: top resolution last executed, and when the
        #: resolution set last changed.
        self._last_top_res: dict = {}
        self._last_res_change_s: dict = {}
        #: (publisher, resolution) -> exclusion expiry time (client-failure
        #: downgrades).
        self._dead_caps: dict = {}

    # ------------------------------------------------------------------ #
    # The plane's side
    # ------------------------------------------------------------------ #

    def apply_event(self, event: StreamEvent) -> None:
        """The conference node already holds the change."""

    def payload(self, meeting: str) -> Problem:
        self.dirty = False
        now = self._sim.now
        return self._apply_dead_stream_caps(
            self._conference.snapshot(now_s=now), now
        )

    def service_s(self, meeting: str, payload: object) -> float:
        return 0.0

    def backpressure_window_s(
        self, meeting: str, depth: int, capacity: int
    ) -> float:
        return self.min_interval_s

    def over_budget(self, meeting: str, in_flight: int) -> bool:
        return False

    def decide(self, meeting, payload, now_s, trigger, cid) -> BackendDecision:
        incumbent = self._incumbent_assignments()
        try:
            solution = self._solver.solve(payload, incumbent=incumbent)
            solution = self._apply_upgrade_cooldown(
                payload, solution, now_s, incumbent
            )
            source = "solve"
        except Exception:
            # Design for failure (Sec. 7): never take the meeting down —
            # drop every publisher to a single safe stream and continue.
            self.guards.fallbacks += 1
            solution = single_stream_fallback(payload)
            source = "fallback"
        self._record_resolution_sets(solution, now_s)
        self.last_solution = solution
        self._executor.execute(solution)
        return BackendDecision(
            source=source, digest=solution_digest(solution), solution=solution
        )

    # ------------------------------------------------------------------ #
    # Sec. 7 guards
    # ------------------------------------------------------------------ #

    def _apply_dead_stream_caps(self, problem: Problem, now: float) -> Problem:
        """Exclude configured-but-silent streams (Sec. 7 downgrade logic)."""
        for key in self._executor.dead_configured_streams(now):
            if key not in self._dead_caps or self._dead_caps[key] <= now:
                self.guards.downgrades += 1
            self._dead_caps[key] = now + DEAD_STREAM_PENALTY_S
        self._dead_caps = {
            key: expiry
            for key, expiry in self._dead_caps.items()
            if expiry > now
        }
        if not self._dead_caps:
            return problem
        return _restricted(
            problem, lambda pub, s: (pub, s.resolution) not in self._dead_caps
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
        self, problem: Problem, solution: Solution, now: float, incumbent
    ) -> Solution:
        """Suppress too-soon resolution upgrades and re-solve once."""
        caps = {}
        for pub in problem.publishers:
            entries = solution.policies.get(pub, {})
            new_top = max(entries) if entries else None
            old_top = self._last_top_res.get(pub)
            if new_top is None or old_top is None or new_top <= old_top:
                continue
            since = now - self._last_res_change_s.get(pub, float("-inf"))
            if since < UPGRADE_COOLDOWN_S:
                caps[pub] = old_top
        if not caps:
            return solution
        self.guards.upgrades_suppressed += len(caps)
        capped = _restricted(
            problem,
            lambda pub, s: pub not in caps or s.resolution <= caps[pub],
        )
        return self._solver.solve(capped, incumbent=incumbent)

    def _record_resolution_sets(self, solution: Solution, now: float) -> None:
        for pub, entries in solution.policies.items():
            new_top = max(entries) if entries else None
            if self._last_top_res.get(pub) != new_top:
                self._last_top_res[pub] = new_top
                self._last_res_change_s[pub] = now


def conference_plane(
    sim: Simulator, conference: ConferenceNode, executor: FeedbackExecutor
) -> IngressPlane:
    """Decide ``conference`` as one meeting of an ingress plane on ``sim``.

    Every change of the conference node's picture is offered to the
    plane as a stream event at its virtual instant, unless a change
    offered before is still waiting for its snapshot; a picture the
    conference already holds is offered at once.  Replacing
    ``plane.backend`` (a controller restart) keeps the hook working.
    """
    plane = IngressPlane(
        SimRuntime(sim), ConferenceBackend(sim, conference, executor)
    )

    def changed() -> None:
        backend = plane.backend
        if not backend.dirty:
            backend.dirty = True
            plane.offer(StreamEvent(at_s=sim.now, meeting=MEETING_ID))

    conference.on_change = changed
    if conference.version:
        changed()
    return plane
